"""Degenerations between the catalogue algebras, with machine-checked evidence.

A degeneration src -> dst is certified by a curve of basis changes g(t): the
structure moved by g(t) must converge coefficientwise as t -> 0 to the target
structure (or to something identify() recognises as the target class).  A
non-degeneration is certified by an Obstruction: either a semicontinuous
invariant that would have to jump, a separation fact about the pinched-product
family whose polynomial identities verify_lemma_identities() re-derives from
scratch, or one transitivity step: a base obstruction y -/-> z carried to
src -/-> dst along library curves y -> src and dst -> z.

degenerates() combines the two directions into a total decision procedure for
catalogue pairs; search_witness() hunts for new curves over finite fields
with the t-adic valuation test that judges every certificate.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass

from . import algprops
from .catalogue import (AlgebraId, adelta, canonicalize, hbeta, identify,
                        identify_with_witness, quarter, structure_of)
from .fields import Field, FieldElement, PrimeField, RATIONALS, prime_field
from .polyring import (MultiPoly, PolyRing, RationalFunction,
                       RationalFunctionField)
from .structspace import Matrix3, StructureVector, act, act_cleared

OBSTRUCTION_TAGS = ("nilpotency-class", "commutativity", "m-star-star-closure",
                    "family-separation", "rho-separation",
                    "transitivity-derived")


class DegenerationError(Exception):
    """A witness failed verification or a decision could not be completed."""


@dataclass(frozen=True)
class CurveWitness:
    """A curve g(t) claimed to carry src down to dst as t -> 0.

    ``matrix`` lives over a RationalFunctionField (its entries are
    polynomials for every curve this package builds); nothing is checked at
    construction, verify_witness() is the judge, through curve_limit() and
    the one limit kernel _moved_limit, which search_witness() runs too.
    ``up_to_iso`` permits the limit to be any structure identify() assigns
    to dst's class rather than the canonical structure on the nose.
    """

    src: AlgebraId
    dst: AlgebraId
    matrix: Matrix3
    up_to_iso: bool = False
    note: str = ""

    @property
    def base_field(self) -> Field:
        return self.matrix.parent.field


@dataclass(frozen=True)
class Obstruction:
    tag: str
    reason: str

    def __post_init__(self):
        if self.tag not in OBSTRUCTION_TAGS:
            raise DegenerationError(f"unknown obstruction tag {self.tag!r}")


@dataclass(frozen=True)
class DegenerationFact:
    """The outcome of degenerates(): one certificate, never a bare boolean."""

    src: AlgebraId
    dst: AlgebraId
    holds: bool
    witness: CurveWitness | None = None
    chain: tuple = ()
    obstruction: Obstruction | None = None


# -- witness verification -----------------------------------------------------


_POLE = object()     # what _moved_limit yields for a coefficient without a limit
_BLOCKS = tuple(itertools.product(range(3), repeat=2))     # (a, b) in index order


def _adjugate_column(cells, s, ops) -> list:
    """Column s of adj(P): the cross product of rows s + 1 and s + 2 of P,
    entry r being p[r+1] q[r+2] - p[r+2] q[r+1]."""
    add, mul, neg, _, _ = ops
    o, w = 3 * ((s + 1) % 3), 3 * ((s + 2) % 3)
    p, q = cells[o:o + 3], cells[w:w + 3]
    column = []
    for x, y in ((1, 2), (2, 0), (0, 1)):
        out = {}
        for ep, cp in p[x]:
            for eq, cq in q[y]:
                e, c = ep + eq, mul(cp, cq)
                out[e] = add(out[e], c) if e in out else c
        for ep, cp in p[y]:
            for eq, cq in q[x]:
                e, c = ep + eq, neg(mul(cp, cq))
                out[e] = add(out[e], c) if e in out else c
        column.append(out)
    return column


def _moved_limit(support, cells, scale, ops, blocks):
    """The limit at t = 0 of a structure moved by g = P/L; None when P is
    singular.

    ``support`` holds the source's nonzero terms (i, j, k, s), 0-based;
    ``cells`` the nine entries of P row by row and ``scale`` the polynomial
    L, each as (exponent, value) pairs with nonzero values; ``ops`` is the
    arithmetic (add, mul, neg, is_zero, inverse) on those values.  Since
    act(vec, λg) = λ act(vec, g), coefficient (a, b, c) of the moved
    structure is the sum of s P[i,a] P[j,b] adj(P)[c,k] over L det P.  It
    has a limit exactly when its t-valuation is at least v = v_t(L det P),
    and the limit is its t^v coefficient over that of L det P; so the sums
    make no term above t^v, and adj(P) is built only in the columns k that
    the support uses.  Returns an iterator over the positions (a, b, c) of
    the given ``blocks`` (a, b), c = 0, 1, 2 for each, each position's limit
    (None when zero) or _POLE, so that a caller can ask for the positions it
    is likeliest to reject first and stop at the first one it does not want.
    """
    add, mul, _, is_zero, inverse = ops
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = cells
    if not (p0 and (p4 and p8 or p5 and p7) or p1 and (p3 and p8 or p5 and p6)
            or p2 and (p3 and p7 or p4 and p6)):
        return None     # every term of det P meets a zero cell: cheap, and
                        # that is how half of search's candidates end
    columns = {0: _adjugate_column(cells, 0, ops)}
    det = {}
    for p, q in zip(cells[:3], columns[0]):     # expansion along the first row
        for ep, cp in p:
            for eq, cq in q.items():
                n, x = ep + eq, mul(cp, cq)
                det[n] = add(det[n], x) if n in det else x
    low = [n for n, x in det.items() if not is_zero(x)]
    if not low:
        return None
    # the lowest term of L det is the product of the two lowest terms
    es, cs = min(scale)
    v = min(low)
    lead_inv = inverse(mul(det[v], cs))
    v += es
    for _, _, k, _ in support:
        if k not in columns:
            columns[k] = _adjugate_column(cells, k, ops)

    def limits():
        for a, b in blocks:
            # s P[i,a] P[j,b] does not depend on c: make it once
            heads = []
            for i, j, k, coef in support:
                ga = cells[3 * i + a]
                gb = cells[3 * j + b]
                if ga and gb:
                    for ea, ca in ga:
                        for eb, cb in gb:
                            e0 = ea + eb
                            if e0 <= v:
                                heads.append((e0, mul(coef, mul(ca, cb)),
                                              columns[k]))
            if not heads:       # the three coefficients (a, b, *) vanish
                yield from (None, None, None)
                continue
            for c in range(3):
                acc = {}
                for e0, head, column in heads:
                    for eh, ch in column[c].items():
                        n = e0 + eh
                        if n <= v:
                            x = mul(head, ch)
                            acc[n] = add(acc[n], x) if n in acc else x
                got = None
                for n, x in acc.items():
                    if not is_zero(x):
                        if n < v:
                            got = _POLE
                            break
                        got = mul(x, lead_inv)
                yield got

    return limits()


def _hooks(F) -> tuple:
    """The ops of _moved_limit: the scalar domain's own hooks on reps."""
    return F._add, F._mul, F._neg, F._is_zero, F._inv


def _pairs(poly: MultiPoly) -> list:
    return [(e, c) for (e,), c in poly.reps.items()]


def curve_limit(witness: CurveWitness) -> StructureVector:
    """The coefficientwise limit at t = 0, raising on a pole or singularity.

    Exact and division-free over F[t].  The matrix is written as g = P/L,
    with P polynomial and L the product of the distinct entry denominators
    other than 1, and _moved_limit judges P and L on reps through the base
    domain's hooks, as search does, so every scalar domain works, F(d)
    included.  A polynomial entry's denominator is its field's shared 1, so
    for a curve of polynomials (every curve this package builds) L = 1 and
    P is the numerators as they are, with no hashing and no products.
    """
    rff = witness.matrix.parent
    if not isinstance(rff, RationalFunctionField):
        raise DegenerationError("curve matrix must live over rational functions")
    base = rff.field
    entries = witness.matrix.entries
    dens = list(dict.fromkeys(rf.den for rf in entries if rf.den is not rf.parent.poly_one))
    cells = [_pairs(math.prod((d for d in dens if d != rf.den), start=rf.num))
             for rf in entries]
    scale = _pairs(math.prod(dens, start=rff.poly_one))
    support = [(i - 1, j - 1, k - 1, c.rep)
               for i, j, k, c in structure_of(witness.src, base).terms()]
    limits = _moved_limit(support, cells, scale, _hooks(base), _BLOCKS)
    if limits is None:
        raise DegenerationError("curve matrix is singular as a matrix of functions")
    zero = base.zero()
    out = []
    for (i, j, k), x in zip(itertools.product((1, 2, 3), repeat=3), limits):
        if x is _POLE:
            raise DegenerationError(f"coefficient {i}{j}{k} has a pole at t = 0")
        out.append(zero if x is None else base._elem(x))
    return StructureVector(base, out)


def verify_witness(witness: CurveWitness) -> StructureVector:
    """Check the limit against the target; returns the limit structure."""
    base = witness.matrix.parent.field
    limit = curve_limit(witness)
    target = structure_of(witness.dst, base)
    if limit == target:
        return limit
    if witness.up_to_iso:
        got = identify(limit)
        if got == witness.dst:
            return limit
        raise DegenerationError(
            f"limit identifies as {got}, expected {witness.dst}")
    raise DegenerationError(
        f"limit {limit} differs from the target structure {target}")


# -- the table of known curves ------------------------------------------------


def _rff(field: Field) -> RationalFunctionField:
    return RationalFunctionField(field, "t")


# the library curves' monomial cells as {exponent: integer coefficient};
# every other cell is an integer constant
_CELLS = {"t": {1: 1}, "t2": {2: 1}, "-t": {1: -1}}


def _curve(field: Field, rows, src, dst, up_to_iso=False, note="") -> CurveWitness:
    rff = _rff(field)
    resolved = [[rff.polynomial({e: field.from_int(n) for e, n in
                                 _CELLS.get(c, {0: c}).items()})
                 for c in row] for row in rows]
    return CurveWitness(src, dst, Matrix3.from_rows(rff, resolved),
                        up_to_iso=up_to_iso, note=note)


@functools.cache
def known_witness(src: AlgebraId, dst: AlgebraId, field: Field):
    """The library curve for a canonical pair, verified; None when absent.

    Cached per argument triple, so a curve is verified once and every later
    call returns the same object; ``known_witness.cache_clear()`` forgets
    them.  A refused id raises and so is never cached.
    """
    if not (src.is_canonical() and dst.is_canonical()):
        raise DegenerationError("known_witness expects canonical ids")
    witness = _library_curve(src, dst, field)
    if witness is not None:
        verify_witness(witness)
    return witness


def _library_curve(src: AlgebraId, dst: AlgebraId, field: Field):
    """The unverified library curve for a canonical pair, or None."""
    char2 = field.char == 2

    if src == dst:
        rff = _rff(field)
        return CurveWitness(src, dst, Matrix3.identity(rff), note="identity")

    if dst.tag == "a0":
        return _curve(field, [["t", 0, 0], [0, "t", 0], [0, 0, "t"]],
                      src, dst, note="scale-to-zero")

    pair = (src.tag, dst.tag)
    if pair == ("a", "c1"):
        return _curve(field, [[1, 0, 0], [0, 0, 1], [0, "t", 0]],
                      src, dst, note="pinch-family")
    if pair == ("c3", "c1"):
        return _curve(field, [[1, 0, 0], [0, "t", 0], [0, 0, 1]],
                      src, dst, note="squeeze-e2")
    if pair == ("c5", "c1"):
        return _curve(field, [[0, 0, "t"], ["t2", 0, 0], [0, "t2", 0]],
                      src, dst, note="cube-collapse")
    if pair == ("c5", "c3"):
        if char2:
            return _curve(field, [[0, 0, "t"], [0, "t", 0], ["t2", "t", 0]],
                          src, dst, up_to_iso=True, note="rep-collapse")
        return _curve(field, [["t", 0, 0], ["t", 1, 0], [0, 0, "t"]],
                      src, dst, up_to_iso=True, note="triangle-collapse")
    if pair == ("a", "l1") and not char2 and src.param == quarter(field):
        return _curve(field, [["-t", 0, 0], [0, -1, "t"], [0, 2, 0]],
                      src, dst, note="quarter-pinch")
    if pair == ("c3", "l1") and char2:
        return _curve(field, [["t", 0, 0], [0, 1, 0], [0, 1, "t"]],
                      src, dst, note="shear-pinch")
    return None


# -- the polynomial identity suite behind the separation lemmas ---------------


@dataclass(frozen=True)
class IdentityReport:
    characteristic: int
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.entries)

    def failures(self) -> tuple:
        return tuple(name for name, flag in self.entries if not flag)


def _pin_down(prefix: str, cleared, expected: dict) -> list:
    """Pin all 27 cleared coefficients: one entry per expected coefficient
    (in index order), then one saying that every other coefficient vanishes."""
    entries = []
    vanish = True
    for i, j, k in itertools.product((1, 2, 3), repeat=3):
        got = cleared[i, j, k]
        if (i, j, k) in expected:
            entries.append((f"{prefix}-{i}{j}{k}", got == expected[i, j, k]))
        elif not got.is_zero():
            vanish = False
    entries.append((f"{prefix}-vanishing", vanish))
    return entries


def verify_lemma_identities(characteristic: int, mutate=None) -> IdentityReport:
    """Re-derive the family/quarter separation identities symbolically.

    Expands the action of a generic matrix on the pinched product with a free
    parameter, in denominator-cleared form, and compares every coefficient
    with the closed formulas; likewise for an upper-triangular matrix, where
    all 27 cleared coefficients are pinned down; likewise for the alternating
    representative, together with its explicit membership in the orbit of the
    parameter-2 structure.  ``mutate`` adds 1 to one structure coefficient
    (a triple (i, j, k)) before expanding, so callers can confirm the suite
    actually has teeth.
    """
    base = prime_field(characteristic)
    entries = []

    # generic matrix, ten symbols: the free parameter and nine entries
    ring_g = PolyRing(base, ("xi", "g11", "g12", "g13", "g21", "g22", "g23",
                             "g31", "g32", "g33"))
    xi = ring_g.var("xi")
    gv = {(i, j): ring_g.var(f"g{i}{j}") for i in (1, 2, 3) for j in (1, 2, 3)}
    sigma = structure_of(hbeta(ring_g, xi), ring_g)
    if mutate is not None:
        sigma = sigma + StructureVector.from_terms(ring_g, [(*mutate, ring_g.one())])
    g = Matrix3.from_rows(ring_g, [[gv[(i, j)] for j in (1, 2, 3)] for i in (1, 2, 3)])
    cleared, _ = act_cleared(sigma, g)
    dpiv = gv[(2, 2)] * gv[(3, 3)] - gv[(2, 3)] * gv[(3, 2)]
    one = ring_g.one()
    entries.append(("moved-231",
                    cleared[2, 3, 1] == dpiv * (gv[(2, 2)] * gv[(3, 3)] + xi * gv[(2, 3)] * gv[(3, 2)])))
    entries.append(("moved-321",
                    cleared[3, 2, 1] == dpiv * (gv[(2, 3)] * gv[(3, 2)] + xi * gv[(2, 2)] * gv[(3, 3)])))
    entries.append(("moved-331",
                    cleared[3, 3, 1] == dpiv * (one + xi) * gv[(2, 3)] * gv[(3, 3)]))
    entries.append(("moved-221",
                    cleared[2, 2, 1] == dpiv * (one + xi) * gv[(2, 2)] * gv[(3, 2)]))

    # upper-triangular matrix, seven symbols; every coefficient is pinned
    ring_b = PolyRing(base, ("be", "b11", "b12", "b13", "b22", "b23", "b33"))
    be = ring_b.var("be")
    bv = {k: ring_b.var(k) for k in ("b11", "b12", "b13", "b22", "b23", "b33")}
    zero_b = ring_b.zero()
    sigma_b = structure_of(hbeta(ring_b, be), ring_b)
    if mutate is not None:
        sigma_b = sigma_b + StructureVector.from_terms(ring_b, [(*mutate, ring_b.one())])
    b = Matrix3.from_rows(ring_b, [
        [bv["b11"], bv["b12"], bv["b13"]],
        [zero_b, bv["b22"], bv["b23"]],
        [zero_b, zero_b, bv["b33"]]])
    clb, detb = act_cleared(sigma_b, b)
    entries.append(("triangular-det",
                    detb == bv["b11"] * bv["b22"] * bv["b33"]))
    m = bv["b22"] * bv["b33"]
    oneb = ring_b.one()
    expected_b = {
        (2, 3, 1): m * m,
        (3, 2, 1): be * m * m,
        (3, 3, 1): (oneb + be) * bv["b22"] * bv["b23"] * bv["b33"] * bv["b33"],
    }
    entries += _pin_down("triangular", clb, expected_b)

    # alternating representative under the same triangular matrices
    nu = StructureVector.from_terms(
        ring_b, [(2, 3, 1, -ring_b.one()), (3, 2, 1, ring_b.one()),
                 (3, 3, 1, ring_b.one())])
    cln, _ = act_cleared(nu, b)
    expected_n = {
        (2, 3, 1): -(m * m),
        (3, 2, 1): m * m,
        (3, 3, 1): bv["b22"] * bv["b33"] * bv["b33"] * bv["b33"],
    }
    entries += _pin_down("alternating", cln, expected_n)

    # the alternating representative really sits in the parameter-2 orbit
    rho_vec = structure_of(AlgebraId("rho"), base)
    shear = Matrix3.from_rows(base, [[1, 0, 0], [0, 1, 0], [0, -1, 1]])
    nu_num = StructureVector.from_terms(
        base, [(2, 3, 1, -base.one()), (3, 2, 1, base.one()),
               (3, 3, 1, base.one())])
    entries.append(("alternating-in-orbit", act(rho_vec, shear) == nu_num))

    return IdentityReport(characteristic, tuple(entries))


@functools.cache
def _require_lemma(characteristic: int):
    """Run the identity suite once per characteristic; a failing suite
    raises, and so is run again on the next call."""
    report = verify_lemma_identities(characteristic)
    if not report.ok:
        raise DegenerationError(f"identity suite failed: {report.failures()}")


# -- obstructions -------------------------------------------------------------


@functools.cache
def _node_profile(ident: AlgebraId, field: Field):
    vec = structure_of(ident, field)
    return (algprops.nilpotency_class(vec), algprops.is_commutative(vec),
            algprops.in_m_star_star(vec))


def _in_family(ident: AlgebraId, field: Field) -> bool:
    """Is this class one of the pinched-product family classes?"""
    if field.char == 2:
        return ident.tag in ("l1", "a")
    if ident.tag in ("c3", "l1"):
        return True
    return ident.tag == "a" and ident.param != quarter(field)


def _base_obstruction(src: AlgebraId, dst: AlgebraId, field: Field):
    s_cls, s_comm, s_mss = _node_profile(src, field)
    d_cls, d_comm, d_mss = _node_profile(dst, field)
    if d_cls > s_cls:
        return Obstruction("nilpotency-class",
                           f"nilpotency class would rise from {s_cls} to {d_cls}")
    if s_comm and not d_comm:
        return Obstruction("commutativity",
                           "a commutative structure cannot limit onto a "
                           "non-commutative one")
    if s_mss and not d_mss:
        return Obstruction("m-star-star-closure",
                           "squares stay on their own line in the source "
                           "class but not in the target class")
    if _in_family(src, field) and _in_family(dst, field) and src != dst:
        _require_lemma(field.char)
        return Obstruction("family-separation",
                           f"{src} and {dst} are distinct classes of the "
                           "pinched-product family, whose orbit closures "
                           "meet the family only in themselves")
    if (field.char != 2 and src.tag == "a" and src.param == quarter(field)
            and dst != src):
        quarter_blocked = dst.tag == "c3" or (
            dst.tag == "a" and dst.param != quarter(field))
        if quarter_blocked:
            _require_lemma(field.char)
            return Obstruction("rho-separation",
                               "the quarter-parameter class meets the "
                               "pinched-product family only in the "
                               "alternating class")
    return None


def _mediator_pool(src, dst, field):
    pool = [AlgebraId("a0"), AlgebraId("c1"), AlgebraId("l1"), AlgebraId("c3"),
            AlgebraId("c5"), adelta(field, 0)]
    if field.char != 2:
        pool.append(adelta(field, quarter(field)))
    for extra in (src, dst):
        if extra not in pool:
            pool.append(extra)
    return pool


def _walk(start: int, pool: list, field: Field):
    """Breadth-first walk of library curves from pool index start.

    Yields (index, chain of curves from start) in discovery order, start
    first: neighbours are tried in pool order and each node keeps the first
    chain found.
    """
    chains = {start: ()}
    yield start, ()
    frontier = [start]
    for u in frontier:
        for v in range(len(pool)):
            if v in chains:
                continue
            w = known_witness(pool[u], pool[v], field)
            if w is not None:
                chains[v] = chains[u] + (w,)
                frontier.append(v)
                yield v, chains[v]


def _decide(src: AlgebraId, dst: AlgebraId, field: Field):
    """(chain, obstruction) for canonical ids; both None when undecided.

    Tries the library curve src -> dst, a chain of library curves, the
    direct base obstruction, and then one derivation step: a base
    obstruction y -/-> z proves src -/-> dst exactly when y reaches src and
    dst reaches z.  One step suffices, by induction over what transitivity
    derives: u -/-> b from a -/-> b and a -> u, or a -/-> v from a -/-> b
    and v -> b.  If a -/-> b rests on y -> a, b -> z and y -/-> z, then
    y -> a -> u and v -> b -> z, so the derived fact rests on the same
    base; reachability is transitively closed, so iterating adds nothing.
    """
    pool = _mediator_pool(src, dst, field)
    n, s, d = len(pool), pool.index(src), pool.index(dst)
    w = known_witness(src, dst, field)
    if w is not None:
        return (w,), None
    for v, chain in _walk(s, pool, field):
        if v == d:
            return chain, None
    direct = _base_obstruction(src, dst, field)
    if direct is not None:
        return None, direct
    reach = [{v for v, _ in _walk(u, pool, field)} for u in range(n)]
    for y, z in itertools.product(range(n), repeat=2):
        if s in reach[y] and z in reach[d] and z not in reach[y]:
            base = _base_obstruction(pool[y], pool[z], field)
            if base is not None:
                return None, Obstruction(
                    "transitivity-derived",
                    f"{pool[y]} degenerates to {src} and {dst} to {pool[z]}, "
                    f"but {pool[y]} cannot degenerate to {pool[z]} ({base.tag})")
    return None, None


def check_obstruction(src: AlgebraId, dst: AlgebraId, field: Field):
    """A certified reason src cannot degenerate to dst, or None.

    None whenever library curves carry src to dst.  Otherwise the
    machine-checkable invariants are tried first, then the family/quarter
    separation facts (gated on the symbolic identity suite), then one
    derivation step that carries a base obstruction y -/-> z to
    src -/-> dst along verified curves y -> src and dst -> z.
    """
    if not (src.is_canonical() and dst.is_canonical()):
        raise DegenerationError("check_obstruction expects canonical ids")
    return _decide(src, dst, field)[1]


# -- the total decision procedure ---------------------------------------------


def degenerates(src: AlgebraId, dst: AlgebraId, field: Field) -> DegenerationFact:
    """Decide src -> dst over ``field``, with a certificate either way."""
    csrc, _ = canonicalize(src, field)
    cdst, _ = canonicalize(dst, field)
    chain, obs = _decide(csrc, cdst, field)
    if chain is not None:
        if len(chain) == 1:
            return DegenerationFact(csrc, cdst, True, witness=chain[0])
        return DegenerationFact(csrc, cdst, True, chain=chain)
    if obs is not None:
        return DegenerationFact(csrc, cdst, False, obstruction=obs)
    raise DegenerationError(
        f"no certificate either way for {csrc} -> {cdst} over {field!r}")


# -- composing curves ----------------------------------------------------------


def _rf_map(rf: RationalFunction, rff: RationalFunctionField, term):
    """rf rebuilt over rff, each (exponent, coefficient) of num and den sent
    through ``term``."""
    def sub(poly: MultiPoly) -> MultiPoly:
        pairs = (term(e, c) for e, c in poly.terms.items())
        return MultiPoly(rff.ring, {e: c.rep for e, c in pairs})

    return rff.element(sub(rf.num), sub(rf.den))


def compose_curves(first: CurveWitness, second: CurveWitness) -> CurveWitness:
    """A single curve certifying src(first) -> dst(second).

    Feeds the first curve a high power of t so its limit settles before the
    second curve acts; when the first limit is only isomorphic to the
    middle structure, the identifying basis change is spliced in between.
    Both curves are lifted into F(t) over the bridge's field only when
    there is a bridge or their scalar domains differ.  The composite is
    verified before being returned.
    """
    if first.dst != second.src:
        raise DegenerationError(
            f"curves do not chain: {first.dst} versus {second.src}")
    limit1 = verify_witness(first)
    base = first.base_field
    bridge = None
    if limit1 != structure_of(first.dst, base):
        _, bridge = identify_with_witness(limit1, allow_extension=True)

    target_field = bridge.parent if bridge is not None else base
    rff = _rff(target_field)

    def lift(rf):
        return _rf_map(rf, rff, lambda e, c: (e, target_field.element(c)))

    bridge_m = None
    if bridge is None and first.matrix.parent == rff == second.matrix.parent:
        m1, m2 = first.matrix, second.matrix
    else:
        m1 = first.matrix.map_scalars(lift, rff)
        m2 = second.matrix.map_scalars(lift, rff)
        if bridge is not None:
            bridge_m = bridge.map_scalars(rff.const, rff)

    note = f"{first.note}+{second.note}" if first.note or second.note else ""
    for n in (1, 2, 4, 8):
        fast = m1 if n == 1 else m1.map_scalars(
            lambda rf: _rf_map(rf, rff, lambda e, c: ((e[0] * n,), c)), rff)
        total = fast @ bridge_m @ m2 if bridge_m is not None else fast @ m2
        candidate = CurveWitness(first.src, second.dst, total,
                                 up_to_iso=second.up_to_iso, note=note)
        try:
            verify_witness(candidate)
            return candidate
        except DegenerationError:
            continue
    raise DegenerationError(
        f"no power of t up to 8 makes {first.note}+{second.note} compose")


# -- randomized curve search over small finite fields --------------------------


@dataclass(frozen=True)
class SearchResult:
    src: AlgebraId
    dst: AlgebraId
    tried: int
    seed: int
    witness: CurveWitness | None
    elapsed: float

    @property
    def found(self) -> bool:
        return self.witness is not None


def _candidates(rng, degree_bound: int, q: int):
    """Search's candidates: nine cells each, a cell empty when rng.random()
    < 0.5 and else one term (e, code), code among the nonzero element codes
    range(1, q).  e and code - 1 are drawn by rejection on getrandbits(),
    below degree_bound + 1 and q - 1, which takes from the stream exactly
    what randrange() and choice() take."""
    rand, bits = rng.random, rng.getrandbits
    ne, nc = degree_bound + 1, q - 1
    ke, kc = ne.bit_length(), nc.bit_length()
    while True:
        cells = []
        for _ in range(9):
            if rand() < 0.5:
                cells.append(())
            else:
                e = bits(ke)
                while e >= ne:
                    e = bits(ke)
                r = bits(kc)
                while r >= nc:
                    r = bits(kc)
                cells.append(((e, r + 1),))
        yield cells


def search_witness(src: AlgebraId, dst: AlgebraId, field: Field,
                   degree_bound: int = 2, budget: int = 100000,
                   seed: int = 1729) -> SearchResult:
    """Randomized hunt for a curve with monomial entries c * t**e.

    Samples sparse matrices of t-monomials from _candidates(), a stream fixed
    by the seed through random() and getrandbits() alone, and judges each on
    element codes with _moved_limit and the field's own rep hooks: a
    candidate is accepted when the moved structure has a limit at t = 0 equal
    to the target structure exactly.  The target's nonzero blocks, where most
    candidates fail, are judged first, and the check stops at the first
    mismatch.  A hit is re-verified by verify_witness() before being returned.
    """
    started = time.monotonic()
    for name, value in (("degree_bound", degree_bound), ("budget", budget)):
        if type(value) is not int or value < 0:
            raise DegenerationError(f"{name} must be an int >= 0, got {value!r}")
    if not field.is_finite():
        raise DegenerationError("search kernel needs a finite field")
    support = [(i - 1, j - 1, k - 1, c.rep)
               for i, j, k, c in structure_of(src, field).terms()]
    target = {(i - 1, j - 1, k - 1): cf.rep
              for i, j, k, cf in structure_of(dst, field).terms()}
    blocks = sorted(_BLOCKS, key=lambda ab: all(ab + (c,) not in target for c in range(3)))
    wanted = [target.get((a, b, c)) for a, b in blocks for c in range(3)]
    ops = _hooks(field)
    unit = [(0, field.one().rep)]
    candidates = _candidates(random.Random(seed), degree_bound, field.order())

    hit = None
    tried = 0
    for tried, cells in zip(range(1, budget + 1), candidates):
        limits = _moved_limit(support, cells, unit, ops, blocks)
        if limits is None:
            continue
        for got, want in zip(limits, wanted):
            if got != want:
                break
        else:
            hit = cells
            break

    witness = None
    if hit is not None:
        rff = _rff(field)
        rows = [[rff.polynomial({e: field._elem(c) for e, c in cell})
                 for cell in hit[3 * r:3 * r + 3]] for r in range(3)]
        witness = CurveWitness(src, dst, Matrix3.from_rows(rff, rows),
                               note=f"search-seed{seed}")
        verify_witness(witness)
    return SearchResult(src, dst, tried, seed, witness,
                        time.monotonic() - started)


def lift_witness_to_rationals(witness: CurveWitness) -> CurveWitness:
    """Centered-residue lift of a prime-field witness to the rationals.

    Coefficients r of each matrix entry are replaced by the integer in
    (-p/2, p/2] congruent to r, and the lifted curve is re-verified over the
    rational function field, so the result is independent evidence rather
    than a reinterpretation.
    """
    base = witness.base_field
    if not isinstance(base, PrimeField):
        raise DegenerationError("can only lift witnesses over prime fields")
    p = base.p
    rff_q = _rff(RATIONALS)

    def centred(c: FieldElement) -> FieldElement:
        r = c.rep
        return RATIONALS.from_int(r if r <= p // 2 else r - p)

    def lift_id(ident: AlgebraId) -> AlgebraId:
        if ident.param is None:
            return ident
        return AlgebraId(ident.tag, centred(ident.param))

    lifted = witness.matrix.map_scalars(
        lambda rf: _rf_map(rf, rff_q, lambda e, c: (e, centred(c))), rff_q)
    out = CurveWitness(lift_id(witness.src), lift_id(witness.dst), lifted,
                       up_to_iso=witness.up_to_iso,
                       note=f"{witness.note}-lifted")
    verify_witness(out)
    return out
