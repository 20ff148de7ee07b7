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
catalogue pairs; search_witness() hunts for new curves over small finite
fields with a t-adic valuation test.
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
from .fields import Field, FieldElement, PrimeField, RATIONALS
from .polyring import (MultiPoly, PolyRing, RationalFunction,
                       RationalFunctionField, t_valuation)
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
    construction, verify_witness() is the judge, through curve_limit()'s
    division-free check over F[t].  ``up_to_iso`` permits the limit to be
    any structure identify() assigns to dst's class rather than the
    canonical structure on the nose.
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


def curve_limit(witness: CurveWitness) -> StructureVector:
    """The coefficientwise limit at t = 0, raising on a pole or singularity.

    Exact and division-free over F[t].  The matrix is written as g = P/L,
    with P polynomial and L the product of the distinct entry
    denominators (1 for every curve built from polynomials).  Since
    act(vec, λg) = λ act(vec, g), the moved structure is cleared / (L det)
    where (cleared, det) = act_cleared(vec, P).  A coefficient has a limit
    exactly when its t-valuation is at least v = v_t(L det); the limit is
    its t^v coefficient over that of L det.
    """
    rff = witness.matrix.parent
    if not isinstance(rff, RationalFunctionField):
        raise DegenerationError("curve matrix must live over rational functions")
    base = rff.field
    dens = list(dict.fromkeys(rf.den for rf in witness.matrix.entries))
    poly = witness.matrix.map_scalars(
        lambda rf: math.prod((d for d in dens if d != rf.den), start=rf.num),
        rff.ring)
    cleared, det = act_cleared(structure_of(witness.src, base), poly)
    if det.is_zero():
        raise DegenerationError("curve matrix is singular as a matrix of functions")
    scale = math.prod(dens, start=det)
    v = t_valuation(scale)
    lead_inv = scale.terms[(v,)].inverse()
    zero = base.zero()
    limit = []
    for c in cleared.coeffs:
        if c.terms and t_valuation(c) < v:
            raise DegenerationError(
                f"coefficient has a pole at t = 0: {c} over t^{v}")
        limit.append(c.terms[(v,)] * lead_inv if (v,) in c.terms else zero)
    return StructureVector(base, limit)


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
    if characteristic == 0:
        base = RATIONALS
    else:
        base = PrimeField(characteristic)
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
        return MultiPoly(rff.ring, dict(term(e, c) for e, c in poly.terms.items()))

    return rff.element(sub(rf.num), sub(rf.den))


def compose_curves(first: CurveWitness, second: CurveWitness) -> CurveWitness:
    """A single curve certifying src(first) -> dst(second).

    Feeds the first curve a high power of t so its limit settles before the
    second curve acts; when the first limit is only isomorphic to the
    middle structure, the identifying basis change is spliced in between.
    The composite is verified before being returned.
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
        return _rf_map(rf, rff, lambda e, c: (e, target_field.embed(c)))

    m1 = first.matrix.map_scalars(lift, rff)
    m2 = second.matrix.map_scalars(lift, rff)
    bridge_m = None
    if bridge is not None:
        bridge_m = bridge.map_scalars(rff.const, rff)

    note = f"{first.note}+{second.note}" if first.note or second.note else ""
    for n in (1, 2, 4, 8):
        fast = m1.map_scalars(
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


_PERM3 = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
          ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1))

# adjugate of a 3x3 matrix, 0-based: entry (r, s) from the cyclic 2x2 minor
_ADJ_INDEX = [[((s + 1) % 3, (r + 1) % 3, (s + 2) % 3, (r + 2) % 3,
                (s + 1) % 3, (r + 2) % 3, (s + 2) % 3, (r + 1) % 3)
               for s in range(3)] for r in range(3)]


def search_witness(src: AlgebraId, dst: AlgebraId, field: Field,
                   degree_bound: int = 2, budget: int = 100000,
                   seed: int = 1729) -> SearchResult:
    """Randomized hunt for a curve with monomial entries c * t**e.

    Samples sparse matrices of t-monomials, keeps those with nonzero
    determinant, and accepts a candidate when every coefficient of the moved
    structure has a limit at t = 0 matching the target structure exactly.
    Deterministic for a fixed seed.  A hit is re-verified by
    verify_witness() before being returned.
    """
    started = time.monotonic()
    if not field.is_finite():
        raise DegenerationError("search kernel needs a finite field")
    support = [(i - 1, j - 1, k - 1, c.rep)
               for i, j, k, c in structure_of(src, field).terms()]
    target = {}
    for a in range(3):
        for b in range(3):
            for c in range(3):
                target[(a, b, c)] = 0
    for i, j, k, cf in structure_of(dst, field).terms():
        target[(i - 1, j - 1, k - 1)] = cf.rep
    positions = sorted(target)

    # element reps are the codes range(q), zero first
    codes = range(field.order())
    add = [[field._add(a, b) for b in codes] for a in codes]
    mul = [[field._mul(a, b) for b in codes] for a in codes]
    neg = [field._neg(a) for a in codes]
    inv = [None] + [field._inv(a) for a in codes[1:]]
    nonzero = codes[1:]
    rng = random.Random(seed)
    dmax = degree_bound

    hit = None
    tried = 0
    for tried in range(1, budget + 1):
        cells = []
        for _ in range(9):
            if rng.random() < 0.5:
                cells.append(None)
            else:
                cells.append((rng.randrange(dmax + 1), rng.choice(nonzero)))

        det: dict = {}
        for (p0, p1, p2), sign in _PERM3:
            m0 = cells[p0]
            if m0 is None:
                continue
            m1 = cells[3 + p1]
            if m1 is None:
                continue
            m2 = cells[6 + p2]
            if m2 is None:
                continue
            e = m0[0] + m1[0] + m2[0]
            c = mul[mul[m0[1]][m1[1]]][m2[1]]
            if sign < 0:
                c = neg[c]
            prev = det.get(e, 0)
            c = add[prev][c]
            if c:
                det[e] = c
            elif e in det:
                del det[e]
        if not det:
            continue
        vd = min(det)
        lead_inv = inv[det[vd]]

        adj = [[None] * 3 for _ in range(3)]
        for r in range(3):
            for s in range(3):
                i0, j0, i1, j1, i2, j2, i3, j3 = _ADJ_INDEX[r][s]
                first = cells[3 * i0 + j0]
                other = cells[3 * i1 + j1]
                entry = {}
                if first is not None and other is not None:
                    entry[first[0] + other[0]] = mul[first[1]][other[1]]
                first = cells[3 * i2 + j2]
                other = cells[3 * i3 + j3]
                if first is not None and other is not None:
                    e = first[0] + other[0]
                    c = neg[mul[first[1]][other[1]]]
                    prev = entry.get(e, 0)
                    c = add[prev][c]
                    if c:
                        entry[e] = c
                    elif e in entry:
                        del entry[e]
                adj[r][s] = entry

        ok = True
        for (a, b, c) in positions:
            acc: dict = {}
            for (i, j, k, coef) in support:
                ga = cells[3 * i + a]
                if ga is None:
                    continue
                gb = cells[3 * j + b]
                if gb is None:
                    continue
                head = mul[coef][mul[ga[1]][gb[1]]]
                ebase = ga[0] + gb[0]
                for e2, c2 in adj[c][k].items():
                    e = ebase + e2
                    cc = mul[head][c2]
                    prev = acc.get(e, 0)
                    cc = add[prev][cc]
                    if cc:
                        acc[e] = cc
                    elif e in acc:
                        del acc[e]
            want = target[(a, b, c)]
            if not acc:
                if want:
                    ok = False
                    break
                continue
            vp = min(acc)
            if vp < vd:
                ok = False
                break
            got = mul[acc[vd]][lead_inv] if vd in acc else 0
            if got != want:
                ok = False
                break
        if ok:
            hit = list(cells)
            break

    witness = None
    if hit is not None:
        rff = _rff(field)
        rows = [[rff.polynomial({} if cell is None
                                else {cell[0]: field._elem(cell[1])})
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
