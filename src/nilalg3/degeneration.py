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
from fractions import Fraction

from . import algprops
from .catalogue import (AlgebraId, _slice, adelta, hbeta, identify,
                        identify_with_witness, quarter, structure_of)
from .fields import Field, FieldElement, PrimeField, RATIONALS, prime_field
from .polyring import (MultiPoly, PolyRing, RationalFunction,
                       RationalFunctionField)
from .structspace import Matrix3, StructureVector, _act_with, _from_reps, act

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


def _regular(p0, p1, p2, p3, p4, p5, p6, p7, p8) -> bool:
    """Whether some term of det P meets no zero cell, given the truth values
    of P's nine cells row by row; when none does, P is singular whatever
    its nonzero cells hold.  The one structural test: _moved_limit asks it
    of cells, search's mask table of bits."""
    return bool(p0 and (p4 and p8 or p5 and p7) or p1 and (p3 and p8 or p5 and p6)
                or p2 and (p3 and p7 or p4 and p6))


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
    if not _regular(*cells):
        return None
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
    """The ops of _moved_limit: the scalar domain's own hooks on reps.  Bound
    once per curve or search and passed as one tuple: reading them off the
    domain per search candidate cost 0.4-0.8 us of about 6 us over GF(7)."""
    return F._add, F._mul, F._neg, F._is_zero, F._inv


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
    cells = [list(math.prod((d for d in dens if d != rf.den),
                            start=rf.num).reps.items()) for rf in entries]
    scale = list(math.prod(dens, start=rff.poly_one).reps.items())
    support = [(i - 1, j - 1, k - 1, c)
               for i, j, k, c in structure_of(witness.src, base).reps]
    limits = _moved_limit(support, cells, scale, _hooks(base), _BLOCKS)
    if limits is None:
        raise DegenerationError("curve matrix is singular as a matrix of functions")
    out = []
    for (i, j, k), x in zip(itertools.product((1, 2, 3), repeat=3), limits):
        if x is _POLE:
            raise DegenerationError(f"coefficient {i}{j}{k} has a pole at t = 0")
        out.append(base._zero_rep if x is None else x)
    return _from_reps(base, out)


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
    """F(t) over field, built once per field object and kept in it
    (``Domain._once``): every curve over one field object shares it."""
    return field._once("F(t)", lambda: RationalFunctionField(field, "t"))


# Every library curve is C diag(t^d1, t^d2, t^d3): column j of a constant
# integer matrix C times t^dj.  One row per curve: the source as (tag,
# parameter), None matching any; the target tag; True for a curve of
# characteristic 2 only, False for one outside it, None for any; the rows of
# C; the weights d; up_to_iso; the note.
_LIBRARY = (
    ((None, None), "a0", None, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1),
     False, "scale-to-zero"),
    (("a", None), "c1", None, ((1, 0, 0), (0, 0, 1), (0, 1, 0)), (0, 1, 0),
     False, "pinch-family"),
    (("c3", None), "c1", None, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 1, 0),
     False, "squeeze-e2"),
    (("c5", None), "c1", None, ((0, 0, 1), (1, 0, 0), (0, 1, 0)), (2, 2, 1),
     False, "cube-collapse"),
    (("c5", None), "c3", True, ((0, 0, 1), (0, 1, 0), (1, 1, 0)), (2, 1, 1),
     True, "rep-collapse"),
    (("c5", None), "c3", False, ((1, 0, 0), (1, 1, 0), (0, 0, 1)), (1, 0, 1),
     True, "triangle-collapse"),
    (("a", Fraction(1, 4)), "l1", False, ((-1, 0, 0), (0, -1, 1), (0, 2, 0)),
     (1, 0, 1), False, "quarter-pinch"),
    (("c3", None), "l1", True, ((1, 0, 0), (0, 1, 0), (0, 1, 1)), (1, 0, 1),
     False, "shear-pinch"),
)


def known_witness(src: AlgebraId, dst: AlgebraId, field: Field):
    """The library curve for a canonical pair, verified; None when absent.

    Kept in the field (``Domain._once``), so over one field object a curve
    is verified once and every later call returns the same object, while a
    fresh field object starts afresh.  A refused id raises before anything
    is kept.
    """
    if not (src.is_canonical() and dst.is_canonical()):
        raise DegenerationError("known_witness expects canonical ids")

    def build():
        witness = _library_curve(src, dst, field)
        if witness is not None:
            verify_witness(witness)
        return witness

    return field._once(("curve", src, dst), build)


def _library_curve(src: AlgebraId, dst: AlgebraId, field: Field):
    """The unverified library curve for a canonical pair, or None: the
    identity when src == dst, else the first row of _LIBRARY that takes the
    pair, entry (i, j) being C[i][j] t^d[j]."""
    if src == dst:
        return CurveWitness(src, dst, Matrix3.identity(_rff(field)), note="identity")
    char2 = field.char == 2
    for (tag, param), target, in_char2, c, d, up_to_iso, note in _LIBRARY:
        if (target == dst.tag and in_char2 in (None, char2) and tag in (None, src.tag)
                and (param is None or src.param == field.element(param))):
            rff = _rff(field)
            entries = [rff.polynomial({e: x}) for row in c for e, x in zip(d, row)]
            return CurveWitness(src, dst, Matrix3(rff, entries),
                                up_to_iso=up_to_iso, note=note)
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
    got = {(i, j, k): c for i, j, k, c in cleared.terms()}
    zero = cleared.parent.zero()
    return [(f"{prefix}-{i}{j}{k}", got.pop((i, j, k), zero) == expected[i, j, k])
            for i, j, k in sorted(expected)] + [(f"{prefix}-vanishing", not got)]


def verify_lemma_identities(characteristic: int, mutate=None) -> IdentityReport:
    """Re-derive the family/quarter separation identities symbolically.

    Expands the action of a generic matrix g on the pinched product with a
    free parameter, in denominator-cleared form, at the four coefficients
    (2, 3, 1), (3, 2, 1), (3, 3, 1) and (2, 2, 1), and compares each with its
    closed formula.  Coefficient (a, b, c) reads only columns a and b of g
    and row c of adj(g), so these four are expanded from g with column 1
    zeroed and from adj(g)'s first row, and no other coefficient is built.
    Likewise for an upper-triangular matrix, where all 27 cleared
    coefficients are pinned down; likewise for the alternating
    representative, together with its explicit membership in the orbit of
    the parameter-2 structure.  One polynomial ring in the
    parameter and g's nine entries is enough: each matrix group the suite
    uses is a specialisation of the one generic matrix (the upper-triangular
    Borel subgroup is g21 = g31 = g32 = 0), so a further group, such as the
    parabolic g21 = g31 = 0, is one more specialisation in the same ring.
    ``mutate`` adds 1 to one structure coefficient (a triple (i, j, k))
    before expanding, so callers can confirm the suite actually has teeth.
    A characteristic that is not an int, or a ``mutate`` that is neither
    None nor a triple of ints in 1..3, raises DegenerationError.
    """
    if type(characteristic) is not int:
        raise DegenerationError(
            f"characteristic must be an int, got {characteristic!r}")
    if mutate is not None and not (
            isinstance(mutate, (tuple, list)) and len(mutate) == 3
            and all(type(i) is int and 1 <= i <= 3 for i in mutate)):
        raise DegenerationError(
            f"mutate must be None or a triple of ints in 1..3, got {mutate!r}")
    base = prime_field(characteristic)
    ring = PolyRing(base, ("xi", "g11", "g12", "g13", "g21", "g22", "g23",
                           "g31", "g32", "g33"))
    xi, g11, g12, g13, _g21, g22, g23, _g31, g32, g33 = ring.gens()
    one = ring.one()
    sigma = structure_of(hbeta(ring, xi), ring)
    if mutate is not None:
        sigma = sigma + StructureVector.from_terms(ring, [(*mutate, one)])

    # the generic matrix: four coefficients against their closed formulas
    dpiv = g22 * g33 - g23 * g32
    g = Matrix3.from_rows(ring, [[0, g12, g13], [0, g22, g23], [0, g32, g33]])
    adj_row1 = Matrix3.from_rows(ring, [
        [dpiv, g13 * g32 - g12 * g33, g12 * g23 - g13 * g22], [0, 0, 0], [0, 0, 0]])
    cleared = _act_with(sigma, g, adj_row1)
    entries = [
        ("moved-231", cleared[2, 3, 1] == dpiv * (g22 * g33 + xi * g23 * g32)),
        ("moved-321", cleared[3, 2, 1] == dpiv * (g23 * g32 + xi * g22 * g33)),
        ("moved-331", cleared[3, 3, 1] == dpiv * (one + xi) * g23 * g33),
        ("moved-221", cleared[2, 2, 1] == dpiv * (one + xi) * g22 * g32),
    ]

    # its Borel specialisation b, every cleared coefficient pinned, for sigma
    # and for the alternating representative: one adjugate serves both
    b = Matrix3.from_rows(ring, [[g11, g12, g13], [0, g22, g23], [0, 0, g33]])
    adjb, detb = b.adjugate_and_det()
    entries.append(("triangular-det", detb == g11 * g22 * g33))
    m = g22 * g33
    entries += _pin_down("triangular", _act_with(sigma, b, adjb), {
        (2, 3, 1): m * m,
        (3, 2, 1): xi * m * m,
        (3, 3, 1): (one + xi) * m * g23 * g33,
    })
    alternating = ((2, 3, 1, -1), (3, 2, 1, 1), (3, 3, 1, 1))
    nu = StructureVector.from_terms(ring, alternating)
    entries += _pin_down("alternating", _act_with(nu, b, adjb), {
        (2, 3, 1): -(m * m),
        (3, 2, 1): m * m,
        (3, 3, 1): m * g33 * g33,
    })

    # the alternating representative really sits in the parameter-2 orbit
    rho_vec = structure_of(AlgebraId("rho"), base)
    shear = Matrix3.from_rows(base, [[1, 0, 0], [0, 1, 0], [0, -1, 1]])
    nu_num = StructureVector.from_terms(base, alternating)
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


def _node_profile(ident: AlgebraId, field: Field):
    """(class, commutative, in M**, in family) of a catalogue node.

    A class-2 node squares as x * x = (x^T B x) f1, B the 2x2 pairing
    matrix of the slice; in M** says x^T B x vanishes, so B is alternating.
    The node is in the pinched-product family h(b) exactly when that form
    has two independent isotropic lines: it is 0 (B alternating) or its
    discriminant -det(B + B^T) is nonzero.  Outside it, a class-2 node has
    rank(B + B^T) <= 1; in characteristic 2, B + B^T is alternating, so its
    rank is never 1 and the quarter class is empty.  Kept in the field
    (``Domain._once``).
    """
    def build():
        vec = structure_of(ident, field)
        chain = algprops.power_chain(vec)
        cls, mss = algprops.chain_class(chain), algprops.in_m_star_star(vec)
        family = False
        if cls == 2:
            (p, q), (r, s) = _slice(vec, chain[0])[3]
            family = mss or not ((p + p) * (s + s) - (q + r) * (q + r)).is_zero()
        return cls, algprops.is_commutative(vec), mss, family

    return field._once(("profile", ident), build)


def _base_obstruction(src: AlgebraId, dst: AlgebraId, field: Field):
    """The first refusal the two node profiles give, or None.

    Class, commutativity and M** are semicontinuous.  family-separation
    refuses two distinct family nodes; rho-separation refuses a class-2
    source outside the family that is not commutative (B is not symmetric
    and rank(B + B^T) = 1: the quarter node a(1/4)) onto a family node
    whose B is not alternating.  Both separations are gated on the
    identity suite.
    """
    s_cls, s_comm, s_mss, s_fam = _node_profile(src, field)
    d_cls, d_comm, d_mss, d_fam = _node_profile(dst, field)
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
    if s_fam and d_fam and src != dst:
        _require_lemma(field.char)
        return Obstruction("family-separation",
                           f"{src} and {dst} are distinct classes of the "
                           "pinched-product family, whose orbit closures "
                           "meet the family only in themselves")
    if s_cls == 2 and not (s_fam or s_comm) and d_fam and not d_mss:
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
    """Decide src -> dst over ``field``, with a certificate either way.

    A canonical id is decided as it is; any other is first identified, with
    no isomorphism witness, so no root is adjoined that the answer drops.
    """
    csrc, cdst = (i if i.is_canonical() else identify(structure_of(i, field))
                  for i in (src, dst))
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
    through ``term``: an int and an element in, an int and an element out."""
    def sub(poly: MultiPoly) -> MultiPoly:
        elem = poly.ring.field._elem
        pairs = (term(e, elem(c)) for e, c in poly.reps.items())
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

    if bridge is None and first.matrix.parent == rff == second.matrix.parent:
        m1, m2 = first.matrix, second.matrix
    else:
        m1 = first.matrix.map_scalars(lift, rff)
        m2 = second.matrix.map_scalars(lift, rff)
        if bridge is not None:
            # a constant matrix commutes with t -> t^n: (g1 B)(t^n) = g1(t^n) B
            m1 = m1 @ bridge.lift(rff)

    note = f"{first.note}+{second.note}" if first.note or second.note else ""
    for n in (1, 2, 4, 8):
        fast = m1 if n == 1 else m1.map_scalars(
            lambda rf: _rf_map(rf, rff, lambda e, c: (e * n, c)), rff)
        total = fast @ m2
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


_BITS = tuple(1 << k for k in range(9))     # cell k's bit in a candidate's mask


def _candidates(rng, degree_bound: int, q: int):
    """Search's candidates, each as (mask, cells): nine cells, a cell empty
    when rng.random() < 0.5 and else one term (e, code), code among the
    nonzero element codes range(1, q), and the 9-bit mask of the nonzero
    cells, bit k for cell k.  e and code - 1 are drawn by rejection on
    getrandbits(), below degree_bound + 1 and q - 1, which takes from the
    stream exactly what randrange() and choice() take."""
    rand, bits = rng.random, rng.getrandbits
    ne, nc = degree_bound + 1, q - 1
    ke, kc = ne.bit_length(), nc.bit_length()
    while True:
        cells, mask = [], 0
        for bit in _BITS:
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
                mask |= bit
        yield mask, cells


@functools.cache
def _mask_sets() -> tuple:
    """Sets of 9-bit masks, each as a 512-bit int whose bit m says whether
    mask m is in it: for each cell k the masks holding bit k, and the masks
    of structurally regular P.  Built on the first search."""
    has = [sum(1 << m for m in range(512) if m & bit) for bit in _BITS]
    regular = sum(1 << m for m in range(512)
                  if _regular(*(m & bit for bit in _BITS)))
    return has, regular


def _live_masks(support, needed) -> list:
    """live[mask]: whether a candidate whose nonzero cells are ``mask`` can
    still hit, judged from which cells are nonzero alone.  A hit needs P
    structurally regular, and in each needed block (a, b), where the target
    has a nonzero coefficient, a support term (i, j, k) with cells (i, a)
    and (j, b) both nonzero: else _moved_limit finds no head there and
    yields None for all three positions of the block."""
    has, live = _mask_sets()
    for a, b in needed:
        heads = 0
        for i, j, _, _ in support:
            heads |= has[3 * i + a] & has[3 * j + b]
        live &= heads
    return [live >> m & 1 for m in range(512)]


def search_witness(src: AlgebraId, dst: AlgebraId, field: Field,
                   degree_bound: int = 2, budget: int = 100000,
                   seed: int = 1729) -> SearchResult:
    """Randomized hunt for a curve with monomial entries c * t**e.

    Samples sparse matrices of t-monomials from _candidates(), a stream fixed
    by the seed through random() and getrandbits() alone, and judges each on
    element codes with _moved_limit and the field's own rep hooks: a
    candidate is accepted when the moved structure has a limit at t = 0 equal
    to the target structure exactly.  A candidate is first judged by its
    mask of nonzero cells in a 512-entry table built per search
    (_live_masks): a mask that leaves P structurally singular, or leaves a
    block where the target is nonzero without a term, cannot hit, and its
    candidate is counted in ``tried`` but reaches no arithmetic.  For the
    rest the target's nonzero blocks, where most candidates fail, are
    judged first, and the check stops at the first mismatch.  A hit is
    re-verified by verify_witness() before being returned.
    """
    started = time.monotonic()
    for name, value in (("degree_bound", degree_bound), ("budget", budget)):
        if type(value) is not int or value < 0:
            raise DegenerationError(f"{name} must be an int >= 0, got {value!r}")
    if not field.is_finite():
        raise DegenerationError("search kernel needs a finite field")
    support = [(i - 1, j - 1, k - 1, c) for i, j, k, c in structure_of(src, field).reps]
    target = {(i - 1, j - 1, k - 1): c for i, j, k, c in structure_of(dst, field).reps}
    needed = {(a, b) for a, b, _ in target}
    blocks = sorted(_BLOCKS, key=lambda ab: ab not in needed)
    wanted = [target.get((a, b, c)) for a, b in blocks for c in range(3)]
    live = _live_masks(support, needed)
    ops = _hooks(field)
    unit = [(0, field.one().rep)]
    candidates = _candidates(random.Random(seed), degree_bound, field.order())

    hit = None
    tried = 0
    for tried, (mask, cells) in zip(range(1, budget + 1), candidates):
        if not live[mask]:
            continue
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
        rows = [[rff.from_reps(dict(cell)) for cell in hit[3 * r:3 * r + 3]]
                for r in range(3)]
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
    than a reinterpretation.  A lift that does not verify raises a
    ``DegenerationError`` that names the lift and keeps the reason.
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
    try:
        verify_witness(out)
    except DegenerationError as exc:
        raise DegenerationError(
            f"the centred lift of the GF({p}) curve to Q does not verify: "
            f"{exc}") from exc
    return out
