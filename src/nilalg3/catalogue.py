"""The classification catalogue of 3-dimensional nilpotent associative algebras.

Canonical representatives (one per isomorphism class over an algebraically
closed field):

    a0        zero product
    c1        e3*e3 = e1
    c3        e2*e2 = e1,  e3*e3 = e1
    a(d)      e2*e2 = e1,  e2*e3 = e1,  e3*e3 = d*e1      (one class per d)
    l1        e2*e3 = e1,  e3*e2 = -e1
    c5        e1*e1 = e2,  e1*e2 = e3,  e2*e1 = e3

plus the auxiliary presentations that arise while normalizing: the
one-parameter family h(b) with e2*e3 = e1, e3*e2 = b*e1, the family
a3(k) with e2*e2 = e1, e3*e2 = k*e1, e3*e3 = e1, the fixed members
rho = a3(2), chat3 = h(1), a2 = h(0).

Every isomorphism this module hands out is wrapped in an IsoWitness whose
matrix is re-checked by the action at construction time, so no unverified
claim can circulate.  identify() classifies an arbitrary structure vector:
its power chain settles classes 0 and 3, and a class-2 structure, whose
square is a line <f1> that annihilates, is read from one 2x2 matrix B, the
products of a complement of f1 on f1, taken off the stored terms.
identify_with_witness() additionally builds the explicit basis change onto
the canonical representative, from the same B.  That reduction is the one
isomorphism path: canonicalize() reduces every auxiliary id through it, and
iso_witness() composes two of them (src onto its representative, then back
from the representative onto dst), so no per-pair table of isomorphisms is
kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import (Field, FieldElement, NeedsFieldExtension, ScalarOps,
                     extend_with_root, square_roots)
from . import algprops
from .structspace import Matrix3, StructureVector, _stored, act

CANONICAL_TAGS = ("a0", "c1", "c3", "l1", "c5", "a")
AUXILIARY_TAGS = ("h", "a3", "rho", "chat3", "a2")
PARAMETRIC_TAGS = ("a", "h", "a3")


class CatalogueError(ValueError):
    """Unknown tag, missing/superfluous parameter, a witness that fails its
    check, or a structure that is not associative."""


class UnclassifiableError(ValueError):
    """The vector is nilpotent associative but fits no catalogue profile.

    Over an algebraically closed field this cannot happen (the table is a
    complete system of representatives); reaching it means the input data or
    the field semantics are off.
    """


@dataclass(frozen=True)
class AlgebraId:
    """A catalogue name, with its exact parameter if it has one.

    The parameter is a scalar of any domain (``fields.ScalarOps``): a field
    element, or a polynomial or rational function standing for a generic
    member of the family.
    """

    tag: str
    param: ScalarOps | None = None

    def __post_init__(self):
        if self.tag not in CANONICAL_TAGS + AUXILIARY_TAGS:
            raise CatalogueError(f"unknown algebra tag {self.tag!r}")
        if self.tag in PARAMETRIC_TAGS:
            if not isinstance(self.param, ScalarOps):
                raise CatalogueError(
                    f"tag {self.tag!r} needs a scalar parameter")
        elif self.param is not None:
            raise CatalogueError(f"tag {self.tag!r} takes no parameter")

    def is_canonical(self) -> bool:
        return self.tag in CANONICAL_TAGS

    def __str__(self):
        if self.param is None:
            return self.tag
        return f"{self.tag}({self.param!r})"

    __repr__ = __str__


# (i, j, k, c): e_i e_j = c e_k, with c None for the family parameter
_STRUCTURES = {
    "a0": (),
    "c1": ((3, 3, 1, 1),),
    "c3": ((2, 2, 1, 1), (3, 3, 1, 1)),
    "l1": ((2, 3, 1, 1), (3, 2, 1, -1)),
    "c5": ((1, 1, 2, 1), (1, 2, 3, 1), (2, 1, 3, 1)),
    "a": ((2, 2, 1, 1), (2, 3, 1, 1), (3, 3, 1, None)),
    "h": ((2, 3, 1, 1), (3, 2, 1, None)),
    "a3": ((2, 2, 1, 1), (3, 2, 1, None), (3, 3, 1, 1)),
    "rho": ((2, 2, 1, 1), (3, 2, 1, 2), (3, 3, 1, 1)),
    "chat3": ((2, 3, 1, 1), (3, 2, 1, 1)),
    "a2": ((2, 3, 1, 1),),
}


def structure_of(ident: AlgebraId, field) -> StructureVector:
    """The defining structure vector of a catalogue algebra over ``field``,
    which may be any scalar domain holding the parameter.

    A field keeps the vector's reps (``Domain._once``), keyed by the tag
    and the parameter's rep there, so each structure is built once per
    field object and lives as long as it; every call returns a new vector
    over ``field`` itself, with nothing kept in it.
    """
    t = ident.tag
    param = field.element(ident.param) if t in PARAMETRIC_TAGS else None

    def build():
        return StructureVector.from_terms(field, [
            (i, j, k, param if c is None else c)
            for i, j, k, c in _STRUCTURES[t]]).reps

    return _stored(field, field._once(
        ("structure", t, None if param is None else param.rep), build))


@dataclass(frozen=True)
class IsoWitness:
    """A basis change carrying src onto dst, re-verified at construction."""

    src: AlgebraId
    dst: AlgebraId
    matrix: Matrix3

    def __post_init__(self):
        f = self.matrix.parent
        if self.matrix.det().is_zero():
            raise CatalogueError("isomorphism witness matrix is singular")
        if act(structure_of(self.src, f), self.matrix) != structure_of(self.dst, f):
            raise CatalogueError(
                f"witness does not carry {self.src} onto {self.dst}")

    @property
    def field(self) -> Field:
        return self.matrix.parent


# -- named ids ---------------------------------------------------------------


def a0() -> AlgebraId:
    return AlgebraId("a0")


def c1() -> AlgebraId:
    return AlgebraId("c1")


def c3() -> AlgebraId:
    return AlgebraId("c3")


def l1() -> AlgebraId:
    return AlgebraId("l1")


def c5() -> AlgebraId:
    return AlgebraId("c5")


def adelta(field, d) -> AlgebraId:
    return AlgebraId("a", field.element(d))


def hbeta(field, b) -> AlgebraId:
    return AlgebraId("h", field.element(b))


def a3kappa(field, k) -> AlgebraId:
    return AlgebraId("a3", field.element(k))


def quarter(field: Field) -> FieldElement:
    """(4*1)^-1, the distinguished family parameter in characteristic != 2."""
    return field.from_int(4).inverse()


# -- explicit isomorphism witnesses ------------------------------------------


def _adjoin(field: Field, minpoly: list):
    """extend_with_root under the first of the names r, r1, r2, ... that
    the tower of ``field`` does not use yet."""
    taken = field._gens
    names = ["r"] + [f"r{i}" for i in range(1, len(taken) + 1)]
    return extend_with_root(field, minpoly, next(n for n in names if n not in taken))


def iso_witness(src: AlgebraId, dst: AlgebraId, field: Field,
                allow_extension: bool = False) -> IsoWitness | None:
    """A verified basis change carrying src onto dst, or None.

    Equal structures get the identity.  Otherwise both ids are reduced by
    identify_with_witness, src over ``field`` and dst over the field where
    src's reduction ended, and the witness is the first reduction followed
    by the inverse of the second.  So the answer is None exactly when the
    two ids are not isomorphic.  The witness may live over an extension of
    ``field``; NeedsFieldExtension is raised when a reduction needs a root
    that ``field`` lacks and allow_extension is false.
    """
    u, v = structure_of(src, field), structure_of(dst, field)
    if u == v:
        return IsoWitness(src, dst, Matrix3.identity(field))
    if identify(u) != identify(v):
        return None
    _, g = identify_with_witness(u, allow_extension)
    _, h = identify_with_witness(structure_of(dst, g.parent), allow_extension)
    return IsoWitness(src, dst, g.lift(h.parent) @ h.inverse())


def canonicalize(ident: AlgebraId, field: Field, allow_extension: bool = True):
    """Reduce any catalogue id to its Table representative.

    Returns (canonical id, witness chain).  A canonical id comes back as it
    is, with an empty chain.  Any other id is reduced by
    identify_with_witness, and the chain is the one IsoWitness of that basis
    change, carrying structure_of(ident) onto structure_of(canonical id).
    The witness may live over a quadratic extension of ``field`` when the
    reduction needs a root the field lacks (refused if allow_extension is
    false).  The canonical id's parameter always lies in ``field``.
    """
    if ident.is_canonical():
        return ident, []
    target, g = identify_with_witness(structure_of(ident, field), allow_extension)
    return target, [IsoWitness(ident, target, g)]


# -- classification of arbitrary structure vectors ---------------------------


def _slice(vec: StructureVector, square: list) -> tuple:
    """(f1, w2, w3, B) for a class-2 vec whose square is the line <f1>.

    ``square`` is the echelon basis of the square, so f1's pivot m, its
    first nonzero coordinate, holds 1.  w2 and w3 are the unit vectors
    other than f1's last nonzero coordinate, so (f1, w2, w3) is a basis.
    Since A * A^2 lies in A^3 = 0, f1 annihilates and w_x * w_y =
    B[x][y] f1: the 2x2 matrix B, read at coordinate m off the stored
    terms, is the whole structure.
    """
    if len(square) != 1:
        raise UnclassifiableError("square is not a line")
    f1 = square[0]
    field = vec.parent
    nonzero = [n for n in (1, 2, 3) if not f1[n - 1].is_zero()]
    m, frame = nonzero[0], [n for n in (1, 2, 3) if n != nonzero[-1]]
    c = {(i, j): r for i, j, k, r in vec.reps if k == m}
    B = [[field._elem(c.get((i, j), field._zero_rep)) for j in frame]
         for i in frame]
    units = Matrix3.identity(field).rows()
    return f1, units[frame[0] - 1], units[frame[1] - 1], B


def identify(vec: StructureVector) -> AlgebraId:
    """The canonical id of an arbitrary nilpotent associative structure.

    Decision tree: class 0 is the zero algebra and class 3 the truncated
    polynomial algebra.  Class 2 is read from the 2x2 matrix B of the
    slice: alternating B is l1 (checked first, since in characteristic 2
    l1's B is also symmetric), symmetric B is c1 when singular and c3
    otherwise, and any other B is the family member a(det B / (q - r)^2),
    q and r its off-diagonal entries.
    """
    return _identify(vec, _power_chain(vec))


def _power_chain(vec: StructureVector) -> list:
    """The power chain of vec, whose entry 0 is its square; refuses a
    non-associative vec.  Both are read from the pass that algprops keeps on
    vec, so identify, identify_with_witness and invariant_profile on one
    vector compute them once."""
    if not algprops.is_associative(vec):
        raise CatalogueError("structure is not associative")
    return algprops.power_chain(vec)


def _identify(vec: StructureVector, chain: list) -> AlgebraId:
    ncls = algprops.chain_class(chain)
    if ncls == 0:
        return AlgebraId("a0")
    if ncls == 3:
        return AlgebraId("c5")
    (p, q), (r, s) = _slice(vec, chain[0])[3]     # chain_class gives 0, 2 or 3
    if p.is_zero() and s.is_zero() and (q + r).is_zero():
        return AlgebraId("l1")
    det = p * s - q * r
    if q == r:
        return AlgebraId("c1" if det.is_zero() else "c3")
    skew = q - r
    return AlgebraId("a", det / (skew * skew))


def identify_with_witness(vec: StructureVector, allow_extension: bool = False):
    """identify() plus a verified basis change onto the canonical structure.

    Returns (id, matrix); act(vec, matrix) equals the canonical structure
    exactly.  The matrix may live over a quadratic extension (only c3 can
    need a square root; refused when allow_extension is false).
    """
    chain = _power_chain(vec)
    ident = _identify(vec, chain)
    g = _reduction_matrix(vec, ident, vec.parent, chain[0], allow_extension)
    target = structure_of(ident, g.parent)
    moved = act(vec, g)
    if moved != target:
        raise UnclassifiableError(f"reduction to {ident} failed verification")
    return ident, g


def _reduction_matrix(vec, ident, field, square, allow_extension) -> Matrix3:
    """``square`` is the echelon basis of the square of vec."""
    t = ident.tag
    if t == "a0":
        return Matrix3.identity(field)

    if t == "c5":
        candidates = _unit_candidates(field)
        candidates.append([field.one()] * 3)     # e1 + e2 + e3
        for v1 in candidates:
            v2 = vec.product(v1, v1)
            v3 = vec.product(v1, v2)
            m = Matrix3.from_columns(field, [v1, v2, v3])
            if not m.det().is_zero():
                return m
        raise UnclassifiableError("no generator found for the class-3 algebra")

    f1, w2, w3, B = _slice(vec, square)
    if t == "l1":
        q = B[0][1]
        return Matrix3.from_columns(field, [[q * c for c in f1], w2, w3])

    w2, w3, (p, q, s) = _orthogonal_frame(B, w2, w3)
    if t == "c1":
        return Matrix3.from_columns(field, [[p * c for c in f1], w3, w2])

    if t == "c3":
        ratio = s / p
        roots = square_roots(ratio)
        f2 = field
        if roots:
            d = roots[0]
        else:
            if not allow_extension:
                raise NeedsFieldExtension(
                    f"square root of {ratio!r} needed to normalise the pairing")
            f2 = _adjoin(field, [-ratio, 0, 1])[0]
            d = f2.generator()
        w3 = [c / d for c in w3]
        scaled = [p * c for c in f1]
        return Matrix3.from_columns(f2, [scaled, w2, w3])

    w3 = [(p / q) * c for c in w3]     # t == "a", the last tag _identify yields
    scaled = [p * c for c in f1]
    return Matrix3.from_columns(field, [scaled, w2, w3])


def _unit_candidates(field: Field) -> list:
    """The unit vectors, then their pairwise sums e1+e2, e1+e3, e2+e3."""
    e = Matrix3.identity(field).rows()
    return e + [[a + b for a, b in zip(e[i], e[j])]
                for i in range(3) for j in range(i + 1, 3)]


def _orthogonal_frame(B, w2, w3):
    """(w2, w3, (p, q, s)): the frame moved so that w2 is anisotropic and
    w3 cleared against it, and its pairing [[p, q], [0, s]] with p nonzero.

    Each move is a 2x2 congruence B -> Q^T B Q on the frame's pairing: an
    isotropic w2 is swapped with w3 when w3 is anisotropic, and replaced
    by w2 + w3 otherwise; then w3 becomes w3 - (r/p) w2.
    """
    (p, q), (r, s) = B
    if p.is_zero():
        if not s.is_zero():
            w2, w3, p, q, r, s = w3, w2, s, r, q, p
        else:                   # p = s = 0: w2 + w3 pairs to q + r with itself
            w2 = [a + b for a, b in zip(w2, w3)]
            p = q + r       # nonzero: an alternating pairing is l1's
    t = r / p
    w3 = [a - t * b for a, b in zip(w3, w2)]
    return w2, w3, (p, q - r, s - t * q)
