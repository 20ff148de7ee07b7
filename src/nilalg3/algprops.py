"""Invariants of a 3-dimensional algebra given by its structure vector.

Everything here is exact linear algebra over the scalar domain of the
vector: associativity and commutativity checks, the power chain and the
nilpotency class, dimensions of the square, the two-sided annihilator and
the derivation algebra, and membership in the closed set of structures
whose generic square stays on the line of its argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .polyring import PolyRing
from .structspace import StructureVector


class NotNilpotentError(ValueError):
    """The power chain of the algebra stabilises at a nonzero subspace."""


def _unit_triples(parent) -> list:
    z, o = parent.zero(), parent.one()
    return [[o, z, z], [z, o, z], [z, z, o]]


def is_associative(vec: StructureVector) -> bool:
    e = _unit_triples(vec.parent)
    for x in e:
        for y in e:
            xy = vec.product(x, y)
            for z in e:
                left = vec.product(xy, z)
                right = vec.product(x, vec.product(y, z))
                if any(not (a - b).is_zero() for a, b in zip(left, right)):
                    return False
    return True


def is_commutative(vec: StructureVector) -> bool:
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                if not (vec[i, j, k] - vec[j, i, k]).is_zero():
                    return False
    return True


def _echelon_basis(rows: list) -> list:
    rref, pivots = linalg.row_reduce(rows)
    return [rref[r] for r in range(len(pivots))]


def power_chain(vec: StructureVector, limit: int = 5) -> list:
    """Echelon bases of the subspaces spanned by products of 2, 3, ... factors.

    Entry 0 is a basis of the span of all two-factor products, entry 1 of the
    three-factor products, and so on; computation stops once the subspace
    hits zero or ``limit`` powers were formed.
    """
    e = _unit_triples(vec.parent)
    chain = []
    current = _echelon_basis([vec.product(x, y) for x in e for y in e])
    for _ in range(2, limit + 1):
        chain.append(current)
        if not current:
            break
        current = _echelon_basis([vec.product(u, x) for u in current for x in e])
    else:
        chain.append(current)
    return chain


def nilpotency_class(vec: StructureVector) -> int:
    """Largest number of factors with a nonzero product (0 for the zero vector).

    Raises :class:`NotNilpotentError` when the power chain stops shrinking at
    a nonzero subspace (in dimension 3 that verdict is reached by the fifth
    power at the latest).
    """
    if vec.is_zero():
        return 0
    chain = power_chain(vec)
    prev_dim = 3
    for n, basis in enumerate(chain, start=2):
        d = len(basis)
        if d == 0:
            return n - 1
        if d >= prev_dim:
            raise NotNilpotentError(
                f"power chain stabilises with dimension {d}")
        prev_dim = d
    raise NotNilpotentError("power chain still nonzero after five factors")


def square_basis(vec: StructureVector) -> list:
    """Echelon basis (coordinate triples) of the span of all products."""
    e = _unit_triples(vec.parent)
    return _echelon_basis([vec.product(x, y) for x in e for y in e])


def square_dimension(vec: StructureVector) -> int:
    return len(square_basis(vec))


def annihilator_basis(vec: StructureVector) -> list:
    """Basis of {u : u*x = 0 = x*u for all x}."""
    parent = vec.parent
    rows = []
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            rows.append([vec[i, j, k] for i in (1, 2, 3)])
            rows.append([vec[j, i, k] for i in (1, 2, 3)])
    return linalg.nullspace_basis(rows, parent, 3)


def annihilator_dimension(vec: StructureVector) -> int:
    return len(annihilator_basis(vec))


def derivation_dimension(vec: StructureVector) -> int:
    """Dimension of the space of derivations d(xy) = d(x)y + x d(y).

    The unknown is the matrix D with d(e_k) = sum_m D[m,k] e_m, flattened
    row-major into nine columns; each basis triple (i, j, m) contributes one
    linear equation.
    """
    parent = vec.parent
    zero = parent.zero()
    rows = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for m in (1, 2, 3):
                row = [zero] * 9
                for k in (1, 2, 3):
                    n = 3 * (m - 1) + (k - 1)
                    row[n] = row[n] + vec[i, j, k]
                for p in (1, 2, 3):
                    n = 3 * (p - 1) + (i - 1)
                    row[n] = row[n] - vec[p, j, m]
                    n = 3 * (p - 1) + (j - 1)
                    row[n] = row[n] - vec[i, p, m]
                rows.append(row)
    return linalg.nullity(rows, 9)


def in_m_star_star(vec: StructureVector) -> bool:
    """Does the square of every element stay on the line of that element?

    Checked as a polynomial identity in a generic element x, i.e. over the
    algebraic closure: all 2x2 minors of the pair (x, x*x) must vanish
    identically.
    """
    ring = PolyRing(vec.parent, ("x1", "x2", "x3"))
    x = list(ring.gens())
    q = vec.lift(ring).product(x, x)
    for i in range(3):
        for j in range(i + 1, 3):
            if not (x[i] * q[j] - x[j] * q[i]).is_zero():
                return False
    return True


@dataclass(frozen=True)
class InvariantProfile:
    """Snapshot of the isomorphism invariants used by classification."""

    characteristic: int
    associative: bool
    nilpotent: bool
    nilpotency_class: int | None
    commutative: bool
    square_dim: int
    annihilator_dim: int
    derivation_dim: int
    square_on_own_line: bool

    def to_dict(self) -> dict:
        return {
            "characteristic": self.characteristic,
            "associative": self.associative,
            "nilpotent": self.nilpotent,
            "nilpotency_class": self.nilpotency_class,
            "commutative": self.commutative,
            "square_dim": self.square_dim,
            "annihilator_dim": self.annihilator_dim,
            "derivation_dim": self.derivation_dim,
            "square_on_own_line": self.square_on_own_line,
        }


def invariant_profile(vec: StructureVector) -> InvariantProfile:
    try:
        ncls = nilpotency_class(vec)
        nilp = True
    except NotNilpotentError:
        ncls = None
        nilp = False
    return InvariantProfile(
        characteristic=vec.parent.char,
        associative=is_associative(vec),
        nilpotent=nilp,
        nilpotency_class=ncls,
        commutative=is_commutative(vec),
        square_dim=square_dimension(vec),
        annihilator_dim=annihilator_dimension(vec),
        derivation_dim=derivation_dimension(vec),
        square_on_own_line=in_m_star_star(vec),
    )
