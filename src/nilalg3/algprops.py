"""Invariants of a 3-dimensional algebra given by its structure vector.

Everything here is exact linear algebra over the scalar domain of the
vector, computed from its stored nonzero terms c[i,j,k] only (``reps``),
through the domain's hooks; only the bases that are returned are wrapped
as elements.  Associativity is the structure-constant identity

    sum_m c[i,j,m] c[m,k,l]  =  sum_m c[j,k,m] c[i,m,l]    (all i, j, k, l),

the coefficients of (e_i e_j) e_k and e_i (e_j e_k) on e_l, with each side
summed over the pairs of nonzero terms that meet in m.  The power chain
(the square, the cube, ...) is built once per call and gives both the
nilpotency class and the square.  The annihilator and the derivation
algebra are nullspaces of rows read off the nonzero terms, reduced by the
rep kernel of :mod:`linalg`.  Also here: commutativity, and membership in
the closed set M** of structures whose generic square stays on the line of
its argument.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import linalg
from .structspace import StructureVector


class NotNilpotentError(ValueError):
    """The power chain of the algebra stabilises at a nonzero subspace."""


def _sums(pairs, add) -> dict:
    out = {}
    for key, v in pairs:
        s = out.get(key)
        out[key] = v if s is None else add(s, v)
    return out


def is_associative(vec: StructureVector) -> bool:
    add, mul, zero = vec.parent._add, vec.parent._mul, vec.parent._zero_rep
    # the part of the slot 27i + 9j + 3k + l - 40 that the second factor
    # fixes (3k + l of c[m,k,l], 27i + l of c[i,m,l]), grouped by m
    by_first, by_second = ([], [], []), ([], [], [])
    for i, j, k, c in vec.reps:
        by_first[i - 1].append((3 * j + k, c))
        by_second[j - 1].append((27 * i + k, c))

    def side(wx, wy, groups):       # an empty slot is the zero rep
        out = [None] * 81
        for x, y, m, a in vec.reps:
            base = wx * x + wy * y - 40
            for off, b in groups[m - 1]:
                s = out[base + off]
                out[base + off] = mul(a, b) if s is None else add(s, mul(a, b))
        return [zero if s is None else s for s in out]

    # (e_i e_j) e_k: c[i,j,m] c[m,k,l]; e_i (e_j e_k): c[j,k,m] c[i,m,l]
    return side(27, 9, by_first) == side(9, 3, by_second)


def is_commutative(vec: StructureVector) -> bool:
    # the nonzero terms of e_i e_j against those of e_j e_i
    c = {(i, j, k): r for i, j, k, r in vec.reps}
    return c == {(j, i, k): r for (i, j, k), r in c.items()}


def _echelon(F, rows: list) -> list:
    """Echelon basis, as rows of reps, of the span of rows of reps."""
    return rows[:len(linalg._gauss_jordan(rows, F))]


def _square(F, terms: list) -> list:
    rows = {}
    for i, j, k, c in terms:
        rows.setdefault((i, j), [F._zero_rep] * 3)[k - 1] = c
    return _echelon(F, list(rows.values()))


def square_basis(vec: StructureVector) -> list:
    """Echelon basis (coordinate triples) of the span of all products.

    e_i e_j has the coordinates c[i,j,1..3], so the rows are read off the
    vector.
    """
    F = vec.parent
    return [list(map(F._elem, u)) for u in _square(F, vec.reps)]


def power_chain(vec: StructureVector) -> list:
    """Echelon bases of the subspaces spanned by products of 2, 3, ... factors.

    Entry 0 is a basis of the span of all two-factor products, entry 1 of the
    three-factor products, and so on; computation stops once the subspace
    hits zero or the products of five factors were formed.  Each is spanned
    by the u e_j, (u e_j)_k = sum_i u_i c[i,j,k], for u in the one before.
    """
    F = vec.parent
    add, mul, is_zero, zero = F._add, F._mul, F._is_zero, F._zero_rep
    chain = []
    current = _square(F, vec.reps)
    for _ in range(4):
        chain.append(current)
        if not current:
            break
        rows = []
        for u in current:
            products = [[zero] * 3 for _ in range(3)]
            for i, j, k, c in vec.reps:
                if not is_zero(u[i - 1]):
                    row = products[j - 1]
                    row[k - 1] = add(row[k - 1], mul(u[i - 1], c))
            rows += products
        current = _echelon(F, rows)
    else:
        chain.append(current)
    return [[list(map(F._elem, u)) for u in basis] for basis in chain]


def chain_class(chain: list) -> int:
    """The nilpotency class read off a :func:`power_chain`.

    The square is zero only for the zero vector, whose class is 0.  Raises
    :class:`NotNilpotentError` when the chain stops shrinking at a nonzero
    subspace (in dimension 3 that verdict is reached by the fifth power at
    the latest).
    """
    if not chain[0]:
        return 0
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


def nilpotency_class(vec: StructureVector) -> int:
    """Largest number of factors with a nonzero product (0 for the zero vector).

    Raises :class:`NotNilpotentError` as :func:`chain_class` does.
    """
    return chain_class(power_chain(vec))


def square_dimension(vec: StructureVector) -> int:
    return len(square_basis(vec))


def annihilator_basis(vec: StructureVector) -> list:
    """Basis of {u : u*x = 0 = x*u for all x}.

    The k-th coordinate of u*e_j is sum_i u_i c[i,j,k] and that of e_i*u is
    sum_j u_j c[i,j,k], so a nonzero c[i,j,k] is entry i of the row
    (u*e_j)_k and entry j of the row (e_i*u)_k.
    """
    F = vec.parent
    zero = F._zero_rep
    rows = {}
    for i, j, k, c in vec.reps:
        rows.setdefault(("left", j, k), [zero] * 3)[i - 1] = c
        rows.setdefault(("right", i, k), [zero] * 3)[j - 1] = c
    return linalg.nullspace_basis(list(rows.values()), F, 3)


def annihilator_dimension(vec: StructureVector) -> int:
    return len(annihilator_basis(vec))


def derivation_dimension(vec: StructureVector) -> int:
    """Dimension of the space of derivations d(xy) = d(x)y + x d(y).

    The unknown is the matrix D with d(e_k) = sum_m D[m,k] e_m, flattened
    row-major into nine columns; each basis triple (i, j, m) contributes the
    linear equation

        sum_k c[i,j,k] D[m,k] - sum_p c[p,j,m] D[p,i] - sum_p c[i,p,m] D[p,j] = 0,

    so a nonzero c[a,b,k] enters the first sum of the equations (a, b, n),
    the second of (n, b, k) and the third of (a, n, k), for n = 1, 2, 3.
    """
    F = vec.parent

    def entries():      # ((equation, column), rep)
        for a, b, k, c in vec.reps:
            minus = F._neg(c)
            for n in (1, 2, 3):
                yield ((a, b, n), 3 * n + k - 4), c
                yield ((n, b, k), 3 * a + n - 4), minus
                yield ((a, n, k), 3 * b + n - 4), minus

    zero = F._zero_rep
    rows = {}
    for (row, col), v in _sums(entries(), F._add).items():
        rows.setdefault(row, [zero] * 9)[col] = v
    return 9 - len(linalg._gauss_jordan(list(rows.values()), F))


def in_m_star_star(vec: StructureVector) -> bool:
    """Does the square of every element stay on the line of that element?

    Checked as a polynomial identity in a generic element x, i.e. over the
    algebraic closure: each monomial coefficient of each minor x_i q_j -
    x_j q_i of (x, x*x), with q_k = sum c[a,b,k] x_a x_b, must vanish.
    """
    add, neg, is_zero = vec.parent._add, vec.parent._neg, vec.parent._is_zero
    for i, j in ((1, 2), (1, 3), (2, 3)):
        coeffs = _sums(((tuple(sorted((i, a, b))), c) if k == j else
                        (tuple(sorted((j, a, b))), neg(c))
                        for a, b, k, c in vec.reps if k == i or k == j), add)
        if not all(map(is_zero, coeffs.values())):
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
        return asdict(self)


def invariant_profile(vec: StructureVector) -> InvariantProfile:
    chain = power_chain(vec)
    try:
        ncls = chain_class(chain)
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
        square_dim=len(chain[0]),
        annihilator_dim=annihilator_dimension(vec),
        derivation_dim=derivation_dimension(vec),
        square_on_own_line=in_m_star_star(vec),
    )
