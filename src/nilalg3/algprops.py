"""Invariants of a 3-dimensional algebra given by its structure vector.

Everything here is exact linear algebra over the scalar domain of the
vector, computed from its stored nonzero terms c[i,j,k] only (``reps``),
through the domain's hooks; only the bases that are returned are wrapped
as elements.  Associativity is the structure-constant identity

    sum_m c[i,j,m] c[m,k,l]  =  sum_m c[j,k,m] c[i,m,l]    (all i, j, k, l),

the coefficients of (e_i e_j) e_k and e_i (e_j e_k) on e_l, with each side
summed over the pairs of nonzero terms that meet in m, and compared one
first index i at a time, so a non-associative vector is refused at the
first i that differs.  The power chain (the square, the cube, ...) gives
both the nilpotency class and the square.  The verdict and the chain are
computed once per vector, on first use, and kept as reps in the vector's
private ``_kept`` slot; every public function reads them there and wraps
fresh elements.  The annihilator and the derivation algebra are nullspaces
of rows read off the nonzero terms, reduced by the rep kernel of
:mod:`linalg`; the derivation rows are placed through a table of cells per
index triple.  Also here: commutativity, and membership in the closed set
M** of structures whose generic square stays on the line of its argument.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import linalg
from .structspace import _INDICES, StructureVector


class NotNilpotentError(ValueError):
    """The power chain of the algebra stabilises at a nonzero subspace."""


def _sums(pairs, add) -> dict:
    out = {}
    for key, v in pairs:
        s = out.get(key)
        out[key] = v if s is None else add(s, v)
    return out


def _shared(vec: StructureVector, part: int, kernel):
    """Part ``part`` of what vec keeps in its ``_kept`` slot (0: the
    associativity verdict, 1: the power chain as rows of reps), computed by
    ``kernel`` on first use."""
    kept = vec._kept
    if kept is None:
        kept = [None, None]
        object.__setattr__(vec, "_kept", kept)
    value = kept[part]
    if value is None:
        value = kept[part] = kernel(vec)
    return value


def is_associative(vec: StructureVector) -> bool:
    return _shared(vec, 0, _associative)


def _associative(vec: StructureVector) -> bool:
    """The associativity identity, one first index i at a time: the 27
    slots 9j + 3k + l - 13 of (e_i e_j) e_k, from c[i,j,m] c[m,k,l], against
    those of e_i (e_j e_k), from c[i,m,l] c[j,k,m]; False at the first i
    whose slots differ."""
    add, mul, zero = vec.parent._add, vec.parent._mul, vec.parent._zero_rep
    # c[m,k,l] at offset 3k + l - 13 by its first index m, c[j,k,m] at
    # offset 9j + 3k by its last index m; each term c[i,x,y] of group i is
    # one first factor on each side, with its base offset and its partners
    by_first, by_last = ([], [], []), ([], [], [])
    left, right = ([], [], []), ([], [], [])
    for i, j, k, c in vec.reps:
        by_first[i - 1].append((3 * j + k - 13, c))
        by_last[k - 1].append((9 * i + 3 * j, c))
        left[i - 1].append((9 * j, by_first[k - 1], c))
        right[i - 1].append((k - 13, by_last[j - 1], c))

    def side(terms):        # None for a slot no product reached
        out = [None] * 27
        for base, partners, a in terms:
            for off, b in partners:
                n = base + off
                s = out[n]
                out[n] = mul(a, b) if s is None else add(s, mul(a, b))
        return out

    def same(lt, rt):       # a None slot equals a sum that cancelled
        x, y = side(lt), side(rt)
        return x == y or [zero if s is None else s for s in x] == \
            [zero if s is None else s for s in y]

    return all(map(same, left, right))


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
    vector; this is entry 0 of the power chain.
    """
    F = vec.parent
    return [list(map(F._elem, u)) for u in _shared(vec, 1, _chain)[0]]


def power_chain(vec: StructureVector) -> list:
    """Echelon bases of the subspaces spanned by products of 2, 3, ... factors.

    Entry 0 is a basis of the span of all two-factor products, entry 1 of the
    three-factor products, and so on; computation stops once the subspace
    hits zero or the products of five factors were formed.  Each is spanned
    by the u e_j, (u e_j)_k = sum_i u_i c[i,j,k], for u in the one before.
    """
    F = vec.parent
    return [[list(map(F._elem, u)) for u in basis]
            for basis in _shared(vec, 1, _chain)]


def _chain(vec: StructureVector) -> list:
    """:func:`power_chain` as rows of reps."""
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
    return chain


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
    return chain_class(_shared(vec, 1, _chain))


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


# the nine (equation, column, negated) cells of c[a,b,k], at 9a + 3b + k - 13;
# equation (x, y, z) is row 9x + 3y + z - 13
_DERIVATION_CELLS = tuple(
    tuple(cell for n in (1, 2, 3) for cell in (
        (9 * a + 3 * b + n - 13, 3 * n + k - 4, False),
        (9 * n + 3 * b + k - 13, 3 * a + n - 4, True),
        (9 * a + 3 * n + k - 13, 3 * b + n - 4, True)))
    for a, b, k in _INDICES)


def derivation_dimension(vec: StructureVector) -> int:
    """Dimension of the space of derivations d(xy) = d(x)y + x d(y).

    The unknown is the matrix D with d(e_k) = sum_m D[m,k] e_m, flattened
    row-major into nine columns; each basis triple (i, j, m) contributes the
    linear equation

        sum_k c[i,j,k] D[m,k] - sum_p c[p,j,m] D[p,i] - sum_p c[i,p,m] D[p,j] = 0,

    so a nonzero c[a,b,k] enters the first sum of the equations (a, b, n),
    the second of (n, b, k) and the third of (a, n, k), for n = 1, 2, 3:
    the cells of ``_DERIVATION_CELLS``.
    """
    F = vec.parent
    add, neg, zero = F._add, F._neg, F._zero_rep
    rows = [None] * 27
    for a, b, k, c in vec.reps:
        minus = neg(c)
        for eq, col, negated in _DERIVATION_CELLS[9 * a + 3 * b + k - 13]:
            row = rows[eq]
            if row is None:
                row = rows[eq] = [zero] * 9
            row[col] = add(row[col], minus if negated else c)
    rows = [row for row in rows if row is not None]
    return 9 - len(linalg._gauss_jordan(rows, F))


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
    chain = _shared(vec, 1, _chain)
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
