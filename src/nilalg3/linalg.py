"""Exact row reduction over a field, enough for rank and nullspace work."""

from __future__ import annotations

from .fields import Field, FieldElement


def row_reduce(rows: list) -> tuple:
    """Gauss-Jordan over a field.  Returns (rref rows, pivot column list).

    The input is a list of lists of FieldElements and is not modified.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: list) -> int:
    return len(row_reduce(rows)[1])


def nullity(rows: list, ncols: int | None = None) -> int:
    if not rows:
        if ncols is None:
            raise ValueError("nullity of an empty system needs ncols")
        return ncols
    return len(rows[0]) - rank(rows)


def nullspace_basis(rows: list, field: Field, ncols: int) -> list:
    """Basis vectors (lists of FieldElements) of the right nullspace."""
    if not rows:
        basis = []
        for j in range(ncols):
            v = [field.zero()] * ncols
            v[j] = field.one()
            basis.append(v)
        return basis
    rref, pivots = row_reduce(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [field.zero()] * ncols
        v[j] = field.one()
        for r, c in enumerate(pivots):
            v[c] = -rref[r][j]
        basis.append(v)
    return basis
