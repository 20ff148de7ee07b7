"""Exact row reduction over a field, enough for rank and nullspace work."""

from __future__ import annotations

from .fields import Field


def row_reduce(rows: list) -> tuple:
    """Gauss-Jordan over a field.  Returns (rref rows, pivot column list).

    The input is a list of lists of FieldElements and is not modified.  A
    pivot row is zero left of its pivot, so scaling it and clearing its
    column from the other rows touch only the columns where it is nonzero.
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
        row = m[r]
        inv = row[c].inverse()
        cols = [j for j in range(c, ncols) if not row[j].is_zero()]
        for j in cols:
            row[j] = row[j] * inv
        for i, other in enumerate(m):
            f = other[c]
            if i != r and not f.is_zero():
                for j in cols:
                    other[j] = other[j] - f * row[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace_basis(rows: list, field: Field, ncols: int) -> list:
    """Basis vectors (lists of FieldElements) of the right nullspace."""
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
