"""Exact row reduction over a field, enough for rank and nullspace work.

One Gauss-Jordan kernel runs on rows of reps through the domain's hooks (an
element of F(d) is its own rep); :func:`row_reduce` wraps it for elements.
"""

from __future__ import annotations

from .fields import Field


def _gauss_jordan(m: list, F) -> list:
    """Gauss-Jordan in place on rows of reps of ``F``; returns the pivots.

    A pivot row is zero left of its pivot, so scaling it and clearing its
    column from the other rows touch only the columns where it is nonzero.
    """
    add, mul, neg, is_zero = F._add, F._mul, F._neg, F._is_zero
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        for pivot in range(r, len(m)):
            if not is_zero(m[pivot][c]):
                break
        else:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row = m[r]
        inv = F._inv(row[c])
        row[c] = F._one_rep
        cols = [j for j in range(c + 1, ncols) if not is_zero(row[j])]
        for j in cols:
            row[j] = mul(row[j], inv)
        for i, other in enumerate(m):
            f = other[c]
            if i != r and not is_zero(f):
                f = neg(f)
                other[c] = F._zero_rep
                for j in cols:
                    other[j] = add(other[j], mul(f, row[j]))
        pivots.append(c)
        if r + 1 == len(m):
            break
    return pivots


def row_reduce(rows: list) -> tuple:
    """Gauss-Jordan over a field.  Returns (rref rows, pivot column list).

    The input is a list of lists of elements of one field and is not
    modified; the rref rows hold elements of that field, which is read off
    an entry (``.field``, or ``.parent`` in F(d)).
    """
    if not rows or not rows[0]:
        return [list(r) for r in rows], []
    x = rows[0][0]
    F = x.field if hasattr(x, "field") else x.parent
    m = [[v.rep for v in r] for r in rows]
    pivots = _gauss_jordan(m, F)
    return [list(map(F._elem, r)) for r in m], pivots


def nullspace_basis(rows: list, field: Field, ncols: int) -> list:
    """Basis vectors (lists of elements) of the right nullspace of rows of
    reps of ``field``, which are reduced in place."""
    pivots = _gauss_jordan(rows, field)
    basis = []
    for j in range(ncols):
        if j not in pivots:
            v = [field.zero()] * ncols
            v[j] = field.one()
            for r, c in enumerate(pivots):
                v[c] = field._elem(field._neg(rows[r][j]))
            basis.append(v)
    return basis
