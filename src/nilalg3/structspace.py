"""Structure vectors for 3-dimensional algebras and the basis-change action.

An algebra structure on a 3-dimensional space with basis e1, e2, e3 is the
27-tuple of coefficients c[i,j,k] in

    e_i * e_j  =  sum_k  c[i,j,k] e_k .

A basis-change matrix g (columns are the new basis vectors, expressed in the
old one) acts on such a tuple on the right; two tuples give isomorphic
algebras exactly when some invertible g carries one to the other.

Scalars may come from a field, a polynomial ring, or a univariate rational
function field: any parent with element/zero/one and the rep hooks that the
action and the product run on (``_elem``, ``_add``, ``_mul``, ``_is_zero``,
``_zero_rep``; a polynomial or an element of F(d) is its own rep).  A vector
stores only the reps of its nonzero coefficients, which the kernels read.  The
3x3 matrices run on the same hooks: the product, det, adjugate and inverse
read each entry's rep once, skip every product with a zero factor and wrap
each result once, and det(g) is always the first row of g times the first
column of adj(g).  The action needs inverses, so over a polynomial ring use
:func:`act_cleared`, which multiplies through by det(g) and stays
division-free.  The catalogue's structures are kept per field object, as
reps (``catalogue.structure_of``), and handed out as new vectors.
"""

from __future__ import annotations

from .fields import _bracket_sum, signed_sum


class StructureError(ValueError):
    """Bad indices, mismatched parents, or a singular basis-change matrix."""


def _flat(i: int, j: int, k: int) -> int:
    if not (1 <= i <= 3 and 1 <= j <= 3 and 1 <= k <= 3):
        raise StructureError(f"indices out of range: {(i, j, k)}")
    return 9 * (i - 1) + 3 * (j - 1) + (k - 1)


_INDICES = tuple((n // 9 + 1, n // 3 % 3 + 1, n % 3 + 1) for n in range(27))


class StructureVector:
    """The 27 structure coefficients of one bilinear product on k^3.

    Stored as ``reps``: (i, j, k, rep) for each nonzero coefficient, in
    index order, which is what every kernel reads.  ``coeffs``, ``terms()``
    and ``[i, j, k]`` are read-only views on elements.  One private slot,
    ``_kept``, is None until :mod:`algprops` keeps there what it derived
    from ``reps`` (the associativity verdict and the power chain, as reps),
    so a second question about the same vector does no work twice; it is
    no part of ``==`` or the hash.
    """

    __slots__ = ("parent", "reps", "_kept")

    def __init__(self, parent, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 27:
            raise StructureError("a structure vector has exactly 27 coefficients")
        _from_reps(parent, [parent.element(c).rep for c in coeffs], self)

    def __setattr__(self, name, value):
        raise AttributeError("StructureVector is immutable")

    @classmethod
    def zero(cls, parent) -> "StructureVector":
        return cls.from_terms(parent, ())

    @classmethod
    def from_terms(cls, parent, terms) -> "StructureVector":
        """Build from an iterable of (i, j, k, coefficient); entries add up."""
        elem, add = parent.element, parent._add
        out = [parent._zero_rep] * 27
        for i, j, k, c in terms:
            n = _flat(i, j, k)
            out[n] = add(out[n], elem(c).rep)
        return _from_reps(parent, out)

    @property
    def coeffs(self) -> tuple:
        """All 27 coefficients, in index order."""
        return tuple(map(self.__getitem__, _INDICES))

    def __getitem__(self, ijk):
        i, j, k = ijk
        _flat(i, j, k)
        P = self.parent
        for a, b, c, r in self.reps:
            if a == i and b == j and c == k:
                return P._elem(r)
        return P._elem(P._zero_rep)

    def terms(self) -> tuple:
        """(i, j, k, coefficient) for each nonzero coefficient, in index order."""
        elem = self.parent._elem
        return tuple((i, j, k, elem(r)) for i, j, k, r in self.reps)

    def is_zero(self) -> bool:
        return not self.reps

    def _same_parent(self, other):
        if not isinstance(other, StructureVector):
            raise StructureError("expected a structure vector")
        if other.parent != self.parent:
            raise StructureError("structure vectors over different scalars")
        return other

    def __add__(self, other):
        return self.from_terms(self.parent,
                               self.terms() + self._same_parent(other).terms())

    def __sub__(self, other):
        return self + -self._same_parent(other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "StructureVector":
        c = self.parent.element(c)
        return self.from_terms(self.parent,
                               [(i, j, k, c * a) for i, j, k, a in self.terms()])

    def __eq__(self, other):
        if not isinstance(other, StructureVector):
            return NotImplemented
        return self.parent == other.parent and self.reps == other.reps

    def __hash__(self):
        return hash((self.parent, self.reps))

    def product(self, x, y) -> list:
        """Coordinates of x * y for coordinate triples x and y.

        A sum over the nonzero terms c[i,j,k] x_i y_j, skipping those whose
        x_i or y_j is zero, on reps.
        """
        F = self.parent
        add, mul, is_zero = F._add, F._mul, F._is_zero
        x, y = ([None if is_zero(r) else r for r in
                 (F.element(v).rep for v in u)] for u in (x, y))
        out = [F._zero_rep] * 3
        for i, j, k, c in self.reps:
            xi, yj = x[i - 1], y[j - 1]
            if xi is not None and yj is not None:
                out[k - 1] = add(out[k - 1], mul(mul(c, xi), yj))
        return list(map(F._elem, out))

    def lift(self, new_parent) -> "StructureVector":
        """Reinterpret the coefficients inside a larger scalar domain."""
        return StructureVector.from_terms(new_parent, self.terms())

    def map_scalars(self, fn, new_parent) -> "StructureVector":
        return StructureVector(new_parent, map(fn, self.coeffs))

    def __str__(self):
        return signed_sum(((repr(c), f"{i}{j}{k}")
                           for i, j, k, c in self.terms()), "*", _bracket)

    __repr__ = __str__


def _from_reps(parent, reps, vec=None) -> StructureVector:
    """The vector (``vec``, or a new one) whose 27 coefficients have the reps
    ``reps``, in index order; zero reps are dropped."""
    is_zero = parent._is_zero
    return _stored(parent, tuple((*ijk, r) for ijk, r in zip(_INDICES, reps)
                                 if not is_zero(r)), vec)


def _stored(parent, terms: tuple, vec=None) -> StructureVector:
    """The vector (``vec``, or a new one) over ``parent`` that stores
    ``terms`` as its ``reps``, with nothing kept yet."""
    vec = object.__new__(StructureVector) if vec is None else vec
    object.__setattr__(vec, "parent", parent)
    object.__setattr__(vec, "reps", terms)
    object.__setattr__(vec, "_kept", None)
    return vec


def _bracket(text: str) -> str:
    """Parenthesize a coefficient that is a sum (``fields._bracket_sum``) or
    a fraction."""
    return f"({text})" if "/" in text else _bracket_sum(text)


def basis_vector(parent, i: int, j: int, k: int) -> StructureVector:
    """The tuple with a single 1 at position (i, j, k): e_i e_j = e_k."""
    return StructureVector.from_terms(parent, [(i, j, k, parent.one())])


class Matrix3:
    """A 3x3 matrix over the same scalar domains as StructureVector."""

    __slots__ = ("parent", "entries")

    def __init__(self, parent, entries):
        entries = tuple(entries)
        if len(entries) != 9:
            raise StructureError("a 3x3 matrix has nine entries")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix3 is immutable")

    @classmethod
    def from_rows(cls, parent, rows) -> "Matrix3":
        rows = list(rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise StructureError("expected three rows of three entries")
        return cls(parent, tuple(parent.element(v) for row in rows for v in row))

    @classmethod
    def from_columns(cls, parent, cols) -> "Matrix3":
        cols = [list(c) for c in cols]
        if len(cols) != 3 or any(len(c) != 3 for c in cols):
            raise StructureError("expected three columns of three entries")
        rows = [[cols[j][i] for j in range(3)] for i in range(3)]
        return cls.from_rows(parent, rows)

    @classmethod
    def identity(cls, parent) -> "Matrix3":
        z, o = parent.zero(), parent.one()
        return cls(parent, (o, z, z, z, o, z, z, z, o))

    def entry(self, i: int, j: int):
        """1-based access: row i, column j."""
        if not (1 <= i <= 3 and 1 <= j <= 3):
            raise StructureError(f"entry index out of range: {(i, j)}")
        return self.entries[3 * (i - 1) + (j - 1)]

    def rows(self) -> list:
        return [list(self.entries[3 * r:3 * r + 3]) for r in range(3)]

    def det(self):
        P, g = self.parent, _sparse(self)
        return _value(P, _det(P, g, _adjugate_column(P, g, 0)))

    def adjugate(self) -> "Matrix3":
        P, g = self.parent, _sparse(self)
        return _matrix(P, _adjugate_rows(P, g))

    def adjugate_and_det(self) -> tuple:
        """(adj(g), det(g)), the determinant read off the adjugate as det()
        reads it: three products."""
        P, g = self.parent, _sparse(self)
        adj = _adjugate_rows(P, g)
        return _matrix(P, adj), _value(P, _det(P, g, adj[::3]))

    def inverse(self) -> "Matrix3":
        P, g = self.parent, _sparse(self)
        adj = _adjugate_rows(P, g)
        d = _det(P, g, adj[::3])
        if d is None or P._is_zero(d):
            raise StructureError("matrix is singular")
        if P._elem(d)._no_division is not None:
            raise StructureError(
                "entries do not support division; use the adjugate route")
        di, mul = P._inv(d), P._mul
        return _matrix(P, [None if x is None else mul(di, x) for x in adj])

    def __matmul__(self, other):
        P = self.parent
        if not isinstance(other, Matrix3) or other.parent is not P and other.parent != P:
            raise StructureError("matrix product needs matching scalar domains")
        a, b = _sparse(self), _sparse(other)
        columns = [b[j::3] for j in range(3)]
        return _matrix(P, [_dot(P, a[i:i + 3], column)
                           for i in (0, 3, 6) for column in columns])

    def apply(self, v) -> list:
        """Matrix times coordinate column."""
        v = [self.parent.element(x) for x in v]
        g = self.entries
        return [sum((g[3 * i + j] * v[j] for j in range(3)), self.parent.zero())
                for i in range(3)]

    def map_scalars(self, fn, new_parent) -> "Matrix3":
        return Matrix3(new_parent, tuple(fn(v) for v in self.entries))

    def lift(self, new_parent) -> "Matrix3":
        return Matrix3(new_parent, tuple(new_parent.element(v) for v in self.entries))

    def __eq__(self, other):
        if not isinstance(other, Matrix3):
            return NotImplemented
        return self.parent == other.parent and self.entries == other.entries

    def __hash__(self):
        return hash((self.parent, self.entries))

    def __repr__(self):
        rows = ["[" + ", ".join(map(repr, r)) + "]"
                for r in self.rows()]
        return "[" + ", ".join(rows) + "]"


def _sparse(m: Matrix3) -> list:
    """The reps of m's nine entries, row by row, None for each zero: the
    matrix kernels skip every product with a zero factor."""
    is_zero = m.parent._is_zero
    return [None if is_zero(r) else r for r in (v.rep for v in m.entries)]


def _dot(P, xs, ys):
    """The sum of x y over pairs of sparse reps; None when every pair has a
    zero, so a sum of products that cancel is a zero rep, not None."""
    add, mul = P._add, P._mul
    s = None
    for x, y in zip(xs, ys):
        if x is not None and y is not None:
            s = mul(x, y) if s is None else add(s, mul(x, y))
    return s


def _adjugate_column(P, g, s) -> list:
    """Column s of adj(g) on sparse reps: the cross product of rows s + 1
    and s + 2 of g, entry r being p[r+1] q[r+2] - p[r+2] q[r+1]."""
    add, mul, neg = P._add, P._mul, P._neg
    o, w = 3 * ((s + 1) % 3), 3 * ((s + 2) % 3)
    p, q = g[o:o + 3], g[w:w + 3]
    column = []
    for x, y in ((1, 2), (2, 0), (0, 1)):
        a, b, c, d = p[x], q[y], p[y], q[x]
        r = None if a is None or b is None else mul(a, b)
        if c is not None and d is not None:
            r = neg(mul(c, d)) if r is None else add(r, neg(mul(c, d)))
        column.append(r)
    return column


def _det(P, g, column):
    """det(g) on sparse reps, given the first column of adj(g): the first
    row of g times that column, the one determinant formula."""
    return _dot(P, g[:3], column)


def _adjugate_rows(P, g) -> list:
    """adj(g) on sparse reps, row by row."""
    columns = [_adjugate_column(P, g, s) for s in range(3)]
    return [columns[s][r] for r in range(3) for s in range(3)]


def _value(P, r):
    """The value of a sparse rep: None is zero."""
    return P._elem(P._zero_rep if r is None else r)


def _matrix(P, reps) -> Matrix3:
    """The matrix over P of nine sparse reps, each wrapped once."""
    zero = P._zero_rep
    elem = P._elem
    return Matrix3(P, [elem(zero if r is None else r) for r in reps])


def _act_with(vec: StructureVector, g: Matrix3, h: Matrix3) -> StructureVector:
    """Common core of act/act_cleared: h plays the role of g^-1 or adj(g).

    New coefficient (a, b, c) of the moved structure:

        sum over (i, j, k) of  c[i,j,k] * g[i,a] * g[j,b] * h[c,k] .

    It reads only columns a and b of g and row c of h, and zero entries are
    skipped, so a caller that needs a few coefficients may pass g zeroed
    outside the columns and h outside the rows it reads.
    """
    if vec.parent != g.parent:
        vec = vec.lift(g.parent)
    parent = vec.parent
    add, mul, is_zero = parent._add, parent._mul, parent._is_zero
    ge, he = ([v.rep for v in m.entries] for m in (g, h))
    rows = [[(a, v) for a, v in enumerate(ge[3 * i:3 * i + 3]) if not is_zero(v)]
            for i in range(3)]
    cols = [[(c, v) for c, v in enumerate(he[k::3]) if not is_zero(v)]
            for k in range(3)]
    out = [parent._zero_rep] * 27
    for i, j, k, coef in vec.reps:      # i, j, k are 1-based
        col = cols[k - 1]
        for a, gia in rows[i - 1]:
            ca = mul(coef, gia)
            for b, gjb in rows[j - 1]:
                cab = mul(ca, gjb)
                for c, hck in col:
                    n = 9 * a + 3 * b + c
                    out[n] = add(out[n], mul(cab, hck))
    return _from_reps(parent, out)


def act(vec: StructureVector, g: Matrix3) -> StructureVector:
    """Right action of the basis change g on a structure vector.

    Column j of g holds the coordinates of the new basis vector v_j in the
    old basis; the result is the structure tuple of the same product written
    in the new basis.  The vector is lifted into g's scalar domain when the
    domains differ (a plain field vector moved by a matrix of rational
    functions in t, for instance).
    """
    return _act_with(vec, g, g.inverse())


def act_cleared(vec: StructureVector, g: Matrix3) -> tuple:
    """Division-free variant: returns (det(g) * (vec acted by g), det(g)).

    Because adj(g) = det(g) * g^-1, replacing the inverse by the adjugate
    multiplies every coefficient of the result by det(g).  This keeps all
    arithmetic inside a polynomial ring, which is what the identity checks
    behind the non-degeneration lemmas need.
    """
    adj, det = g.adjugate_and_det()
    return _act_with(vec, g, adj), det
