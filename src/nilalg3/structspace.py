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
``_zero_rep``; a polynomial or an element of F(d) is its own rep).  The
action needs inverses, so over a polynomial ring use :func:`act_cleared`,
which multiplies through by det(g) and stays division-free.
"""

from __future__ import annotations

from .fields import FieldElement, signed_sum


class StructureError(ValueError):
    """Bad indices, mismatched parents, or a singular basis-change matrix."""


def _flat(i: int, j: int, k: int) -> int:
    if not (1 <= i <= 3 and 1 <= j <= 3 and 1 <= k <= 3):
        raise StructureError(f"indices out of range: {(i, j, k)}")
    return 9 * (i - 1) + 3 * (j - 1) + (k - 1)


def _unflat(n: int) -> tuple:
    return n // 9 + 1, (n // 3) % 3 + 1, n % 3 + 1


def _rep_terms(vec) -> list:
    """(i, j, k, rep) per nonzero term."""
    return [(i, j, k, c.rep) for i, j, k, c in vec.terms()]


class StructureVector:
    """The 27 structure coefficients of one bilinear product on k^3.

    The nonzero terms are found once, on first use, and kept in a slot that
    equality, hashing and the public attributes never look at.
    """

    __slots__ = ("parent", "coeffs", "_terms")

    def __init__(self, parent, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 27:
            raise StructureError("a structure vector has exactly 27 coefficients")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("StructureVector is immutable")

    @classmethod
    def zero(cls, parent) -> "StructureVector":
        z = parent.zero()
        return cls(parent, (z,) * 27)

    @classmethod
    def from_terms(cls, parent, terms) -> "StructureVector":
        """Build from an iterable of (i, j, k, coefficient); entries add up."""
        out = [parent.zero()] * 27
        for i, j, k, c in terms:
            c = parent.element(c)
            n = _flat(i, j, k)
            out[n] = out[n] + c
        return cls(parent, out)

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.coeffs[_flat(i, j, k)]

    def terms(self) -> tuple:
        """(i, j, k, coefficient) for each nonzero coefficient, in index order."""
        try:
            return self._terms
        except AttributeError:
            out = tuple((*_unflat(n), c) for n, c in enumerate(self.coeffs)
                        if not c.is_zero())
            object.__setattr__(self, "_terms", out)
            return out

    def is_zero(self) -> bool:
        return not self.terms()

    def _same_parent(self, other):
        if not isinstance(other, StructureVector):
            raise StructureError("expected a structure vector")
        if other.parent != self.parent:
            raise StructureError("structure vectors over different scalars")
        return other

    def __add__(self, other):
        o = self._same_parent(other)
        return StructureVector(self.parent,
                               tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    def __sub__(self, other):
        o = self._same_parent(other)
        return StructureVector(self.parent,
                               tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return StructureVector(self.parent, tuple(-a for a in self.coeffs))

    def scale(self, c) -> "StructureVector":
        c = self.parent.element(c)
        return StructureVector(self.parent, tuple(c * a for a in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, StructureVector):
            return NotImplemented
        return self.parent == other.parent and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.parent, self.coeffs))

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
        for i, j, k, c in _rep_terms(self):
            xi, yj = x[i - 1], y[j - 1]
            if xi is not None and yj is not None:
                out[k - 1] = add(out[k - 1], mul(mul(c, xi), yj))
        return list(map(F._elem, out))

    def lift(self, new_parent) -> "StructureVector":
        """Reinterpret the coefficients inside a larger scalar domain."""
        return StructureVector(new_parent,
                               tuple(new_parent.element(c) for c in self.coeffs))

    def map_scalars(self, fn, new_parent) -> "StructureVector":
        return StructureVector(new_parent, tuple(fn(c) for c in self.coeffs))

    def __str__(self):
        return signed_sum(((_render_scalar(c), f"{i}{j}{k}")
                           for i, j, k, c in self.terms()), "*", _bracket)

    __repr__ = __str__


def _render_scalar(c) -> str:
    return repr(c) if isinstance(c, FieldElement) else str(c)


def _bracket(text: str) -> str:
    """Parenthesize a coefficient that is a sum or a fraction."""
    if any(ch in text[1:] for ch in "+-") or "/" in text:
        return f"({text})"
    return text


def basis_vector(parent, i: int, j: int, k: int) -> StructureVector:
    """The tuple with a single 1 at position (i, j, k): e_i e_j = e_k."""
    out = [parent.zero()] * 27
    out[_flat(i, j, k)] = parent.one()
    return StructureVector(parent, out)


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
        a, b, c, d, e, f, g, h, i = self.entries
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def adjugate(self) -> "Matrix3":
        a, b, c, d, e, f, g, h, i = self.entries
        return Matrix3(self.parent, (
            e * i - f * h, c * h - b * i, b * f - c * e,
            f * g - d * i, a * i - c * g, c * d - a * f,
            d * h - e * g, b * g - a * h, a * e - b * d,
        ))

    def adjugate_and_det(self) -> tuple:
        """(adj(g), det(g)), the determinant read off the adjugate: the first
        row of g times the first column of adj(g), three products."""
        adj = self.adjugate()
        a, b, c = self.entries[:3]
        x = adj.entries
        return adj, a * x[0] + b * x[3] + c * x[6]

    def inverse(self) -> "Matrix3":
        adj, d = self.adjugate_and_det()
        if d.is_zero():
            raise StructureError("matrix is singular")
        if not hasattr(d, "inverse"):
            raise StructureError(
                "entries do not support division; use the adjugate route")
        di = d.inverse()
        return Matrix3(self.parent, tuple(di * v for v in adj.entries))

    def __matmul__(self, other):
        if not isinstance(other, Matrix3) or other.parent != self.parent:
            raise StructureError("matrix product needs matching scalar domains")
        a, b = self.entries, other.entries
        out = []
        for i in range(3):
            for j in range(3):
                s = self.parent.zero()
                for k in range(3):
                    s = s + a[3 * i + k] * b[3 * k + j]
                out.append(s)
        return Matrix3(self.parent, out)

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
        rows = ["[" + ", ".join(_render_scalar(v) for v in r) + "]"
                for r in self.rows()]
        return "[" + ", ".join(rows) + "]"


def _act_with(vec: StructureVector, g: Matrix3, h: Matrix3) -> StructureVector:
    """Common core of act/act_cleared: h plays the role of g^-1 or adj(g).

    New coefficient (a, b, c) of the moved structure:

        sum over (i, j, k) of  c[i,j,k] * g[i,a] * g[j,b] * h[c,k] .
    """
    parent = vec.parent
    add, mul, is_zero = parent._add, parent._mul, parent._is_zero
    ge, he = ([v.rep for v in m.entries] for m in (g, h))
    rows = [[(a, v) for a, v in enumerate(ge[3 * i:3 * i + 3]) if not is_zero(v)]
            for i in range(3)]
    cols = [[(c, v) for c, v in enumerate(he[k::3]) if not is_zero(v)]
            for k in range(3)]
    out = [parent._zero_rep] * 27
    for i, j, k, coef in _rep_terms(vec):   # i, j, k are 1-based
        col = cols[k - 1]
        for a, gia in rows[i - 1]:
            ca = mul(coef, gia)
            for b, gjb in rows[j - 1]:
                cab = mul(ca, gjb)
                for c, hck in col:
                    n = 9 * a + 3 * b + c
                    out[n] = add(out[n], mul(cab, hck))
    return StructureVector(parent, map(parent._elem, out))


def act(vec: StructureVector, g: Matrix3) -> StructureVector:
    """Right action of the basis change g on a structure vector.

    Column j of g holds the coordinates of the new basis vector v_j in the
    old basis; the result is the structure tuple of the same product written
    in the new basis.  The vector is lifted into g's scalar domain when the
    domains differ (a plain field vector moved by a matrix of rational
    functions in t, for instance).
    """
    if vec.parent != g.parent:
        vec = vec.lift(g.parent)
    return _act_with(vec, g, g.inverse())


def act_cleared(vec: StructureVector, g: Matrix3) -> tuple:
    """Division-free variant: returns (det(g) * (vec acted by g), det(g)).

    Because adj(g) = det(g) * g^-1, replacing the inverse by the adjugate
    multiplies every coefficient of the result by det(g).  This keeps all
    arithmetic inside a polynomial ring, which is what the identity checks
    behind the non-degeneration lemmas need.
    """
    if vec.parent != g.parent:
        vec = vec.lift(g.parent)
    adj, det = g.adjugate_and_det()
    return _act_with(vec, g, adj), det
