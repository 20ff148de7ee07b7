"""Sparse multivariate polynomials and univariate rational functions.

Coefficients live in any field from the tower.  A ``MultiPoly`` holds the
reps of its nonzero coefficients and combines them through its field's
hooks (``_add``, ``_mul``, ``_neg``, ``_is_zero``), like every other exact
kernel; ``terms``, the map to elements, is a view built on demand.  A
polynomial, like an element of F(d), is its own ``rep``.  Multivariate
division is deliberately absent: identity checks clear denominators first
and then test for the zero polynomial.  Only the univariate case (curves in
t) carries a fraction field, with gcd reduction and a monic denominator as
the canonical form.  A monic constant is 1, so a polynomial in t is its
numerator over the one polynomial 1 that its ``RationalFunctionField``
holds, and ``+``, ``-`` and ``*`` of two such entries of F[t] are the
numerators' sum or product over that shared 1, with no cross-products and
no gcd; only proper fractions take the general route.
The gcd and the division behind it are the polynomial kernel of
``fields`` (``_pgcd``, ``_pdivmod``), run on the coefficients' reps.
``PolyRing``, like F(t), has the rep hooks as Python's operators, for the
kernels of ``structspace``.  The derived operators (``-``, ``/``, ``**``)
and the coercion rule come from ``fields``: F[t] lies below F(t) and the
coefficient field below F[t], and a refusal is a ``PolyRingError``.  Curve
limits are checked over F[t] by ``degeneration.curve_limit``, which reads
the reps of the entries' numerators and denominators and leaves the
arithmetic to its own kernel; ``limit_at_zero`` is the rational-function
route that cross-checks it.
"""

from __future__ import annotations

import operator

from .fields import (Field, FieldElement, ScalarOps, _bracket_sum, _image,
                     _pdivmod, _pgcd, _source, signed_sum)


class PolyRingError(ArithmeticError):
    """Mixed registries, bad variable names, and similar structural misuse."""


class PoleAtZero(ArithmeticError):
    """The rational function has a pole at t = 0."""


class PolyRing:
    """Polynomials in a fixed ordered tuple of variables over one field."""

    def __init__(self, field: Field, variables):
        self.field = self._below = field
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise PolyRingError("duplicate variable names")

    def var(self, name: str) -> "MultiPoly":
        if name not in self.vars:
            raise PolyRingError(f"unknown variable {name!r}")
        exp = tuple(1 if v == name else 0 for v in self.vars)
        return MultiPoly(self, {exp: self.field._one_rep})

    def gens(self):
        return tuple(self.var(v) for v in self.vars)

    def element(self, v) -> "MultiPoly":
        """v's image in this ring by the one coercion rule (``fields._image``)."""
        if v.__class__ is MultiPoly and v.ring is self:
            return v        # a kernel's own rep, through _elem
        x = _image(self, v)
        return self._refuse(v) if x is None else x

    const = from_int = element

    def _refuse(self, v):
        """The polynomial layer's one refusal of a value with no image here."""
        raise PolyRingError(f"no image of an element of {_source(v)} in {self!r}")

    def _up(self, c) -> "MultiPoly":
        return MultiPoly(self, {(0,) * len(self.vars): c.rep})

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self._up(self.field.one())

    # the rep hooks of structspace's kernels: a polynomial is its own rep
    _elem = element
    _add, _mul, _neg = operator.add, operator.mul, operator.neg
    _is_zero, _zero_rep = operator.methodcaller("is_zero"), property(zero)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.field == self.field
                and other.vars == self.vars)

    def __hash__(self):
        return hash((self.field, self.vars))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.vars)}]"


class MultiPoly(ScalarOps):
    """A sparse polynomial: ``reps`` maps exponent tuples to the reps of the
    nonzero coefficients, and the constructor drops zero reps.  ``terms``
    is a read-only view, exponent tuples to elements, built on each read."""

    __slots__ = ("ring", "reps")
    _no_division = PolyRingError
    rep = property(lambda self: self)      # a polynomial is its own rep

    def __init__(self, ring: PolyRing, reps: dict):
        self.ring = ring
        is_zero = ring.field._is_zero
        self.reps = {e: c for e, c in reps.items() if not is_zero(c)}

    @property
    def terms(self) -> dict:
        elem = self.ring.field._elem
        return {e: elem(c) for e, c in self.reps.items()}

    def __add__(self, other):
        R = self.ring
        if other.__class__ is not MultiPoly or (
                other.ring is not R and other.ring != R):
            return self._mixed(other, operator.add)
        add = R.field._add
        reps = dict(self.reps)
        for e, c in other.reps.items():
            s = reps.get(e)
            reps[e] = c if s is None else add(s, c)
        return MultiPoly(R, reps)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field._neg
        return MultiPoly(self.ring, {e: neg(c) for e, c in self.reps.items()})

    def __mul__(self, other):
        R = self.ring
        if other.__class__ is not MultiPoly or (
                other.ring is not R and other.ring != R):
            return self._mixed(other, operator.mul)
        add, mul = R.field._add, R.field._mul
        reps: dict = {}
        for e1, c1 in self.reps.items():
            for e2, c2 in other.reps.items():
                e = tuple(map(operator.add, e1, e2))
                c = mul(c1, c2)
                s = reps.get(e)
                reps[e] = c if s is None else add(s, c)
        return MultiPoly(R, reps)

    __rmul__ = __mul__

    def _one(self) -> "MultiPoly":
        return self.ring.one()

    def __eq__(self, other):
        R = self.ring
        if other.__class__ is not MultiPoly or (
                other.ring is not R and other.ring != R):
            return self._equal(other)
        return self.reps == other.reps

    def __hash__(self):
        return hash((self.ring, frozenset(self.reps.items())))

    def is_zero(self) -> bool:
        return not self.reps

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.reps), default=-1)

    def evaluate(self, assignment: dict) -> FieldElement:
        """Evaluate at a full assignment: variable name -> a field value."""
        field = self.ring.field
        point = []
        for v in self.ring.vars:
            if v not in assignment:
                raise PolyRingError(f"no value for variable {v!r}")
            point.append(field.element(assignment[v]).rep)
        add, mul = field._add, field._mul
        out = field._zero_rep
        for e, c in self.reps.items():
            for x, k in zip(point, e):
                for _ in range(k):
                    c = mul(c, x)
            out = add(out, c)
        return field._elem(out)

    def __str__(self):
        return signed_sum(
            ((_bracket_sum(repr(c)) if any(e) else repr(c),
              "*".join(v if k == 1 else f"{v}^{k}"
                       for v, k in zip(self.ring.vars, e) if k))
             for e, c in sorted(self.terms.items(), reverse=True)), "*")

    __repr__ = __str__


MultiPoly.parent = MultiPoly.ring       # the name every scalar gives its domain


# -- univariate helpers ------------------------------------------------------


def _require_univariate(p: MultiPoly):
    if len(p.ring.vars) != 1:
        raise PolyRingError("operation requires a univariate polynomial")


def _reps(p: MultiPoly) -> list:
    """The coefficient reps of a univariate polynomial, constant first."""
    out = [p.ring.field._zero_rep] * (max(p.reps)[0] + 1) if p.reps else []
    for (e,), c in p.reps.items():
        out[e] = c
    return out


def _poly(ring: PolyRing, reps) -> MultiPoly:
    return MultiPoly(ring, {(i,): r for i, r in enumerate(reps)})


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd of two univariate polynomials over a field."""
    a, b = a._common(b)
    _require_univariate(a)
    return _poly(a.ring, _pgcd(_reps(a), _reps(b), a.ring.field)[0])


def t_valuation(p: MultiPoly):
    """Order of vanishing at 0 of a univariate polynomial (None for 0)."""
    _require_univariate(p)
    return min((e[0] for e in p.reps), default=None)


class RationalFunctionField:
    """The fraction field of a univariate polynomial ring."""

    def __init__(self, field: Field, varname: str = "t"):
        self.field = field
        self.varname = varname
        self.char = field.char
        self.ring = self._below = PolyRing(field, (varname,))
        # the denominator of every polynomial: RationalFunction's operators
        # take the polynomial route when both operands' denominators are it
        self.poly_one = self.ring.one()

    def element(self, num, den=None) -> "RationalFunction":
        """num's image in F(t) by the one coercion rule, or num/den for two
        values that ``ring.element`` takes."""
        if den is None:
            if num.__class__ is RationalFunction and num.parent is self:
                return num
            x = _image(self, num)
            return self._refuse(num) if x is None else x
        return RationalFunction._make(self, self.ring.element(num),
                                      self.ring.element(den))

    const = from_int = element
    _refuse = PolyRing._refuse

    def _up(self, p: MultiPoly) -> "RationalFunction":
        return RationalFunction(self, p, self.poly_one)     # p/1 is canonical

    # F(t) as the base of F(t)[s] for the polynomial kernel in fields, which
    # RationalFunction._make runs over F(d)(t): an element is its own rep
    _elem = element
    _add, _mul, _neg = operator.add, operator.mul, operator.neg
    _inv, _is_zero = operator.methodcaller("inverse"), operator.methodcaller("is_zero")
    _zero_rep = property(lambda self: self.zero())
    _one_rep = property(lambda self: self.one())

    def polynomial(self, coeffs: dict) -> "RationalFunction":
        """The polynomial sum of c t^e over a map {e: c} from exponents to
        elements of the field; zero coefficients drop out."""
        F = self.field
        return self._up(
            MultiPoly(self.ring, {(e,): F.element(c).rep for e, c in coeffs.items()}))

    def zero(self) -> "RationalFunction":
        return self._up(self.ring.zero())

    def one(self) -> "RationalFunction":
        return self._up(self.ring.one())

    def gen(self) -> "RationalFunction":
        return self._up(self.ring.var(self.varname))

    def __eq__(self, other):
        return (isinstance(other, RationalFunctionField)
                and other.field == self.field and other.varname == self.varname)

    def __hash__(self):
        return hash((self.field, self.varname, "rff"))

    def __repr__(self):
        return f"{self.field!r}({self.varname})"


class RationalFunction(ScalarOps):
    """num/den in canonical form: gcd-reduced with a monic denominator.

    A polynomial's denominator is its parent's ``poly_one``, the same
    object every time: ``element`` and ``_make`` put it there.
    """

    __slots__ = ("parent", "num", "den")
    rep = property(lambda self: self)      # an element of F(d) is its own rep

    def __init__(self, parent, num, den):
        self.parent = parent
        self.num = num
        self.den = den

    @classmethod
    def _make(cls, parent: RationalFunctionField, num: MultiPoly, den: MultiPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return cls(parent, parent.ring.zero(), parent.poly_one)
        if den.degree() > 0:    # the gcd with a nonzero constant is 1
            F, n, d = parent.field, _reps(num), _reps(den)
            g = _pgcd(n, d, F)[0]
            if len(g) > 1:
                (qn, rn), (qd, rd) = _pdivmod(n, g, F), _pdivmod(d, g, F)
                if rn or rd:
                    raise PolyRingError("division was not exact")
                num, den = _poly(parent.ring, qn), _poly(parent.ring, qd)
        F = parent.field
        dl = den.reps[max(den.reps)]
        if dl != F._one_rep:
            mul, inv = F._mul, F._inv(dl)
            num, den = (MultiPoly(parent.ring, {e: mul(c, inv) for e, c in p.reps.items()})
                        for p in (num, den))
        return cls(parent, num, parent.poly_one if max(den.reps) == (0,) else den)

    def __add__(self, other):
        P = self.parent
        if other.__class__ is not RationalFunction or (
                other.parent is not P and other.parent != P):
            return self._mixed(other, operator.add)
        if self.den is P.poly_one and other.den is other.parent.poly_one:
            return RationalFunction(P, self.num + other.num, P.poly_one)
        return RationalFunction._make(
            P, self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(self.parent, -self.num, self.den)

    def __mul__(self, other):
        P = self.parent
        if other.__class__ is not RationalFunction or (
                other.parent is not P and other.parent != P):
            return self._mixed(other, operator.mul)
        if self.den is P.poly_one and other.den is other.parent.poly_one:
            return RationalFunction(P, self.num * other.num, P.poly_one)
        return RationalFunction._make(P, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        return RationalFunction._make(self.parent, self.den, self.num)

    def _one(self) -> "RationalFunction":
        return self.parent.one()

    def __eq__(self, other):
        P = self.parent
        if other.__class__ is not RationalFunction or (
                other.parent is not P and other.parent != P):
            return self._equal(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.parent, frozenset(self.num.reps.items()),
                     frozenset(self.den.reps.items())))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def evaluate(self, x: FieldElement) -> FieldElement:
        name = self.parent.varname
        d = self.den.evaluate({name: x})
        if d.is_zero():
            raise ZeroDivisionError(f"denominator vanishes at {x!r}")
        return self.num.evaluate({name: x}) / d

    def __str__(self):
        if self.den == self.parent.poly_one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def limit_at_zero(r: RationalFunction) -> FieldElement:
    """The value of r at t = 0, raising PoleAtZero when none exists."""
    zero = r.parent.field.zero()
    dv = t_valuation(r.den)
    if dv == 0:
        return r.evaluate(zero)
    # canonical form: num and den share no factor, so t divides at most one
    raise PoleAtZero(f"pole of order {dv} at 0 in {r}")
