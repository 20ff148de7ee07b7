"""Sparse multivariate polynomials and univariate rational functions.

Coefficients live in any field from the tower.  A ``MultiPoly`` maps the
packed int key of each monomial to the rep of its nonzero coefficient;
``terms``, the map from exponent tuples to elements, is a view built on
demand.  ``PolyRing`` and ``RationalFunctionField`` are domains like the
fields (``fields.Domain``): ``element``, ``const`` and ``from_int`` are
``Domain``'s, and they hold the arithmetic as rep hooks (``_add``,
``_mul``, ``_neg``, ``_is_zero``, ``_eq``; F(t) also ``_inv``), on which
both the kernels and the one operator set of ``fields.ScalarOps`` run; a
polynomial, like an element of F(d), is its own ``rep``, so ``_elem`` is
the identity.  F[t] lies below F(t) and the coefficient field below F[t],
and a refusal is a ``PolyRingError``.

The ``PolyRing`` owns the packing: a fixed field of ``_FIELD_BITS`` bits
per variable with the first variable in the high bits, so the first
variable is unbounded, integer order is the order of exponent tuples, a
univariate key is the exponent, and a product's key is the sum of its
factors' keys.  A product that sets the guard bit on top of a lower field
raises ``PolyRingError`` and never carries into the next variable.  The
coefficients form a field, so a product or a negation of nonzero reps is
nonzero: only where a sum happened are zero reps filtered, in ``_add`` as
each key's sum cancels and in ``_mul`` when two products fell on one key.
Multivariate division is deliberately absent: identity checks clear
denominators first and then test for the zero polynomial.

Only the univariate case (curves in t) carries a fraction field, with gcd
reduction and a monic denominator as the canonical form.  A monic constant
is 1, so a polynomial in t is its numerator over the one polynomial 1 that
its ``RationalFunctionField`` holds, and the sum or product of two such
entries of F[t] is the numerators' over that shared 1, with no
cross-products and no gcd; only proper fractions take the general route.
The gcd and the division behind it are the polynomial kernel of ``fields``
(``_pgcd``, ``_pdivmod``), run on the coefficients' reps.  Curve limits are
checked over F[t] by ``degeneration.curve_limit``, which reads the reps of
the entries' numerators and denominators and leaves the arithmetic to its
own kernel; ``limit_at_zero`` is the rational-function route that
cross-checks it.
"""

from __future__ import annotations

from .fields import (Domain, Field, FieldElement, ScalarOps, _bracket_sum,
                     _pdivmod, _pgcd, _source, signed_sum)


_FIELD_BITS = 16    # a packed exponent field, guard bit included


class PolyRingError(ArithmeticError):
    """Mixed registries, bad variable names, and similar structural misuse."""


class PoleAtZero(ArithmeticError):
    """The rational function has a pole at t = 0."""


class PolyRing(Domain):
    """Polynomials in a fixed ordered tuple of variables over one field.

    The ring owns the packing of a monomial into one int key: every variable
    but the first gets a field of ``_FIELD_BITS`` bits, the last variable
    lowest, and the first variable takes the bits above them all, so it is
    unbounded and integer order is the order of exponent tuples.  The top
    bit of each field below the first is a guard: it stays clear in every
    stored key, and a product that sets it raises ``PolyRingError`` instead
    of carrying into the next variable.  A univariate key is the exponent.
    The ring's hooks are the polynomial arithmetic; a ``MultiPoly`` only
    stores.
    """

    def __init__(self, field: Field, variables):
        self.field = self._below = field
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise PolyRingError("duplicate variable names")
        n = len(self.vars)
        self._shifts = tuple(_FIELD_BITS * (n - 1 - i) for i in range(n))
        self._guard = sum(1 << (s + _FIELD_BITS - 1) for s in self._shifts[1:])

    def _exponents(self, key: int) -> tuple:
        """The exponent tuple that a packed key stands for."""
        first, *rest = self._shifts
        mask = (1 << _FIELD_BITS) - 1
        return (key >> first, *((key >> s) & mask for s in rest))

    def var(self, name: str) -> "MultiPoly":
        if name not in self.vars:
            raise PolyRingError(f"unknown variable {name!r}")
        key = 1 << self._shifts[self.vars.index(name)]
        return MultiPoly(self, {key: self.field._one_rep})

    def gens(self):
        return tuple(self.var(v) for v in self.vars)

    def _refuse(self, v):
        """The polynomial layer's one refusal of a value with no image here."""
        raise PolyRingError(f"no image of an element of {_source(v)} in {self!r}")

    def _up(self, c) -> "MultiPoly":
        return MultiPoly(self, {0: c.rep})

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self._up(self.field.one())

    # -- the rep hooks of ScalarOps and the kernels: a polynomial is its own rep

    _elem = staticmethod(lambda p: p)
    _zero_rep = property(zero)

    def _add(self, a: "MultiPoly", b: "MultiPoly") -> "MultiPoly":
        add, is_zero = self.field._add, self.field._is_zero
        reps = dict(a.reps)
        for e, c in b.reps.items():
            s = reps.get(e)
            if s is None:
                reps[e] = c
            elif is_zero(s := add(s, c)):
                del reps[e]
            else:
                reps[e] = s
        return _of(self, reps)

    def _neg(self, a: "MultiPoly") -> "MultiPoly":
        neg = self.field._neg
        return _of(self, {e: neg(c) for e, c in a.reps.items()})

    def _mul(self, a: "MultiPoly", b: "MultiPoly") -> "MultiPoly":
        F = self.field
        add, mul = F._add, F._mul
        reps: dict = {}
        for e1, c1 in a.reps.items():
            for e2, c2 in b.reps.items():
                e = e1 + e2
                c = mul(c1, c2)
                s = reps.get(e)
                reps[e] = c if s is None else add(s, c)
        if len(reps) < len(a.reps) * len(b.reps):   # two fell on one key
            is_zero = F._is_zero
            reps = {e: c for e, c in reps.items() if not is_zero(c)}
        guard = self._guard
        if guard:
            for e in reps:
                if e & guard:
                    raise PolyRingError(f"an exponent outgrew its field in {self!r}")
        return _of(self, reps)

    def _inv(self, a: "MultiPoly"):
        raise PolyRingError(f"no inverses in {self!r}")

    def _is_zero(self, a: "MultiPoly") -> bool:
        return not a.reps

    def _eq(self, a: "MultiPoly", b: "MultiPoly") -> bool:
        return a.reps == b.reps

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.field == self.field
                and other.vars == self.vars)

    def __hash__(self):
        return hash((self.field, self.vars))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.vars)}]"


class MultiPoly(ScalarOps):
    """A sparse polynomial: ``reps`` maps the packed key of each monomial
    (see ``PolyRing``) to the rep of its nonzero coefficient.  ``terms`` is a
    read-only view, exponent tuples to elements, built on each read.

    The constructor drops zero reps.  The operators are ``ScalarOps``'s and
    the arithmetic is the ring's hooks, which build their results with
    ``_of``, trusting them: the coefficients form a field, so a product and
    a negation of nonzero reps are nonzero, and only a sum can vanish.  A
    nonzero polynomial has no inverse: ``inverse`` and a negative power
    raise ``PolyRingError``, and ``/`` is unsupported.
    """

    __slots__ = ("ring", "reps")
    _no_division = PolyRingError
    rep = property(lambda self: self)      # a polynomial is its own rep

    def __init__(self, ring: PolyRing, reps: dict):
        self.ring = ring
        is_zero = ring.field._is_zero
        self.reps = {e: c for e, c in reps.items() if not is_zero(c)}

    @property
    def terms(self) -> dict:
        elem, exponents = self.ring.field._elem, self.ring._exponents
        return {exponents(e): elem(c) for e, c in self.reps.items()}

    def __hash__(self):     # a constant's is its coefficient's, which it equals
        if not any(self.reps):
            return hash(next(iter(self.terms.values()), self.ring.field.zero()))
        return hash((self.ring, frozenset(self.reps.items())))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, map(self.ring._exponents, self.reps)), default=-1)

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
            for x, k in zip(point, self.ring._exponents(e)):
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


def _of(ring: PolyRing, reps: dict) -> MultiPoly:
    """A polynomial on reps known to be nonzero, with no filter."""
    p = object.__new__(MultiPoly)
    p.ring, p.reps = ring, reps
    return p


# -- univariate helpers ------------------------------------------------------


def _require_univariate(p: MultiPoly):
    if len(p.ring.vars) != 1:
        raise PolyRingError("operation requires a univariate polynomial")


def _reps(p: MultiPoly) -> list:
    """The coefficient reps of a univariate polynomial, constant first."""
    out = [p.ring.field._zero_rep] * (max(p.reps) + 1) if p.reps else []
    for e, c in p.reps.items():
        out[e] = c
    return out


def _poly(ring: PolyRing, reps) -> MultiPoly:
    return MultiPoly(ring, dict(enumerate(reps)))


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd of two univariate polynomials over a field."""
    a, b = a._common(b)
    _require_univariate(a)
    return _poly(a.ring, _pgcd(_reps(a), _reps(b), a.ring.field)[0])


def t_valuation(p: MultiPoly):
    """Order of vanishing at 0 of a univariate polynomial (None for 0)."""
    _require_univariate(p)
    return min(p.reps, default=None)


class RationalFunctionField(Domain):
    """The fraction field of a univariate polynomial ring.

    Its hooks are the arithmetic of its elements, on the ring's hooks for
    numerators and denominators; a ``RationalFunction`` only stores, and
    ``RationalFunction._make`` puts num/den in canonical form.
    """

    def __init__(self, field: Field, varname: str = "t"):
        self.field = field
        self.varname = varname
        self.char = field.char
        self.ring = self._below = PolyRing(field, (varname,))
        # the denominator of every polynomial: the hooks _add and _mul
        # take the polynomial route when both operands' denominators are it
        self.poly_one = self.ring.one()

    def element(self, num, den=None) -> "RationalFunction":
        """``Domain.element`` of num, or num/den for two values that
        ``ring.element`` takes."""
        if den is None:
            return Domain.element(self, num)
        return RationalFunction._make(self, self.ring.element(num),
                                      self.ring.element(den))

    _refuse = PolyRing._refuse

    def _up(self, p: MultiPoly) -> "RationalFunction":
        return RationalFunction(self, p, self.poly_one)     # p/1 is canonical

    # -- the rep hooks of ScalarOps and the kernels (the polynomial kernel of
    # fields runs over F(d)(t) in RationalFunction._make): an element of F(t)
    # is its own rep.  Two entries of F[t], whose denominators are their
    # parents' poly_one, add and multiply as polynomials over that shared 1.

    _elem = staticmethod(PolyRing._elem)    # PolyRing._elem is a plain function
    _zero_rep = property(lambda self: self.zero())
    _one_rep = property(lambda self: self.one())

    def _add(self, a, b) -> "RationalFunction":
        R = self.ring
        if a.den is a.parent.poly_one and b.den is b.parent.poly_one:
            return RationalFunction(self, R._add(a.num, b.num), self.poly_one)
        mul = R._mul
        return RationalFunction._make(
            self, R._add(mul(a.num, b.den), mul(b.num, a.den)), mul(a.den, b.den))

    def _neg(self, a) -> "RationalFunction":
        return RationalFunction(self, self.ring._neg(a.num), a.den)

    def _mul(self, a, b) -> "RationalFunction":
        R = self.ring
        if a.den is a.parent.poly_one and b.den is b.parent.poly_one:
            return RationalFunction(self, R._mul(a.num, b.num), self.poly_one)
        return RationalFunction._make(self, R._mul(a.num, b.num), R._mul(a.den, b.den))

    def _inv(self, a) -> "RationalFunction":
        return RationalFunction._make(self, a.den, a.num)

    def _is_zero(self, a) -> bool:
        return not a.num.reps

    def _eq(self, a, b) -> bool:
        return a.num.reps == b.num.reps and a.den.reps == b.den.reps

    def polynomial(self, coeffs: dict) -> "RationalFunction":
        """The polynomial sum of c t^e over a map {e: c} from exponents to
        elements of the field; zero coefficients drop out."""
        F = self.field
        return self._up(
            MultiPoly(self.ring, {e: F.element(c).rep for e, c in coeffs.items()}))

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
        if not den.reps:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.reps:
            return cls(parent, parent.ring.zero(), parent.poly_one)
        if max(den.reps) > 0:   # the gcd with a nonzero constant is 1
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
            num, den = (_of(parent.ring, {e: mul(c, inv) for e, c in p.reps.items()})
                        for p in (num, den))
        return cls(parent, num, parent.poly_one if max(den.reps) == 0 else den)

    def __hash__(self):     # a polynomial's is its numerator's
        if self.den == self.parent.poly_one:
            return hash(self.num)
        return hash((self.parent, frozenset(self.num.reps.items()),
                     frozenset(self.den.reps.items())))

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
