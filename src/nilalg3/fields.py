"""Exact arithmetic over a small tower of constructible fields.

The tower starts at the rationals or at a prime field GF(p) and grows by
simple algebraic extensions F[x]/(m(x)) whenever a computation needs a root
the current field lacks.  Elements are always held in canonical form
(reduced fractions, least nonnegative residues, remainders modulo a monic
minimal polynomial), so equality is structural comparison and every value
is immutable and hashable.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt


class FieldError(ArithmeticError):
    """Structural misuse: mixed descriptors, reducible minimal polynomial, ..."""


class NeedsFieldExtension(FieldError):
    """A required root does not exist in the current field."""


class Field:
    """Descriptor of one field in the tower; also the factory for its elements.

    Subclasses provide the representation-level hooks (``_coerce``, ``_add``,
    ``_mul``, ...) and :class:`FieldElement` dispatches to them, so a single
    element type serves the whole tower.
    """

    char: int = 0

    # -- element factories -------------------------------------------------

    def element(self, value) -> "FieldElement":
        return FieldElement(self, self._coerce(value))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def from_int(self, m: int) -> "FieldElement":
        """The image of the integer m, i.e. m copies of 1 added together."""
        return self.element(m)

    def embed(self, x: "FieldElement") -> "FieldElement":
        if x.field == self:
            return x
        raise FieldError(f"cannot embed element of {x.field!r} into {self!r}")

    # -- structure queries --------------------------------------------------

    def is_finite(self) -> bool:
        raise NotImplementedError

    def order(self) -> int:
        raise FieldError(f"{self!r} is not finite")

    def elements(self):
        """Iterate every element (finite fields only), in a fixed order."""
        raise FieldError(f"cannot enumerate the elements of {self!r}")

    # -- representation hooks ------------------------------------------------

    def _coerce(self, value):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _sort_key(self, a):
        raise NotImplementedError

    def _render(self, a) -> str:
        raise NotImplementedError


class ScalarOps:
    """The derived operators of the scalar types, defined once.

    ``FieldElement``, ``MultiPoly`` and ``RationalFunction`` each supply
    ``_peer`` (the other operand in their own type, or None when it has no
    place there), ``__add__``, ``__neg__``, ``__mul__`` and ``_one``, and
    the two field types ``inverse``; the operators below use nothing else.
    A ring without division (``MultiPoly``) has no ``inverse``, which
    ``Matrix3.inverse`` tests for, and names its error type in
    ``_no_division``: ``/`` is then unsupported, and a power must be a
    nonnegative integer.
    """

    __slots__ = ()
    _no_division = None

    def __sub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __truediv__(self, other):
        if self._no_division is not None:
            return NotImplemented
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if self._no_division is not None:
            return NotImplemented
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if self._no_division is not None and not (isinstance(n, int) and n >= 0):
            raise self._no_division("powers must be nonnegative integers")
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = self._one()
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


class FieldElement(ScalarOps):
    """A value of one field of the tower, stored in canonical form."""

    __slots__ = ("field", "rep")

    def __init__(self, field: Field, rep):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _peer(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("elements belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return None

    def __add__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.rep, o.rep))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.rep))

    def __mul__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.rep, o.rep))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(self.field, self.field._inv(self.rep))

    def _one(self) -> "FieldElement":
        return self.field.one()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.rep == other.rep

    def __hash__(self):
        return hash((self.field, self.rep))

    def is_zero(self) -> bool:
        return self.field._is_zero(self.rep)

    def __repr__(self):
        return self.field._render(self.rep)


class Rationals(Field):
    """The field of rational numbers, backed by ``fractions.Fraction``."""

    char = 0

    def is_finite(self) -> bool:
        return False

    def _coerce(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldError("element belongs to a different field")
            return value.rep
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise FieldError(f"cannot build a rational from {value!r}")

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return 1 / a

    def _is_zero(self, a):
        return a == 0

    def _sort_key(self, a):
        return a

    def _render(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField(Field):
    """GF(p) for a prime p, with least nonnegative residues as elements."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p

    def is_finite(self) -> bool:
        return True

    def order(self) -> int:
        return self.p

    def elements(self):
        for r in range(self.p):
            yield FieldElement(self, r)

    def _coerce(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldError("element belongs to a different field")
            return value.rep
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        raise FieldError(f"cannot build a GF({self.p}) element from {value!r}")

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _is_zero(self, a):
        return a == 0

    def _sort_key(self, a):
        return a

    def _render(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def signed_sum(terms, sep: str = "", wrap=None) -> str:
    """Render (coefficient text, monomial) pairs as a sum; "0" when empty.

    Before a monomial a coefficient "1" or "-1" is elided to its sign;
    any other coefficient goes through ``wrap`` (when given) and is joined
    to the monomial by ``sep``.  Later terms keep their own "-" sign and
    are joined with "+" otherwise.
    """
    out = ""
    for text, mono in terms:
        if mono and text in ("1", "-1"):
            text = text[:-1] + mono
        else:
            text = wrap(text) if wrap else text
            text = text + sep + mono if mono else text
        out += text if not out or text.startswith("-") else "+" + text
    return out or "0"


# -- dense polynomial helpers over a base field (ascending coefficients) ----


def _ptrim(c):
    while c and c[-1].is_zero():
        c.pop()
    return c


def _padd(a, b):
    n = max(len(a), len(b))
    zero = (a or b)[0].field.zero() if (a or b) else None
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(x + y)
    return _ptrim(out)


def _psub(a, b):
    return _padd(a, [-x for x in b])


def _pmul(a, b, zero):
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _ptrim(out)


def _pdivmod(a, b, zero):
    """(quotient, remainder) of dense polynomials; the one univariate division.

    Each step cancels the leading term of a exactly, so d falls strictly and
    every quotient slot is written once.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [zero] * max(0, len(a) - len(b) + 1)
    inv_lead = b[-1].inverse()
    while len(a) >= len(b):
        c = a[-1] * inv_lead
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] = a[d + i] - c * y
        _ptrim(a)
        if not a:
            break
    return _ptrim(q), a


def _peval(coeffs, x, zero):
    out = zero
    for c in reversed(coeffs):
        out = out * x + c
    return out


class SimpleExtension(Field):
    """F(g) = F[x]/(m(x)) for a monic minimal polynomial m over the base F.

    Elements are coefficient tuples of length deg(m) in the powers of the
    generator.  For degree at most 3 the constructor verifies that m has no
    root in F (which for those degrees is full irreducibility); over a
    finite F higher degrees get trial division by every monic polynomial of
    degree at most deg(m)/2, over an infinite F they are trusted to the
    caller.
    """

    def __init__(self, base: Field, minpoly, name: str):
        coeffs = [base.element(c) if not isinstance(c, FieldElement) else base.embed(c)
                  for c in minpoly]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if len(coeffs) < 3:
            raise FieldError("minimal polynomial must have degree at least 2")
        lead = coeffs[-1]
        coeffs = [c / lead for c in coeffs]
        self.base = base
        self.name = name
        self.minpoly = tuple(coeffs)
        self.degree = len(coeffs) - 1
        self.char = base.char
        if self.degree <= 3:
            root = _find_root(base, self.minpoly)
            if root is not None:
                raise FieldError(
                    f"minimal polynomial has root {root!r} in {base!r}")
        elif base.is_finite():
            zero, elems = base.zero(), list(base.elements())
            for d in range(1, self.degree // 2 + 1):
                for low in itertools.product(elems, repeat=d):
                    factor = [*low, base.one()]
                    if not _pdivmod(self.minpoly, factor, zero)[1]:
                        raise FieldError(
                            f"minimal polynomial has the factor {factor} "
                            f"(constant first) over {base!r}")

    def generator(self) -> FieldElement:
        rep = [self.base.zero()] * self.degree
        rep[1] = self.base.one()
        return FieldElement(self, tuple(rep))

    def embed(self, x: FieldElement) -> FieldElement:
        if isinstance(x, FieldElement) and x.field == self:
            return x
        bx = x if x.field == self.base else self.base.embed(x)
        rep = [bx] + [self.base.zero()] * (self.degree - 1)
        return FieldElement(self, tuple(rep))

    def is_finite(self) -> bool:
        return self.base.is_finite()

    def order(self) -> int:
        return self.base.order() ** self.degree

    def elements(self):
        base_elems = list(self.base.elements())
        for combo in itertools.product(base_elems, repeat=self.degree):
            yield FieldElement(self, tuple(combo))

    def _coerce(self, value):
        if isinstance(value, FieldElement):
            if value.field == self:
                return value.rep
            return self.embed(value).rep
        if isinstance(value, (int, Fraction)):
            rep = [self.base.element(value)] + [self.base.zero()] * (self.degree - 1)
            return tuple(rep)
        if isinstance(value, (tuple, list)):
            coeffs = [self.base.element(c) if not isinstance(c, FieldElement) else c
                      for c in value]
            if any(c.field != self.base for c in coeffs):
                raise FieldError("coefficients must live in the base field")
            coeffs = self._reduce(coeffs)
            return tuple(coeffs)
        raise FieldError(f"cannot build an element of {self!r} from {value!r}")

    def _reduce(self, coeffs):
        coeffs = list(coeffs)
        d = self.degree
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if not c.is_zero():
                for j in range(d):
                    coeffs[i - d + j] = coeffs[i - d + j] - c * self.minpoly[j]
            coeffs.pop()
        while len(coeffs) < d:
            coeffs.append(self.base.zero())
        return coeffs

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, a, b):
        zero = self.base.zero()
        prod = _pmul(list(a), list(b), zero)
        return tuple(self._reduce(prod))

    def _inv(self, a):
        zero, one = self.base.zero(), self.base.one()
        r0, r1 = list(self.minpoly), _ptrim(list(a))
        t0, t1 = [], [one]
        while r1:
            q, rem = _pdivmod(r0, r1, zero)
            r0, r1 = r1, rem
            t0, t1 = t1, _psub(t0, _pmul(q, t1, zero))
        if len(r0) != 1:
            raise FieldError("element is not invertible (reducible modulus?)")
        scale = r0[0].inverse()
        inv = [c * scale for c in t0]
        return tuple(self._reduce(inv))

    def _is_zero(self, a):
        return all(c.is_zero() for c in a)

    def _sort_key(self, a):
        return tuple(self.base._sort_key(c.rep) for c in a)

    def _render(self, a):
        def coefficient(i, c):
            # a base sum before the generator is bracketed: (1+w)s, not 1+ws
            text = self.base._render(c.rep)
            return f"({text})" if i and any(ch in text[1:] for ch in "+-") else text

        return signed_sum((coefficient(i, c),
                           "" if i == 0 else self.name if i == 1
                           else f"{self.name}^{i}")
                          for i, c in enumerate(a) if not c.is_zero())

    def __eq__(self, other):
        return (isinstance(other, SimpleExtension) and other.base == self.base
                and other.minpoly == self.minpoly and other.name == self.name)

    def __hash__(self):
        return hash(("ext", self.base, self.minpoly, self.name))

    def __repr__(self):
        return f"{self.base!r}({self.name})"


def _rational_root(base: Rationals, coeffs):
    """A rational root of the integer-cleared polynomial, or None."""
    denom = 1
    for c in coeffs:
        denom = denom * c.rep.denominator // gcd(denom, c.rep.denominator)
    ints = [int(c.rep * denom) for c in coeffs]
    if ints[0] == 0:
        return base.zero()
    lead, const = ints[-1], ints[0]
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                x = base.element(cand)
                if _peval(coeffs, x, base.zero()).is_zero():
                    return x
    return None


def _divisors(n):
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _find_root(field: Field, coeffs):
    """A root in ``field`` of the polynomial with the given coefficients.

    Exhaustive over finite fields; rational-root test over the rationals;
    quadratic formula over characteristic-0 extensions.  Returns None when
    no root exists (or, for shapes this helper cannot decide, when none is
    found by the applicable method).
    """
    zero = field.zero()
    if field.is_finite():
        for x in field.elements():
            if _peval(coeffs, x, zero).is_zero():
                return x
        return None
    if isinstance(field, Rationals):
        return _rational_root(field, coeffs)
    if len(coeffs) == 3:
        roots = quadratic_roots(coeffs[2], coeffs[1], coeffs[0])
        return roots[0] if roots else None
    return None


def square_roots(x: FieldElement) -> list:
    """All square roots of x in its own field, sorted canonically."""
    field = x.field
    if field.is_finite():
        found = [y for y in field.elements() if y * y == x]
    elif isinstance(field, Rationals):
        frac = x.rep
        if frac < 0:
            found = []
        elif frac == 0:
            found = [field.zero()]
        else:
            rn, rd = isqrt(frac.numerator), isqrt(frac.denominator)
            if rn * rn == frac.numerator and rd * rd == frac.denominator:
                r = field.element(Fraction(rn, rd))
                found = [r, -r]
            else:
                found = []
    elif isinstance(field, SimpleExtension) and field.degree == 2:
        found = _ext2_square_roots(field, x)
    else:
        raise FieldError(f"square roots are not supported over {field!r}")
    uniq = []
    for r in found:
        if r not in uniq:
            uniq.append(r)
    return sorted(uniq, key=lambda e: e.field._sort_key(e.rep))


def _ext2_square_roots(field: SimpleExtension, x: FieldElement):
    # With g the generator, g**2 = e + f*g; solve (a + b*g)**2 = x.
    base = field.base
    e = -field.minpoly[0]
    f = -field.minpoly[1]
    u, v = x.rep[0], x.rep[1]
    out = []
    if v.is_zero():
        for a in square_roots(u):
            out.append(field.embed(a))
        if not e.is_zero():
            for b in square_roots(u / e):
                out.append(FieldElement(field, (base.zero(), b)))
    else:
        # b != 0; eliminate a = (v - f*b**2) / (2b), leaving a quadratic in b**2.
        A = f * f + 4 * e
        B = -(2 * v * f + 4 * u)
        C = v * v
        for Y in quadratic_roots(A, B, C):
            for b in square_roots(Y):
                if b.is_zero():
                    continue
                a = (v - f * b * b) / (2 * b)
                cand = FieldElement(field, (a, b))
                if cand * cand == x:
                    out.append(cand)
    return out


def quadratic_roots(a: FieldElement, b: FieldElement, c: FieldElement) -> list:
    """All roots of a*x**2 + b*x + c in the common field of a, b, c.

    Finite fields are searched exhaustively (every field this toolkit touches
    is tiny); over characteristic 0 the discriminant route is used.  Each
    candidate is verified by substitution before being returned.
    """
    field = a.field
    if b.field != field or c.field != field:
        raise FieldError("coefficients belong to different fields")
    if a.is_zero():
        raise FieldError("leading coefficient is zero")
    if field.is_finite():
        roots = [x for x in field.elements() if ((a * x + b) * x + c).is_zero()]
    else:
        B, C = b / a, c / a
        disc = B * B - 4 * C
        roots = []
        for s in square_roots(disc):
            r = (s - B) / 2
            if r not in roots:
                roots.append(r)
    for r in roots:
        assert ((a * r + b) * r + c).is_zero()
    return sorted(roots, key=lambda e: e.field._sort_key(e.rep))


def extend_with_root(field: Field, minpoly, name: str):
    """Adjoin a root of the given polynomial (constant-first coefficients).

    Returns ``(extension, embed)`` where ``embed`` maps old elements into the
    extension.  Degree 2 and 3 polynomials are refused if they already have a
    root in ``field``.
    """
    ext = SimpleExtension(field, minpoly, name)
    return ext, ext.embed


RATIONALS = Rationals()


def gf4(name: str = "w") -> SimpleExtension:
    """GF(4) as GF(2)(w) with w**2 + w + 1 = 0."""
    return SimpleExtension(PrimeField(2), [1, 1, 1], name)


def gf16() -> SimpleExtension:
    """GF(16) as a quadratic extension of GF(4): s**2 + s + w = 0."""
    base = gf4()
    w = base.generator()
    return SimpleExtension(base, [w, base.one(), base.one()], "s")
