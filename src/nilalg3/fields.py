"""Exact arithmetic over a small tower of constructible fields.

The tower starts at the rationals or at a prime field GF(p) and grows by
simple algebraic extensions F[x]/(m(x)) whenever a computation needs a root
the current field lacks.  Over a finite base the extension is a
:class:`FiniteField`, whose elements are integer codes with log/antilog
tables built once per field (GF(16) is GF(4)(s) and GF(4) is GF(2)(w), both
finite fields); over characteristic 0 it is a :class:`SimpleExtension`,
whose reps are tuples of base reps.  Elements are always held in canonical
form (least nonnegative residues, codes, remainders modulo a monic minimal
polynomial), so equality is structural comparison and every value is
immutable and hashable.  A rational's rep is an ``int`` when it is an
integer and a reduced ``Fraction`` with denominator > 1 otherwise, so the
integral arithmetic that dominates over Q, and over the number fields and
polynomial rings built on it, runs on Python's ints in C.

One kernel of dense helpers on lists of a base field's reps (``_pmul``,
``_pdivmod``, ``_pgcd``, ...) does all univariate polynomial arithmetic:
extensions, table building, irreducibility tests and the gcds of F(t).
One root finder, ``_roots``, serves irreducibility tests below degree 4,
``quadratic_roots`` and the finite case of ``square_roots``.

A finite field (GF(p) with p <= MAX_FINITE_ORDER, or a :class:`FiniteField`)
hands out one element object per code: ``field._elem`` looks the rep up in a
per-field map, so a sum or product of two elements of the same field object
is a table lookup and a dict lookup, with no allocation.  The map is filled
on first use of each code, which is why building a field costs what it did
before; the rationals and number fields build a new element per result.

Every scalar domain, the fields here and the polynomial rings and F(t) of
``polyring``, is a :class:`Domain`: one ``element`` (also ``const`` and
``from_int``), one ``zero`` and ``one``, and one hook contract.  One
coercion rule serves the whole tower, polynomials included: ``_image``
lifts a value into one domain, ``ScalarOps._common`` two operands into one.
A field records when it is built the rep of each generator of its tower, by
name (``_gens``), and ``_power`` is the one square-and-multiply on reps,
also of polynomials modulo m, over the small domain ``_Quotient``.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import isqrt, lcm


class FieldError(ArithmeticError):
    """Structural misuse: mixed descriptors, reducible minimal polynomial, ..."""


class NeedsFieldExtension(FieldError):
    """A required root does not exist in the current field."""


class Domain:
    """A domain of scalars: a field of the tower, a ``polyring.PolyRing`` or
    a ``polyring.RationalFunctionField``, and the factory of its values.

    ``element`` (also named ``const`` and ``from_int``) is the one entry: a
    scalar of this domain is itself, any other value goes through the one
    coercion rule (``_image``) or is refused.  ``ScalarOps`` and the exact
    kernels run on the hook contract: ``_add``, ``_neg``, ``_mul``, ``_inv``,
    ``_is_zero`` and ``_eq`` on reps; ``_elem``, the value of a rep (the
    identity where a value is its own rep); ``_zero_rep`` and ``_one_rep``;
    ``_up``, which lifts a value of ``_below``, the domain one step down
    (None at the bottom); and ``_refuse``, the layer's one error for a value
    with no image.  ``_once`` serves what another layer builds from a
    domain (a catalogue structure's reps, F(t) over a field, a verified
    library curve, a node profile): a field, F(d) among them, keeps it in
    ``_kept``, so it lives exactly as long as the field, and no module
    cache pins a field; a ``PolyRing`` builds it on every call.
    """

    _below = None

    def __init__(self):
        self._kept = {}

    def _once(self, key, build):
        """build(), made on the first call with ``key`` and kept in this
        domain.  What it keeps and holds the domain back (F(t), a curve
        over it) is freed with the domain by the cyclic collector, as the
        domain's own elements are."""
        try:
            return self._kept[key]
        except KeyError:
            x = self._kept[key] = build()
            return x

    def element(self, value):
        """value's image in this domain, by the one coercion rule."""
        if isinstance(value, ScalarOps) and value.parent is self:
            return value        # scalars are immutable: nothing to coerce
        x = _image(self, value)
        return self._refuse(value) if x is None else x

    const = from_int = element

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)


class Field(Domain):
    """One field of the tower, whose values are all ``FieldElement``s.

    Beyond ``Domain``'s contract a field has ``_coerce`` (the rep of an int
    or a Fraction), ``_render`` (a rep's text), ``_rep_hash`` and ``_gens``
    (the rep here of each generator of the tower, by name).  It is finite
    exactly when its characteristic is positive, and then ``elements()``
    runs through the reps 0, ..., q - 1.
    """

    char: int = 0
    # the reps of 0 and 1, for the polynomial kernel below: plain attributes,
    # set per class or in __init__, since reading an instance's __dict__ (as
    # a cached_property does) slows every later attribute lookup on it
    _zero_rep, _one_rep = 0, 1
    _gens: dict = {}    # Q and GF(p) have no generator; an extension its own map
    _rep_hash = staticmethod(hash)  # an extension steps down the tower first
    # reps are canonical, and an int or Fraction rep is 0 when it is falsy;
    # a builtin binds no self
    _eq, _is_zero = operator.eq, operator.not_
    embed = Domain.element

    def _refuse(self, value):
        """The field layer's one refusal of a value with no image here."""
        raise FieldError(f"cannot embed element of {_source(value)} into {self!r}")

    def is_finite(self) -> bool:
        return self.char > 0

    def order(self) -> int:
        raise FieldError(f"{self!r} is not finite")

    def elements(self):
        """Iterate every element (finite fields only), in the order of reps."""
        if not self.is_finite():
            raise FieldError(f"cannot enumerate the elements of {self!r}")
        yield from map(self._elem, range(self.order()))


def _source(value) -> str:
    """The domain of a value, for a refusal: its parent, or its type."""
    return repr(value.parent) if isinstance(value, ScalarOps) else type(value).__name__


def _image(dom, v):
    """v's image in the domain dom, or None: the one coercion rule.

    A value of dom, or of an equal domain, is v itself.  A value of a domain
    below dom (base or coefficient field, F[t] under F(t), on down
    ``_below``) is lifted one step at a time by each level's ``_up``; so is
    an int or a Fraction, whose rep in a field is ``_coerce``'s.  An
    extension also takes a list or tuple: the coefficients of 1, g, ...
    """
    below = dom._below
    if isinstance(v, ScalarOps):
        src = v.parent      # equal domains are of one class
        if src is dom or src.__class__ is dom.__class__ and src == dom:
            return v
        if below is None:
            return None
    elif not isinstance(v, (int, Fraction)):
        if isinstance(v, (tuple, list)) and isinstance(dom, _Extension):
            return dom._elem(dom._from_coefficients(
                [below.element(c).rep for c in v]))
        return None
    elif isinstance(dom, Field):    # down a field's tower on reps alone
        return dom._elem(dom._coerce(v))
    x = _image(below, v)
    return None if x is None else dom._up(x)


class ScalarOps:
    """The one operator set of every scalar type, and the two-operand rule.

    ``FieldElement``, ``MultiPoly`` and ``RationalFunction`` name their
    domain ``parent`` and hold a ``rep``; every operator here runs on the
    parent's rep hooks (``_add``, ``_neg``, ``_mul``, ``_inv``, ``_is_zero``,
    ``_eq``) and wraps a result with ``parent._elem``.  The fast path takes
    an operand of the same class whose parent is this one (``is``, then
    ``==``); any other operand goes through ``_common``.  A ring without
    division (``MultiPoly``) names its error type in ``_no_division``: ``/``
    is then unsupported and a negative power raises that error, as its
    domain's ``_inv`` does.
    """

    __slots__ = ()
    _no_division = None

    def _common(self, other, refuse=True):
        """(self, other) in the higher of their domains, lifting either one:
        Python reflects no operator between two operands of one class (``d *
        t`` over F(d)(t), GF(2) times GF(4)).  None when other is no scalar, or
        for unrelated domains unless ``refuse``."""
        if not isinstance(other, ScalarOps):
            is_number = isinstance(other, (int, Fraction))
            return (self, self.parent.element(other)) if is_number else None
        a, b = self.parent, other.parent
        x = _image(a, other)
        if x is not None:
            return self, x
        y = _image(b, self)
        if y is not None:
            return y, other
        if not refuse:
            return None
        if isinstance(b, Field) and not isinstance(a, Field):
            a._refuse(other)    # the polynomial layer refuses, in either order
        b._refuse(self)

    def _mixed(self, other, op, divides=False):
        """op on the pair from ``_common``; a division needs a field."""
        pair = self._common(other)
        if pair is None or divides and pair[0]._no_division is not None:
            return NotImplemented
        return op(*pair)

    def _equal(self, other):
        """== once the fast path missed: False for unrelated domains."""
        pair = self._common(other, refuse=False)
        return NotImplemented if pair is None else pair[0] == pair[1]

    def __add__(self, other):
        P = self.parent
        if other.__class__ is self.__class__ and (other.parent is P or other.parent == P):
            return P._elem(P._add(self.rep, other.rep))
        return self._mixed(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        P = self.parent
        return P._elem(P._neg(self.rep))

    def __sub__(self, other):
        P = self.parent
        if other.__class__ is self.__class__ and (other.parent is P or other.parent == P):
            return P._elem(P._add(self.rep, P._neg(other.rep)))
        return self._mixed(other, operator.sub)

    def __rsub__(self, other):
        return self._mixed(other, lambda a, b: b - a)

    def __mul__(self, other):
        P = self.parent
        if other.__class__ is self.__class__ and (other.parent is P or other.parent == P):
            return P._elem(P._mul(self.rep, other.rep))
        return self._mixed(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        P = self.parent
        if other.__class__ is self.__class__ and (other.parent is P or other.parent == P) \
                and self._no_division is None:
            return P._elem(P._mul(self.rep, other.inverse().rep))
        return self._mixed(other, operator.truediv, True)

    def __rtruediv__(self, other):
        return self._mixed(other, lambda a, b: b / a, True)

    def inverse(self):
        P = self.parent
        if P._is_zero(self.rep):
            raise ZeroDivisionError("inverse of zero")
        return P._elem(P._inv(self.rep))

    def __eq__(self, other):
        P = self.parent
        if other.__class__ is self.__class__ and (other.parent is P or other.parent == P):
            return P._eq(self.rep, other.rep)
        return self._equal(other)

    def is_zero(self) -> bool:
        return self.parent._is_zero(self.rep)

    def __pow__(self, n: int):
        if self._no_division is not None and not (isinstance(n, int) and n >= 0):
            raise self._no_division("powers must be nonnegative integers")
        if not isinstance(n, int):
            return NotImplemented
        P = self.parent
        return P._elem(_power(P, (self if n >= 0 else self.inverse()).rep, abs(n)))


def _power(dom, r, e: int):
    """The rep r^e in dom for an int e >= 0, by square-and-multiply."""
    mul = dom._mul
    out = dom._one_rep
    while e:
        if e & 1:
            out = mul(out, r)
        e >>= 1
        if e:       # no square past the top bit: a polynomial's may overflow
            r = mul(r, r)
    return out


class FieldElement(ScalarOps):
    """A value of one field of the tower, stored in canonical form.

    The operators are ``ScalarOps``'s, on the field's hooks: a result is
    ``field._elem`` of the hook's rep, a table lookup in a finite field.
    Elements are built only through ``field.element`` and ``field._elem``,
    so that a finite field only hands out its interned elements.
    """

    __slots__ = ("field", "rep")

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldElement is immutable")

    def __hash__(self):
        return self.field._rep_hash(self.rep)

    def __repr__(self):
        return self.field._render(self.rep)


_new = object.__new__
_set_field = FieldElement.field.__set__
_set_rep = FieldElement.rep.__set__
FieldElement.parent = FieldElement.field    # the name every scalar gives its domain


def _make(field: Field, rep) -> FieldElement:
    """A new element: the slot descriptors set directly, past the refusing
    ``__setattr__``, and no ``__init__`` call."""
    x = _new(FieldElement)
    _set_field(x, field)
    _set_rep(x, rep)
    return x


# the default hook: Q and number fields build a new element per result
Field._elem = _make


class _Interned(dict):
    """rep -> the one element of a finite field with that rep.

    ``field._elem`` is this map's ``__getitem__``, so a result that was seen
    before is a dict lookup and no allocation.  Entries are made on first
    use, so building a field costs what it did before interning: an eager
    list of all q elements would add about 50 ms and 4 MB to GF(2^16), for
    codes that most uses never meet.
    """

    __slots__ = ("field",)

    def __init__(self, field: Field):
        self.field = field

    def __missing__(self, rep):
        x = self[rep] = _make(self.field, rep)
        return x


class Rationals(Field):
    """The field of rational numbers.

    A rep is an ``int`` when the number is an integer and a
    ``fractions.Fraction`` with denominator > 1 otherwise, so sums and
    products of integers stay in C.  Every hook keeps that form: a
    Fraction result with denominator 1 becomes its numerator.  Since
    ``3 == Fraction(3)`` with equal hashes and text, a stray
    ``Fraction(3)`` costs speed, never a wrong answer; no rep is a float.
    """

    char = 0

    def _coerce(self, value):
        if isinstance(value, int):
            return int(value)           # a bool is no rep
        return value.numerator if value.denominator == 1 else value

    def _add(self, a, b):
        c = a + b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        c = a * b
        return c if c.__class__ is int or c.denominator != 1 else c.numerator

    def _inv(self, a):
        # never 1 / a, which is a float for an int a
        if a.__class__ is int:
            return a if a == 1 or a == -1 else Fraction(1, a)
        n, d = a.numerator, a.denominator
        return d * n if n == 1 or n == -1 else Fraction(d, n)

    def _render(self, a):
        n, d = a.numerator, a.denominator
        return _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


def _decimal(n: int) -> str:
    """str(n) for any size of n: the interpreter's limit on the digits of an
    int's text (4300 by default) guards parsing, so past it the digits are
    written in two halves."""
    try:
        return str(n)
    except ValueError:
        k = abs(n).bit_length() * 3 // 20      # about half of n's digits
        high, low = divmod(abs(n), 10 ** k)
        return "-" * (n < 0) + _decimal(high) + _decimal(low).zfill(k)


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
        super().__init__()
        self.p = p
        self.char = p
        if p <= MAX_FINITE_ORDER:
            self._elem = _Interned(self).__getitem__

    def order(self) -> int:
        return self.p

    def _coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        den = value.denominator % self.p
        if den == 0:
            raise FieldError(f"denominator of {value} vanishes mod {self.p}")
        return value.numerator * pow(den, -1, self.p) % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

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


# -- the univariate polynomial kernel ----------------------------------------
# A polynomial over a base field F is a list of F's reps, constant term
# first; results carry no trailing zero, so the zero polynomial is [].  Each
# helper takes F for its hooks (_add, _mul, _neg, _inv, _is_zero) and its
# reps of 0 and 1 (_zero_rep, _one_rep); anything that has those serves as F.


def _ptrim(a, F):
    while a and F._is_zero(a[-1]):
        a.pop()
    return a


def _psub(a, b, F):
    add, neg = F._add, F._neg
    out = list(a) + [F._zero_rep] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = add(out[i], neg(y))
    return _ptrim(out, F)


def _pmul(a, b, F):
    if not a or not b:
        return []
    add, mul, is_zero = F._add, F._mul, F._is_zero
    out = [F._zero_rep] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not is_zero(x):
            for k, y in enumerate(b, i):
                out[k] = add(out[k], mul(x, y))
    return _ptrim(out, F)


def _pdivmod(a, b, F):
    """(quotient, remainder) of a by b, whose top coefficient is nonzero.

    Each step cancels the top term of a, so its degree falls strictly and
    every quotient slot is written once.
    """
    add, mul, neg = F._add, F._mul, F._neg
    a, n = list(a), len(b) - 1
    q = [F._zero_rep] * max(0, len(a) - n)
    inv_lead = F._inv(b[-1]) if q else None
    while len(a) > n:
        d = len(a) - 1 - n
        c = q[d] = mul(a.pop(), inv_lead)
        c = neg(c)
        for i in range(n):
            a[d + i] = add(a[d + i], mul(c, b[i]))
    return _ptrim(q, F), _ptrim(a, F)


def _pgcd(a, b, F):
    """(g, s): the monic gcd g of a and b and an s with s b = g modulo a;
    both are [] when a = b = 0."""
    mul = F._mul
    s0, s1 = [], [F._one_rep]
    while b:
        q, r = _pdivmod(a, b, F)
        a, b = b, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, F), F)
    if not a:
        return [], []
    inv_lead = F._inv(a[-1])
    return [mul(c, inv_lead) for c in a], [mul(c, inv_lead) for c in s0]


class _Quotient:
    """F[x]/(m) on coefficient lists reduced modulo m, as much of a domain as
    ``_power`` reads: its 1 and a product followed by a remainder."""

    def __init__(self, m, F):
        self._m, self._F, self._one_rep = m, F, [F._one_rep]

    def _mul(self, a, b):
        return _pdivmod(_pmul(a, b, self._F), self._m, self._F)[1]


def _peval(a, x, F):
    add, mul = F._add, F._mul
    out = F._zero_rep
    for c in reversed(a):
        out = add(mul(out, x), c)
    return out


def _bracket_sum(text: str) -> str:
    """A coefficient's text before a monomial, bracketed when it is a sum:
    (1+w)s, not 1+ws."""
    return f"({text})" if any(ch in text[1:] for ch in "+-") else text


class _Extension(Field):
    """F(g) = F[x]/(m(x)) for a monic minimal polynomial m over the base F.

    The part shared by :class:`SimpleExtension` (characteristic 0) and
    :class:`FiniteField`: the normalised minimal polynomial, the refusal of
    reducible ones and of a generator name the tower already uses, the map
    of the tower's generators (``_record``), the step up from the base
    (``_up``), rendering and equality.  Each subclass supplies its
    representation through ``_lift`` (the rep of a base rep),
    ``_from_coefficients`` (the rep of a list of base reps, the coefficients
    of the powers of the generator, reduced modulo m) and ``_coefficients``
    (the base reps of the coefficients of a rep, constant first).
    """

    def __init__(self, base: Field, minpoly, name: str):
        if name in base._gens:
            raise FieldError(f"generator name {name!r} is taken in {base!r}")
        super().__init__()
        m = _ptrim([base.element(c).rep for c in minpoly], base)
        if len(m) < 3:
            raise FieldError("minimal polynomial must have degree at least 2")
        inv_lead = base._inv(m[-1])
        self._m = [base._mul(c, inv_lead) for c in m]       # monic
        self.base = self._below = base
        self.name = name
        self.minpoly = tuple(map(base._elem, self._m))
        self.degree = len(m) - 1
        self.char = base.char
        self._key = (base, self.minpoly, name)
        self._hash = hash(("ext", *self._key))

    def _refuse_factors(self):
        """Raise FieldError when m visibly factors over the base.

        For degree at most 3 that means a root in the base, which for those
        degrees is full irreducibility.  Over a finite base of order b
        higher degrees get the distinct-degree test: gcd(m, x^(b^d) - x) is
        the product of the irreducible factors of m whose degree divides d,
        so the first d <= deg(m)/2 where it is not 1 is the least degree of
        a factor, and the error names the first monic polynomial of that
        degree dividing the gcd.  Over an infinite base higher degrees are
        trusted to the caller.
        """
        base, m = self.base, self._m
        if self.degree <= 3:
            roots = _roots(base, self.minpoly)
            if roots:
                raise FieldError(
                    f"minimal polynomial has root {roots[0]!r} in {base!r}")
        elif base.is_finite():
            x = [base._zero_rep, base._one_rep]
            frob, ring = x, _Quotient(m, base)      # x^(b^d) mod m
            for d in range(1, self.degree // 2 + 1):
                frob = _power(ring, frob, base.order())
                g = _pgcd(m, _psub(frob, x, base), base)[0]
                if len(g) == 1:
                    continue
                for low in itertools.product(base.elements(), repeat=d):
                    factor = [*low, base.one()]
                    if not _pdivmod(g, [c.rep for c in factor], base)[1]:
                        raise FieldError(
                            f"minimal polynomial has the factor {factor} "
                            f"(constant first) over {base!r}")

    def _record(self, gen):
        """Set ``_gens``: the base's generators lifted, and this one's rep gen."""
        self._gens = {n: self._lift(r) for n, r in self.base._gens.items()}
        self._gens[self.name] = gen

    def generator(self) -> FieldElement:
        return self._elem(self._gens[self.name])

    def _up(self, x: FieldElement) -> FieldElement:
        return self._elem(self._lift(x.rep))

    def _coerce(self, value):
        return self._lift(self.base._coerce(value))

    def _rep_hash(self, a):
        """Hash a value by its rep in the lowest field of its tower holding it,
        so equal values hash alike; over GF(p) only the least residue's int does."""
        c = self._coefficients(a)
        if all(map(self.base._is_zero, c[1:])):
            return self.base._rep_hash(c[0])
        return hash((self, a))

    def _render(self, a):
        base = self.base
        return signed_sum((_bracket_sum(base._render(c)) if i else base._render(c),
                           "" if i == 0 else self.name if i == 1
                           else f"{self.name}^{i}")
                          for i, c in enumerate(self._coefficients(a))
                          if not base._is_zero(c))

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and other._key == self._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.base!r}({self.name})"


class SimpleExtension(_Extension):
    """A number field F(g) over Q or over another characteristic-0 extension.

    A rep is the tuple of the deg(m) base reps of the coefficients of
    1, g, ..., g^(deg m - 1).  Finite bases get a :class:`FiniteField`
    instead.
    """

    def __init__(self, base: Field, minpoly, name: str):
        if base.is_finite():
            raise FieldError(f"extensions of {base!r} are FiniteFields")
        super().__init__(base, minpoly, name)
        self._zero_rep = self._lift(base._zero_rep)
        self._one_rep = self._lift(base._one_rep)
        self._refuse_factors()
        self._record(self._from_coefficients([base._zero_rep, base._one_rep]))

    def _lift(self, r):
        return (r,) + (self.base._zero_rep,) * (self.degree - 1)

    def _from_coefficients(self, coeffs):
        rem = _pdivmod(coeffs, self._m, self.base)[1]
        return tuple(rem) + (self.base._zero_rep,) * (self.degree - len(rem))

    def _coefficients(self, a):
        return a

    def _add(self, a, b):
        return tuple(map(self.base._add, a, b))

    def _neg(self, a):
        return tuple(map(self.base._neg, a))

    def _mul(self, a, b):
        return self._from_coefficients(_pmul(a, b, self.base))

    def _inv(self, a):
        g, s = _pgcd(self._m, _ptrim(list(a), self.base), self.base)
        if len(g) != 1:
            raise FieldError("element is not invertible (reducible modulus?)")
        return self._from_coefficients(s)

    def _is_zero(self, a):
        return all(map(self.base._is_zero, a))


MAX_FINITE_ORDER = 1 << 16


class FiniteField(_Extension):
    """GF(q) = F[x]/(m(x)) over a finite F, which is GF(p) or a FiniteField.

    An element's rep is an integer code in range(q): the coefficients
    c_0, ..., c_{d-1} of 1, g, ..., g^(d-1), as codes of F, are the digits
    of a base-|F| number with c_0 the most significant.  ``elements()`` is
    range(q) in that order and a code is its own sort key.  Products and
    inverses are lookups in log/antilog tables, built once here from a
    primitive element; sums are XOR of codes in characteristic 2 and go
    through a Zech-logarithm table otherwise.  A field of more than
    MAX_FINITE_ORDER elements is refused before any other work, since every
    table has q entries.
    """

    def __init__(self, base: Field, minpoly, name: str):
        if not isinstance(base, (PrimeField, FiniteField)):
            raise FieldError(f"{base!r} is not a finite field")
        super().__init__(base, minpoly, name)
        b, d = base.order(), self.degree
        if b ** d > MAX_FINITE_ORDER:
            raise FieldError(f"{self!r} would have {b}^{d} elements, more "
                             f"than {MAX_FINITE_ORDER}")
        self._refuse_factors()
        self._elem = _Interned(self).__getitem__
        self._b, self._q = b, b ** d
        self._shift = b ** (d - 1)          # the code of c is c * shift
        self._one_rep = self._lift(base._one_rep)
        self._x = base._one_rep * b ** (d - 2)
        self._record(self._x)
        self._build_tables()

    def _build_tables(self):
        base, b, d, q, p = self.base, self._b, self.degree, self._q, self.char
        # the generator if it is primitive, else the first primitive code
        tests = [(q - 1) // r for r in _divisors(q - 1)[1:] if _is_prime(r)]
        ring = _Quotient(self._m, base)
        for g in itertools.chain((self._x,), range(1, q)):
            gv = _ptrim(self._coefficients(g), base)
            if all(_power(ring, gv, e) != ring._one_rep for e in tests):
                break
        # A code is also a base-p number whose digits are the coefficients
        # over GF(p), and a sum of elements adds those digits mod p.  So
        # v -> v * g is linear in the base-p digits of v: one lookup for
        # the low half of the digits, one for the high half, added up.
        n_digits, r = 0, 1
        while r < q:
            n_digits, r = n_digits + 1, r * p

        def images(positions):  # digit lists of u * g, u = 0, 1, ... having
            out = [[0] * n_digits]      # digits only at these positions
            for s in positions:
                rem = _pdivmod(_pmul(self._coefficients(p ** s), gv, base),
                               self._m, base)[1]
                img = sum(c * b ** (d - 1 - i) for i, c in enumerate(rem))
                img = [img // p ** t % p for t in range(n_digits)]
                out = [[(a + c * m) % p for a, m in zip(row, img)]
                       for c in range(p) for row in out]
            return out

        def pack(rows, width):  # digit t of a row at bit width * t
            return [sum(x << width * t for t, x in enumerate(row)) for row in rows]

        half = n_digits // 2
        split = p ** half
        low_img, high_img = images(range(half)), images(range(half, n_digits))
        unit = self._one_rep
        # digits sit in slots of `width` bits, wide enough for the sum of
        # two digits, so two images add as integers; `narrow` takes a group
        # of slots mod p back to base-p digits
        width = (2 * p - 2).bit_length()
        group = min(n_digits, max(1, 12 // width))
        low_img, high_img = pack(low_img, width), pack(high_img, width)
        slot, mask = (1 << width) - 1, (1 << width * group) - 1
        narrow = [0]
        for t in range(group):      # slot t is the high part of the index
            narrow = [v + s % p * p ** t for s in range(slot + 1) for v in narrow]
        groups = [(width * t, p ** t) for t in range(0, n_digits, group)]
        exp, v = [], unit
        for _ in range(q - 1):
            exp.append(v)
            high, low = divmod(v, split)
            wide = low_img[low] + high_img[high]
            v = sum(narrow[wide >> s & mask] * m for s, m in groups)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp + exp, log
        # zech[n] = log(1 + g^n), None where 1 + g^n = 0; adding 1 adds one
        # to the top base-p digit of a code, which is that of `unit`
        wrap = (p - 1) * unit
        sums = (v - wrap if v >= wrap else v + unit for v in exp)
        self._zech = [log[s] if s else None for s in sums]
        minus_one = log[self._lift(base._neg(base._one_rep))]
        self._negs = [0] + [self._exp[log[a] + minus_one] for a in range(1, q)]
        self._invs = [0] + [exp[-log[a]] for a in range(1, q)]
        if self.char == 2:
            self._add = operator.xor    # the same sums as _add, faster

    def order(self) -> int:
        return self._q

    def _lift(self, r):
        return r * self._shift

    def _from_coefficients(self, coeffs):
        return _peval([self._lift(c) for c in coeffs], self._x, self)

    def _coefficients(self, a):
        return [a // self._b ** i % self._b for i in reversed(range(self.degree))]

    def _add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def _neg(self, a):
        return self._negs[a]

    def _mul(self, a, b):
        if a and b:
            return self._exp[self._log[a] + self._log[b]]
        return 0

    def _inv(self, a):
        return self._invs[a]


def _divisors(n):
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


_rep = operator.attrgetter("rep")


def _roots(field: Field, coeffs) -> list:
    """Every root in ``field`` of the polynomial of degree 2 or 3 with the
    given coefficients (elements of ``field``, constant first), by rep.

    A finite field is searched.  In characteristic 0 a quadratic goes
    through the quadratic formula and a cubic over Q through
    ``_rational_roots``; any other polynomial gets [], so a cubic over a
    number field is trusted.  A root found other than by search is checked
    by substitution, and a failed check raises.
    """
    reps = [c.rep for c in coeffs]
    if field.is_finite():
        return [x for x in field.elements()
                if field._is_zero(_peval(reps, x.rep, field))]
    if len(coeffs) == 3:
        c, b, a = coeffs
        b, c = b / a, c / a
        found = [(s - b) / 2 for s in square_roots(b * b - 4 * c)]
    elif isinstance(field, Rationals):
        found = [field.element(x) for x in _rational_roots(reps)]
    else:
        return []
    for x in found:
        if not field._is_zero(_peval(reps, x.rep, field)):
            raise AssertionError(f"{x!r} is no root of {list(coeffs)}")
    return sorted(found, key=_rep)


def _rational_roots(coeffs) -> list:
    """The rational roots of a x^3 + b x^2 + c x + d, given its coefficients
    as Q reps, constant first.

    With y = a x they are y / a for the integer roots y of the monic
    g(y) = y^3 + b y^2 + a c y + a^2 d, which lie in [-B, B] for
    B = 1 + max(|b|, |a c|, |a^2 d|).  g is monotone between the roots of
    g' = 3y^2 + 2b y + a c, each within one of (-b -+ isqrt(b^2 - 3ac))/3;
    the cuts k, ..., k + 3 around each hold its floor and ceiling, so
    between two cuts g is monotone and bisection finds its integer root.
    """
    den = lcm(*(q.denominator for q in coeffs))
    d, c, b, a = (int(q * den) for q in coeffs)
    c, d = a * c, a * a * d

    def g(y):
        return ((y + b) * y + c) * y + d

    bound = 1 + max(abs(b), abs(c), abs(d))
    r = isqrt(max(b * b - 3 * c, 0))
    cuts = {-bound, bound}
    for k in ((-b - r - 1) // 3, (-b + r - 1) // 3):
        cuts.update(y for y in range(k, k + 4) if -bound < y < bound)
    cuts = sorted(cuts)
    ys = [y for y in cuts if g(y) == 0]
    for lo, hi in zip(cuts, cuts[1:]):
        rising = g(lo) < 0
        while g(lo) * g(hi) < 0 and hi - lo > 1:
            mid = (lo + hi) // 2
            if g(mid) == 0:
                ys.append(mid)
            lo, hi = (mid, hi) if (g(mid) < 0) == rising else (lo, mid)
    return [Fraction(y, a) for y in ys]


def _root_field(x) -> Field:
    """The domain of x, refused unless it is a field of the tower: a
    polynomial ring or F(d) has no root finder."""
    if not isinstance(x.parent, Field):
        raise FieldError(f"square roots are not supported over {x.parent!r}")
    return x.parent


def square_roots(x: FieldElement) -> list:
    """All square roots of x in its own field, by rep.

    Over a quadratic number field F(g), g^2 = e + f g, they come from the
    norm N and trace T over F: a root y has N(y)^2 = N(x),
    T(y)^2 = T(x) + 2 N(y) and y T(y) = x + N(y).  So y = (x + n) / s for
    each n with n^2 = N(x) and each nonzero s with s^2 = T(x) + 2n, and
    every such y is a root, since x (T(x) + 2n) = (x + n)^2.  A root of
    trace 0 is c (2g - f) for c in F, which squares to c^2 (f^2 + 4e).
    A constant of F[d] or F(d) that is a square in F has F's roots.  Every
    other value of those domains is refused, a constant that is no square
    in F too: its roots would need an extension of F(d), which the tower
    does not build.
    """
    c = None if isinstance(x.parent, Field) else x.parent._constant(x)
    roots = [] if c is None else square_roots(c)
    if roots:
        return [x.parent.element(y) for y in roots]
    field = _root_field(x)
    if field.is_finite():
        return _roots(field, [-x, field.zero(), field.one()])
    if isinstance(field, Rationals):
        num, den = x.rep.numerator, x.rep.denominator
        if num < 0 or isqrt(num) ** 2 != num or isqrt(den) ** 2 != den:
            return []
        r = Fraction(isqrt(num), isqrt(den))
        return sorted({field.element(-r), field.element(r)}, key=_rep)
    if (isinstance(field, SimpleExtension) and field.degree % 2
            and all(map(field.base._is_zero, x.rep[1:]))):
        # y^2 = x in the base F: [F(y):F] is 1 or 2 and divides the odd degree
        return [field.embed(y) for y in square_roots(field.base._elem(x.rep[0]))]
    if not (isinstance(field, SimpleExtension) and field.degree == 2):
        raise FieldError(f"square roots are not supported over {field!r}")
    e, f = (-c for c in field.minpoly[:2])
    u, v = map(field.base._elem, x.rep)
    norm, trace = u * u + f * u * v - e * v * v, 2 * u + f * v
    found = [field.element([(u + n) / s, v / s]) for n in square_roots(norm)
             for s in square_roots(trace + 2 * n) if not s.is_zero()]
    if v.is_zero():
        found += [field.element([-c * f, 2 * c])
                  for c in square_roots(u / (f * f + 4 * e))]
    return sorted(found, key=_rep)


def quadratic_roots(a: FieldElement, b: FieldElement, c: FieldElement) -> list:
    """All roots of a*x**2 + b*x + c in the highest field of a, b, c, by rep
    (see ``_roots``)."""
    field = _root_field(a._common(b)[0]._common(c)[0])
    a, b, c = map(field.element, (a, b, c))
    if a.is_zero():
        raise FieldError("leading coefficient is zero")
    return _roots(field, [c, b, a])


def extend_with_root(field: Field, minpoly, name: str):
    """Adjoin a root of the given polynomial (constant-first coefficients).

    Returns ``(extension, embed)`` where ``embed`` maps old elements into the
    extension.  Degree 2 and 3 polynomials are refused if they already have a
    root in ``field``.
    """
    ext = (FiniteField if field.is_finite() else SimpleExtension)(field, minpoly, name)
    return ext, ext.embed


RATIONALS = Rationals()


def prime_field(char: int) -> Field:
    """The prime field of characteristic char: Q for 0, GF(char) otherwise."""
    return RATIONALS if char == 0 else PrimeField(char)


def gf4() -> FiniteField:
    """GF(4) as GF(2)(w) with w**2 + w + 1 = 0."""
    return FiniteField(PrimeField(2), [1, 1, 1], "w")


def gf16() -> FiniteField:
    """GF(16) as a quadratic extension of GF(4): s**2 + s + w = 0."""
    base = gf4()
    w = base.generator()
    return FiniteField(base, [w, base.one(), base.one()], "s")
