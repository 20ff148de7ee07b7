"""Exact scalar domains: primes, rationals, quadratic and quartic extensions."""

import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from nilalg3.catalogue import AlgebraId, adelta, quarter
from nilalg3.degeneration import known_witness
from nilalg3.fields import (MAX_FINITE_ORDER, Field, FieldError, FiniteField,
                            NeedsFieldExtension, PrimeField, RATIONALS,
                            SimpleExtension, _rational_roots, extend_with_root,
                            gf4, gf16, quadratic_roots, square_roots)
from nilalg3.ioformats import describe_field, parse_field, parse_scalar
from nilalg3.polyring import PolyRing, PolyRingError, RationalFunctionField


def test_prime_field_arithmetic():
    F = PrimeField(7)
    a, b = F.element(3), F.element(5)
    assert (a + b).rep == 1
    assert (a * b).rep == 1
    assert (a - b).rep == 5
    assert (a / b).rep == 2      # 3 * 5^-1 = 3 * 3 = 2
    assert (-a).rep == 4
    assert (a ** 6).rep == 1     # Fermat
    assert a ** 0 == F.one()
    assert (a ** -1) * a == F.one()


def test_prime_field_fraction_coercion():
    F = PrimeField(7)
    assert F.element(Fraction(1, 2)) == F.element(4)
    assert F.element(10) == F.element(3)
    with pytest.raises(FieldError):
        F.element(Fraction(1, 7))


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(FieldError):
        PrimeField(6)


def test_rationals_are_exact():
    q = RATIONALS.element(Fraction(1, 3))
    assert (q + q + q) == RATIONALS.one()
    assert RATIONALS.char == 0
    assert not RATIONALS.is_finite()


def _is_q_rep(r) -> bool:
    """The rep convention of Q: an int when integral, else a Fraction with
    denominator > 1; never a bool or a float."""
    return type(r) is int or (type(r) is Fraction and r.denominator > 1)


def _q_operands() -> list:
    """Seeded Q reps: small, big and negative ints, and proper fractions,
    among them pairs whose sums and products cancel to integers."""
    rng = random.Random("q-hooks")
    ints = [0, 1, -1, 2, -3, 10 ** 30 + 7, -(3 ** 70)]
    ints += [rng.randint(-10 ** 40, 10 ** 40) for _ in range(5)]
    fracs = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(2, 3),
             Fraction(1, 3), Fraction(-1, 3), Fraction(-7, 10 ** 25)]
    fracs += [Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.randint(2, 10 ** 20))
              for _ in range(5)]
    return ints + [f for f in fracs if f.denominator > 1]


def test_rational_hooks_are_fraction_arithmetic_in_the_rep_convention():
    Q = RATIONALS
    ops = _q_operands()
    assert all(map(_is_q_rep, ops))
    for a, b in itertools.product(ops, repeat=2):
        for got, want in ((Q._add(a, b), Fraction(a) + Fraction(b)),
                          (Q._mul(a, b), Fraction(a) * Fraction(b))):
            assert got == want and _is_q_rep(got), (a, b, got)
    for a in ops:
        assert Q._neg(a) == -Fraction(a) and _is_q_rep(Q._neg(a))
        assert Q._is_zero(a) == (a == 0)
        if a:
            assert Q._inv(a) == 1 / Fraction(a) and _is_q_rep(Q._inv(a)), a
    # the cancellations, by name
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert type(Q._add(half, half)) is int and Q._add(half, half) == 1
    assert type(Q._add(third, -third)) is int and Q._add(third, -third) == 0
    assert type(Q._mul(Fraction(3, 2), Fraction(2, 3))) is int
    assert Q._inv(third) == 3 and type(Q._inv(third)) is int
    assert Q._inv(-1) == -1 and type(Q._inv(-1)) is int
    assert Q._inv(-third) == -3 and type(Q._inv(-third)) is int
    assert Q._inv(4) == Fraction(1, 4) and Q._inv(-4) == Fraction(-1, 4)
    # coercion: int, bool, Fraction(n, 1), proper Fraction (the hook sees
    # nothing else; an element goes through Q.element)
    for value, want in ((7, 7), (-10 ** 30, -10 ** 30), (True, 1), (False, 0),
                        (Fraction(6, 3), 2), (Fraction(-5, 1), -5),
                        (Fraction(-2, 6), Fraction(-1, 3))):
        got = Q._coerce(value)
        assert got == want and _is_q_rep(got), value
    assert Q.element(Q.element(Fraction(9, 3))).rep == 3
    assert Q.zero().rep == 0 and Q.one().rep == 1
    assert type(Q.zero().rep) is int and type(Q.one().rep) is int


@pytest.mark.parametrize("num, den", [(2, 1), (3, 2)])
def test_one_rational_is_one_element_by_every_route(num, den):
    Q = RATIONALS
    value = Fraction(num, den)
    Qi = SimpleExtension(Q, [1, 0, 1], "i")
    Qr = parse_field({"char": 0, "ext": {"name": "r", "min_poly": [-num, 0, den]}})
    routes = {
        "int or Fraction": Q.element(num if den == 1 else value),
        "Fraction(3n, 3d)": Q.element(Fraction(3 * num, 3 * den)),
        "parse_scalar": parse_scalar(f"{3 * num}/{3 * den}", Q),
        # (den x - num)(x^2 + 1), constant first
        "_rational_roots": Q.element(_rational_roots([-num, den, -num, den])[0]),
        "square_roots": square_roots(Q.element(value * value))[1],
        "Q(i) coefficient": Q._elem((Qi.element([value, 0]) * Qi.element([1, 1])).rep[1]),
        "describe_field": -parse_field(describe_field(Qr)).minpoly[0],
    }
    ref = routes["int or Fraction"]
    for route, x in routes.items():
        assert x == ref and hash(x) == hash(ref) and repr(x) == repr(ref), route
        assert type(x.rep) is (int if den == 1 else Fraction), route
    assert parse_field(describe_field(Qr)) is Qr


def test_known_witness_over_q_is_one_cache_entry_by_two_routes():
    Q = RATIONALS
    first = known_witness(adelta(Q, quarter(Q)), AlgebraId("l1"), Q)
    assert first is not None
    curves = [key for key in Q._kept if key[0] == "curve"]
    again = known_witness(adelta(Q, parse_scalar("2/8", Q)), AlgebraId("l1"), Q)
    assert again is first
    assert [key for key in Q._kept if key[0] == "curve"] == curves


def test_mixed_operand_coercion():
    F = PrimeField(5)
    x = F.element(2)
    assert x + 1 == F.element(3)
    assert 1 + x == F.element(3)
    assert 3 * x == F.element(1)
    assert x - 7 == F.element(0)
    assert x == 2 and x != 3


def test_field_equality_is_structural():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(5)
    assert gf4() == gf4()
    assert PrimeField(7).element(3) == PrimeField(7).element(3)


def test_gf4_structure():
    F = gf4()
    w = F.generator()
    assert F.order() == 4
    assert F.char == 2
    assert w * w == w + 1          # w^2 + w + 1 = 0
    assert w ** 3 == F.one()
    elems = list(F.elements())
    assert len(elems) == 4
    nonzero = [x for x in elems if not x.is_zero()]
    for x in nonzero:
        assert x * x.inverse() == F.one()


def test_gf16_structure():
    F = gf16()
    assert F.order() == 16
    assert F.char == 2
    elems = list(F.elements())
    assert len(set(elems)) == 16
    g = F.generator()
    # the multiplicative order of the generator divides 15
    assert g ** 15 == F.one()
    assert g ** 5 != F.one() or g ** 3 != F.one()


def test_extension_reprs_are_injective():
    # a compound GF(4) coefficient of s is bracketed, so no two of the
    # sixteen elements of GF(16) = GF(4)(s) print alike
    reprs = [repr(x) for x in gf16().elements()]
    assert len(set(reprs)) == 16
    assert {"(1+w)s", "1+(1+w)s", "1+ws", "1+w+ws"} <= set(reprs)
    # one level over Q or GF(p) renders as it always has
    assert [repr(x) for x in gf4().elements()] == ["0", "w", "1", "1+w"]
    Qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")
    Q5 = SimpleExtension(RATIONALS, [-5, 0, 1], "r")
    samples = {(Qi, (0, Fraction(3, 2))): "3/2i",
               (Qi, (Fraction(-3, 2), -2)): "-3/2-2i",
               (Qi, (1, Fraction(3, 2))): "1+3/2i",
               (Qi, (0, -1)): "-i",
               (Q5, (Fraction(4, 3), -1)): "4/3-r",
               (Q5, (5, Fraction(-1, 2))): "5-1/2r",
               (Q5, (2, 3)): "2+3r"}
    for (field, rep), text in samples.items():
        assert repr(field.element(list(rep))) == text


def test_extension_embed_chain():
    F = gf16()
    base = F.base if isinstance(F, SimpleExtension) else F
    one = PrimeField(2).one()
    assert F.embed(one) == F.one()


def test_embed_refusal_names_the_field_asked_for():
    # the refusal comes from the bottom of the tower, but names the top
    Qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")
    with pytest.raises(FieldError) as exc:
        Qi.embed(PrimeField(7).one())
    assert str(exc.value) == "cannot embed element of GF(7) into QQ(i)"
    with pytest.raises(FieldError) as exc:
        gf4().embed(gf16().generator())
    assert str(exc.value) == "cannot embed element of GF(2)(w)(s) into GF(2)(w)"


def test_square_roots_rationals():
    r = square_roots(RATIONALS.element(Fraction(9, 4)))
    assert sorted(x.rep for x in r) == [Fraction(-3, 2), Fraction(3, 2)]
    assert square_roots(RATIONALS.element(2)) == []
    assert square_roots(RATIONALS.zero()) == [RATIONALS.zero()]


def test_square_roots_prime_field():
    F = PrimeField(7)
    r = square_roots(F.element(2))
    assert len(r) == 2
    for x in r:
        assert x * x == F.element(2)
    assert square_roots(F.element(3)) == []   # 3 is not a QR mod 7


def test_square_roots_char2_unique():
    for F in (gf4(), gf16()):
        for x in F.elements():
            r = square_roots(x)
            assert len(r) == 1
            assert r[0] * r[0] == x


def test_quadratic_roots_verified_by_substitution():
    rng = random.Random(5)
    F = PrimeField(11)
    for _ in range(40):
        a = F.element(rng.randrange(1, 11))
        b = F.element(rng.randrange(11))
        c = F.element(rng.randrange(11))
        for x in quadratic_roots(a, b, c):
            assert a * x * x + b * x + c == F.zero()


def test_quadratic_roots_char0():
    a, b, c = (RATIONALS.element(v) for v in (1, -3, 2))
    roots = quadratic_roots(a, b, c)
    assert sorted(x.rep for x in roots) == [1, 2]
    assert quadratic_roots(RATIONALS.one(), RATIONALS.zero(),
                           RATIONALS.one()) == []


def test_extend_with_root():
    ext, emb = extend_with_root(RATIONALS, [-5, 0, 1], "s")
    s = ext.generator()
    assert s * s == emb(RATIONALS.element(5))
    assert (1 + s) * (1 - s) == emb(RATIONALS.element(-4))
    q = ext.element(Fraction(2, 3))
    assert q * 3 == ext.from_int(2)


def test_extend_with_root_rejects_reducible():
    with pytest.raises(FieldError, match="has root -2 in QQ"):
        extend_with_root(RATIONALS, [-4, 0, 1], "s")    # x^2 - 4 = (x-2)(x+2)
    with pytest.raises(FieldError):
        extend_with_root(PrimeField(7), [-2, 0, 1], "s")  # 2 = 3^2 mod 7


def test_square_roots_in_quadratic_number_fields():
    # (a + b g)^2 = x over Q(g): b = 0 and a = 0 when x has no g term,
    # else a quadratic in b^2
    Qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")
    i = Qi.generator()
    assert [repr(y) for y in square_roots(2 * i)] == ["-1-i", "1+i"]
    assert square_roots(i) == []
    assert [repr(y) for y in square_roots(Qi.from_int(-1))] == ["-i", "i"]
    assert [repr(y) for y in square_roots(Qi.from_int(4))] == ["-2", "2"]
    Q5 = SimpleExtension(RATIONALS, [-5, 0, 1], "r")
    r = Q5.generator()
    assert [repr(y) for y in square_roots(6 + 2 * r)] == ["-1-r", "1+r"]


def test_square_roots_of_the_base_in_a_cubic_number_field():
    # Q(g), g^3 = 2, has odd degree over Q: a square root of a rational
    # number lies in Q or nowhere in Q(g)
    Qg = SimpleExtension(RATIONALS, [-2, 0, 0, 1], "g")
    assert [repr(y) for y in square_roots(Qg.from_int(4))] == ["-2", "2"]
    assert [repr(y) for y in square_roots(Qg.element(Fraction(9, 4)))] == \
        ["-3/2", "3/2"]
    assert square_roots(Qg.from_int(3)) == []
    assert square_roots(Qg.zero()) == [Qg.zero()]
    with pytest.raises(FieldError, match="not supported"):
        square_roots(Qg.generator())


# min_poly [-e, -f, 1] by g^2 = e + f g; the first two have f != 0
QUADRATIC_MIN_POLYS = {"g+1": [-1, -1, 1], "g+3": [-3, -1, 1], "-1": [1, 0, 1],
                       "2": [-2, 0, 1], "-2g-2": [2, 2, 1]}


@pytest.mark.parametrize("min_poly", QUADRATIC_MIN_POLYS.values(),
                         ids=QUADRATIC_MIN_POLYS.keys())
def test_square_roots_of_squares_are_plus_and_minus(min_poly):
    F = SimpleExtension(RATIONALS, min_poly, "g")
    for a, b in itertools.product(range(-4, 5), repeat=2):
        y = F.element([a, b])
        assert square_roots(y * y) == sorted({y, -y}, key=lambda x: x.rep)


def test_roots_over_a_quadratic_field_with_a_trace_term():
    F = SimpleExtension(RATIONALS, [-3, -1, 1], "g")     # g^2 = g + 3
    one, zero = F.one(), F.zero()
    assert quadratic_roots(one, zero, -3 * one) == []
    assert [repr(x) for x in quadratic_roots(one, zero, -13 * one)] == [
        "-1+2g", "1-2g"]
    # 13 = (2g - 1)^2, so x^2 - 13 is reducible over Q(g)
    with pytest.raises(FieldError, match=r"has root -1\+2g in QQ\(g\)"):
        SimpleExtension(F, [-13, 0, 1], "r")


def _rational_roots_by_divisors(ints):
    """The rational roots p/q of an integer polynomial (constant first),
    p dividing its lowest nonzero coefficient and q its leading one."""
    low = next(c for c in ints if c)
    found = {Fraction(0)} if ints[0] == 0 else set()
    for p in range(1, abs(low) + 1):
        for q in range(1, abs(ints[-1]) + 1):
            for x in (Fraction(p, q), Fraction(-p, q)):
                if low % p == 0 and ints[-1] % q == 0 and not sum(
                        c * x ** k for k, c in enumerate(ints)):
                    found.add(x)
    return sorted(found)


def test_cubics_over_q_are_refused_naming_their_least_rational_root():
    rng = random.Random(15)
    refused = 0
    for n in range(400):
        if n % 2:
            ints = [rng.randint(-30, 30) for _ in range(3)] + [rng.randint(1, 6)]
        else:   # (q x - p) times a quadratic
            p, q = rng.randint(-12, 12), rng.randint(1, 4)
            c0, c1, c2 = (rng.randint(-5, 5) for _ in range(3))
            c2 = c2 or 1
            ints = [-p * c0, q * c0 - p * c1, q * c1 - p * c2, q * c2]
        roots = _rational_roots_by_divisors(ints)
        if not roots:
            extend_with_root(RATIONALS, ints, "s")
            continue
        with pytest.raises(FieldError, match=f"has root {roots[0]} in QQ$"):
            extend_with_root(RATIONALS, ints, "s")
        refused += 1
    assert 200 <= refused < 400


def test_number_field_extensions_refuse_a_root_in_the_base():
    Qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")
    with pytest.raises(FieldError, match="has root -i"):
        SimpleExtension(Qi, [1, 0, 1], "j")
    Qij = SimpleExtension(Qi, [-2, 0, 1], "j")      # Q(i, sqrt 2)
    i, j = Qij.embed(Qi.generator()), Qij.generator()
    assert j * j == 2 and (i + j) ** 2 == 1 + 2 * i * j
    assert (i + j) * (i + j).inverse() == 1
    assert repr((i + j).inverse()) == "-1/3i+1/3j"


def test_extensions_refuse_a_generator_name_of_their_tower():
    # two generators of one name would print alike: r + r in Q(r)(r)
    Q5 = SimpleExtension(RATIONALS, [-5, 0, 1], "r")
    with pytest.raises(FieldError, match="name 'r'"):
        SimpleExtension(Q5, [-2, 0, 1], "r")
    with pytest.raises(FieldError, match="name 'w'"):
        extend_with_root(gf16(), [gf16().element([0, 1]), 1, 1], "w")
    assert repr(SimpleExtension(Q5, [-2, 0, 1], "r1")) == "QQ(r)(r1)"


def _first_factor_by_trial_division(p, minpoly):
    """The first monic factor of degree at most deg/2, in the order of
    itertools.product over the lower coefficients, or None."""
    n = len(minpoly) - 1
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            factor, rem = [*low, 1], list(minpoly)
            for k in range(n - d, -1, -1):      # factor is monic
                c = rem[k + d]
                for j in range(d + 1):
                    rem[k + j] = (rem[k + j] - c * factor[j]) % p
            if not any(rem):
                return factor
    return None


@pytest.mark.parametrize("p, degrees", [(2, (4, 5, 6)), (3, (4,))])
def test_refused_minimal_polynomials_are_those_with_a_factor(p, degrees):
    refused = 0
    for n in degrees:
        for low in itertools.product(range(p), repeat=n):
            minpoly = [*low, 1]
            factor = _first_factor_by_trial_division(p, minpoly)
            if factor is None:
                FiniteField(PrimeField(p), minpoly, "x")
                continue
            with pytest.raises(FieldError) as info:
                FiniteField(PrimeField(p), minpoly, "x")
            assert f"has the factor {factor} (constant first)" in str(info.value)
            refused += 1
    # GF(2): 16 - 3, 32 - 6 and 64 - 9 reducible; GF(3): 81 - 18
    assert refused == {2: 13 + 26 + 55, 3: 63}[p]


def test_needs_field_extension_is_a_field_error():
    assert issubclass(NeedsFieldExtension, FieldError)


# -- derived operators shared by FieldElement, MultiPoly and RationalFunction --

DERIVED = {
    "a - b": lambda a, b: a - b,
    "2 - a": lambda a, b: 2 - a,
    "a / b": lambda a, b: a / b,
    "1 / a": lambda a, b: 1 / a,
    "a ** 3": lambda a, b: a ** 3,
    "a ** 0": lambda a, b: a ** 0,
    "a ** -2": lambda a, b: a ** -2,
}

# one row per operand kind, in the order of DERIVED; a class is the error raised
DERIVED_RESULTS = {
    "Q": ("13/2", "1/2", "-3/10", "2/3", "27/8", "1", "4/9"),
    "GF4": ("1", "w", "1+w", "1+w", "1", "1", "w"),
    "MultiPoly": ("-x*y+x+3", "-x", TypeError, TypeError, "x^3+6*x^2+12*x+8",
                  "1", PolyRingError),
    "RationalFunction": ("(-t^3+4*t+1)/(t)", "(t-1)/(t)", "(t+1)/(t^3-3*t)",
                         "(t)/(t+1)", "(t^3+3*t^2+3*t+1)/(t^3)", "1",
                         "(t^2)/(t^2+2*t+1)"),
}


def _operands(kind):
    if kind == "Q":
        return RATIONALS.element(Fraction(3, 2)), RATIONALS.element(-5)
    if kind == "GF4":
        w = gf4().generator()
        return w, w + 1
    if kind == "MultiPoly":
        x, y = PolyRing(RATIONALS, ("x", "y")).gens()
        return x + 2, x * y - 1
    t = RationalFunctionField(RATIONALS).gen()
    return (t + 1) / t, t * t - 3


@pytest.mark.parametrize("kind", sorted(DERIVED_RESULTS))
def test_derived_operators(kind):
    a, b = _operands(kind)
    for (label, op), want in zip(DERIVED.items(), DERIVED_RESULTS[kind]):
        if isinstance(want, str):
            assert str(op(a, b)) == want, label
        else:
            with pytest.raises(want):
                op(a, b)


def test_derived_operator_errors():
    x, y = PolyRing(RATIONALS, ("x", "y")).gens()
    q = RATIONALS.element(3)
    K = RationalFunctionField(RATIONALS)
    t = K.gen()
    for bad in (-1, 1.5):
        with pytest.raises(PolyRingError):
            x ** bad
    for op in (lambda: x / y, lambda: x / 2, lambda: 2 / x, lambda: q / x,
               lambda: x / q):
        with pytest.raises(TypeError):
            op()
    # a polynomial in t divides by a rational function in t, and the reverse
    u = K.ring.var("t")
    assert str(u / (t + 1)) == "(t)/(t+1)"
    assert str((t + 1) / u) == "(t+1)/(t)"
    for r in (q, t):
        with pytest.raises(TypeError):
            r ** 1.5
    for zero in (RATIONALS.zero(), gf4().zero(), K.zero()):
        for op in (lambda: 1 / zero, lambda: zero ** -1, lambda: zero / 0):
            with pytest.raises(ZeroDivisionError):
                op()


# -- the table-backed finite fields --------------------------------------------


FINITE = {"GF4": gf4(),
          "GF8": FiniteField(PrimeField(2), [1, 1, 0, 1], "x"),
          "GF9": FiniteField(PrimeField(3), [1, 0, 1], "i"),
          "GF16": gf16(),
          "GF49": FiniteField(PrimeField(7), [-3, 0, 1], "r")}


def _triples(F):
    elems = list(F.elements())
    if F.order() <= 16:
        return itertools.product(elems, repeat=3)
    rng = random.Random(49)
    return [(rng.choice(elems), rng.choice(elems), rng.choice(elems))
            for _ in range(3000)]


@pytest.mark.parametrize("name", sorted(FINITE))
def test_finite_field_ring_axioms(name):
    F = FINITE[name]
    for a, b, c in _triples(F):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("name", sorted(FINITE))
def test_finite_field_inverses_and_negatives(name):
    F = FINITE[name]
    elems = list(F.elements())
    assert len(set(elems)) == F.order() == len(elems)
    assert elems[0] == F.zero()
    for a in elems:
        assert a + (-a) == F.zero()
        if not a.is_zero():
            assert a * a.inverse() == F.one()


@pytest.mark.parametrize("name", sorted(FINITE))
def test_finite_field_generator_is_a_root(name):
    F = FINITE[name]
    g = F.generator()
    value = F.zero()
    for i, c in enumerate(F.minpoly):
        value = value + F.embed(c) * g ** i
    assert value.is_zero()
    assert len({g ** i for i in range(F.degree)}) == F.degree


@pytest.mark.parametrize("name", sorted(FINITE))
def test_finite_field_element_is_the_image_of_an_integer(name):
    F = FINITE[name]
    total = F.zero()
    for m in range(3 * F.char + 2):
        assert F.element(m) == F.from_int(m) == total
        assert F.element(-m) == -total
        total = total + F.one()
    if F.char != 2:
        assert F.element(Fraction(1, 2)) * 2 == F.one()


@pytest.mark.parametrize("name", sorted(FINITE))
def test_finite_field_embedding_preserves_sums_and_products(name):
    F = FINITE[name]
    base = list(F.base.elements())
    for a, b in itertools.product(base, repeat=2):
        assert F.embed(a + b) == F.embed(a) + F.embed(b)
        assert F.embed(a * b) == F.embed(a) * F.embed(b)
    assert F.embed(F.base.one()) == F.one()
    assert len({F.embed(a) for a in base}) == len(base)


def test_gf16_elements_keep_their_order():
    # test_degeneration.SAMPLED_PARAMETERS takes the first ten elements in
    # this order as its sampled members of the family over GF(16)
    assert [repr(x) for x in gf16().elements()] == [
        "0", "ws", "s", "(1+w)s", "w", "w+ws", "w+s", "w+(1+w)s",
        "1", "1+ws", "1+s", "1+(1+w)s", "1+w", "1+w+ws", "1+w+s",
        "1+w+(1+w)s"]


def test_finite_field_order_is_bounded():
    # 13^12 elements: refused before any irreducibility or table work
    with pytest.raises(FieldError):
        FiniteField(PrimeField(13), [2] + [0] * 11 + [1], "x")
    with pytest.raises(FieldError):
        FiniteField(PrimeField(2), [1] + [0] * 16 + [1], "x")
    big = FiniteField(PrimeField(2), [1] + [0] * 10 + [1, 0, 1, 0, 1, 1], "x")
    assert big.order() == MAX_FINITE_ORDER == 1 << 16


def test_finite_bases_extend_to_finite_fields():
    ext, emb = extend_with_root(PrimeField(7), [-3, 0, 1], "r")
    assert isinstance(ext, FiniteField) and ext == FINITE["GF49"]
    assert emb(PrimeField(7).element(3)) == ext.generator() ** 2
    with pytest.raises(FieldError):
        SimpleExtension(PrimeField(7), [-3, 0, 1], "r")


# -- table construction at the largest allowed orders ---------------------------

# (p, min_poly constant first, sha256 of the tables).  The digests were taken
# from the earlier construction, which walked the powers one coefficient
# list at a time; the integer walk must give the same codes and tables.
LARGE = {
    "GF(2^16)": (2, [1, 1, 0, 1] + [0] * 8 + [1, 0, 0, 0, 1],
                 "00fff44d49e6a6e513b3c44b4531f0286606bb84c4f6980ee3406d4df8436036"),
    "GF(2^16) x not primitive": (
        2, [1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1],
        "babe858f5eb113063834be20493d107ea40031a49f101fa8d630adc80889191c"),
    "GF(3^10)": (3, [2, 1, 2, 1, 2, 2, 2, 2, 0, 1, 1],
                 "e01a4afa5ed47edc284257757dd051a6636a67a75528af44f5c41f15b764274d"),
    "GF(3^10) x not primitive": (
        3, [1, 1, 0, 2, 2, 1, 1, 0, 1, 0, 1],
        "1a3ffca7b79ceaf0dc9cff41a61d66baebfede18c52aa32147441f71dbb8bee4"),
}


@functools.lru_cache(maxsize=None)
def _large(name):
    p, minpoly, _ = LARGE[name]
    return FiniteField(PrimeField(p), minpoly, "x")


def _table_digest(F):
    h = hashlib.sha256()
    for table in (F._exp, F._log, F._zech, F._negs, F._invs):
        h.update(repr(table).encode())
    return h.hexdigest()


def test_tables_are_those_of_the_coefficient_walk():
    for name, (_, _, digest) in LARGE.items():
        assert _table_digest(_large(name)) == digest, name
    g9 = FINITE["GF9"]
    i = g9.generator()
    towers = {   # GF(81) as GF(9)(y): neither generator y is primitive
        (i, 1, 1): "b52b8232a5f8fd6496c7e22be795a83627ce5c3d3d6379261733a3f12d6c9590",
        (i, 1, 0, 1): "002fdf6a3e753b0816f9e0ed312cc8099b8ee2e35b2cbd6f282decd16fb4ea09",
    }
    for minpoly, digest in towers.items():
        assert _table_digest(FiniteField(g9, list(minpoly), "y")) == digest
    assert _table_digest(gf4()) == (
        "2b06a0dfa7011c12bad88d76ee43257bf3eec509ae136737458247f5b17f2ac9")
    assert _table_digest(gf16()) == (
        "b835f1615d7b5e8f4cc5ed0b35f70fb0d9923585812a9c89e888c3c0f6257884")


def test_tables_pin_the_powers_of_the_primitive_element():
    # entries taken from the construction that raised coefficient lists to
    # powers modulo m by a square-and-multiply of its own; the primitive
    # test and the refusal of reducible m now run fields._power instead
    cases = [
        (gf4(), [2, 1, 3], {3: 2}),
        (gf16(), [8, 2, 6, 7], {2: 1, 3: 11, 5: 9}),
        (_large("GF(2^16)"), [32768, 16384, 8192, 4096],
         {3: 49608, 5: 33666, 40000: 18473}),
        (_large("GF(2^16) x not primitive"), [32768, 3, 20631, 7015],
         {2: 58188, 3: 1, 40000: 64151}),
    ]
    for F, exp, log in cases:
        assert F._exp[:len(exp)] == exp
        assert {v: F._log[v] for v in log} == log


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_field_exp_and_log_are_inverse_bijections(name):
    F = _large(name)
    q = F.order()
    exp, log = F._exp[:q - 1], F._log
    assert sorted(exp) == list(range(1, q))
    assert all(log[v] == n for n, v in enumerate(exp))


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_field_products_are_polynomial_products(name):
    p, minpoly, _ = LARGE[name]
    F = _large(name)
    d = len(minpoly) - 1

    def code(coeffs):   # c_0 is the most significant base-p digit
        return sum(c * p ** (d - 1 - i) for i, c in enumerate(coeffs))

    def mulmod(u, v):
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                prod[i + j] = (prod[i + j] + a * b) % p
        for k in range(2 * d - 2, d - 1, -1):     # minpoly is monic
            c = prod[k]
            for j in range(d + 1):
                prod[k - d + j] = (prod[k - d + j] - c * minpoly[j]) % p
        return prod[:d]

    rng = random.Random(f"products-{name}")
    for _ in range(1000):
        u = [rng.randrange(p) for _ in range(d)]
        v = [rng.randrange(p) for _ in range(d)]
        a, b = F.element(u), F.element(v)
        assert (a.rep, b.rep) == (code(u), code(v))
        assert (a * b).rep == code(mulmod(u, v))


# -- interned elements of finite fields ----------------------------------------


INTERNED = {"GF7": PrimeField(7), "GF4": gf4(), "GF16": gf16()}


@pytest.mark.parametrize("name", sorted(INTERNED))
def test_finite_field_hands_out_one_element_per_code(name):
    F = INTERNED[name]
    elems = list(F.elements())
    assert all(x is y for x, y in zip(elems, F.elements()))
    by_rep = {x.rep: x for x in elems}
    assert all(F.element(x) is x for x in elems)
    assert all(F.element(n) is F.element(n) for n in range(-3, 10))
    assert F.zero() is by_rep[0] and F.one() is F.element(1)
    for a, b in itertools.product(elems[:8], elems[-8:]):
        for r in (a + b, a - b, a * b, -a):
            assert r is by_rep[r.rep]
        if not b.is_zero():
            assert a / b is by_rep[(a / b).rep]
            assert b.inverse() is by_rep[b.inverse().rep]


@pytest.mark.parametrize("x", [gf16().generator(), PrimeField(7).element(3),
                               RATIONALS.element(Fraction(1, 2))],
                         ids=["GF16", "GF7", "Q"])
def test_elements_are_immutable(x):
    rep, field = x.rep, x.field
    for attr, value in (("rep", 0), ("field", RATIONALS), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(x, attr, value)
    for attr in ("rep", "field"):
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert (x.rep, x.field) == (rep, field)


@pytest.mark.parametrize("make", [lambda: PrimeField(7), gf16],
                         ids=["GF7", "GF16"])
def test_equal_fields_built_apart_mix(make):
    F, G = make(), make()
    assert F == G and F is not G
    for x, y in zip(F.elements(), G.elements()):
        assert x == y and y == x and hash(x) == hash(y)
        assert x is not y
        assert x + y == 2 * x and x * y == y * x
        assert (x - y).is_zero()
    with pytest.raises(FieldError):
        PrimeField(5).one() + PrimeField(7).one()


# -- the one coercion rule ------------------------------------------------------


def test_subfield_operands_follow_element():
    F16 = gf16()
    F4, F2 = F16.base, F16.base.base
    one2, w = PrimeField(2).one(), F4.generator()
    assert gf4().one() + one2 == one2 + gf4().one() == gf4().zero()
    assert one2 * w == w * one2 == w and (w * one2).field is F4
    assert gf4().embed(3) == gf4().one() and RATIONALS.embed(2) == RATIONALS.from_int(2)
    x = PolyRing(F16, ("x",)).var("x")
    assert (x * x + 1).evaluate({"x": w}) == F16.embed(w * w + 1)
    assert quadratic_roots(F4.one(), F16.zero(), F16.generator()) == \
        quadratic_roots(F16.one(), F16.zero(), F16.generator())
    assert quadratic_roots(F16.one(), F4.one(), w) == \
        quadratic_roots(F16.one(), F16.one(), F16.embed(w))
    assert F2.element(1) * F16.generator() == F16.generator()


def _coercion_towers():
    """Each tower as (domain, value maker) pairs, bottom first."""
    F16 = gf16()
    Qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")
    K7 = RationalFunctionField(PrimeField(7), "t")
    Qd = RationalFunctionField(RATIONALS, "d")
    L = RationalFunctionField(Qd, "t")

    def finite(F):
        return lambda rng: F.element(rng.choice(list(F.elements())))

    def rational(rng):
        return RATIONALS.element(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    def poly(ring, coeff):
        u = ring.var(ring.vars[0])
        return lambda rng: sum((ring.const(coeff(rng)) * u ** e
                                for e in range(rng.randint(0, 2))), ring.zero())

    def fraction(K, coeff):
        num, den = poly(K.ring, coeff), poly(K.ring, coeff)

        def make(rng):
            d = den(rng)
            return K.element(num(rng), d if not d.is_zero() else K.ring.one())
        return make

    qd = fraction(Qd, rational)
    return [
        [(F16.base.base, finite(F16.base.base)), (F16.base, finite(F16.base)),
         (F16, finite(F16))],
        [(RATIONALS, rational),
         (Qi, lambda rng: Qi.element([rational(rng), rational(rng)]))],
        [(PrimeField(7), finite(PrimeField(7))),
         (K7.ring, poly(K7.ring, finite(PrimeField(7)))),
         (K7, fraction(K7, finite(PrimeField(7))))],
        [(RATIONALS, rational), (Qd, qd), (L.ring, poly(L.ring, qd)),
         (L, fraction(L, qd))],
    ]


RULE_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
            "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def _outcome(op, a, b):
    try:
        return op(a, b)
    except (TypeError, ZeroDivisionError, FieldError, PolyRingError) as exc:
        return type(exc)


def test_the_coercion_rule_over_the_towers():
    # two values of one tower meet in the higher domain, in either order,
    # exactly as their explicit images there do; values of unrelated
    # domains are unequal and refused in both orders
    rng = random.Random("coercion rule")
    towers = _coercion_towers()
    for tower in towers:
        for (lo, make_lo), (hi, make_hi) in itertools.combinations_with_replacement(
                tower, 2):
            for _ in range(6):
                x, y = make_lo(rng), make_hi(rng)
                X, Y = hi.element(x), hi.element(y)
                assert X == x and x == X and (x == y) == (X == Y) == (y == x)
                for name, op in RULE_OPS.items():
                    for (a, b), (A, B) in (((x, y), (X, Y)), ((y, x), (Y, X))):
                        got, want = _outcome(op, a, b), _outcome(op, A, B)
                        if isinstance(want, type):
                            assert got is want, (name, a, b)
                        else:
                            assert got == want and got.parent == hi, (name, a, b)
    chains = [[dom for dom, _ in tower] for tower in towers]
    domains = [pair for tower in towers for pair in tower]
    for (D, make_d), (E, make_e) in itertools.combinations(domains, 2):
        if any(D in chain and E in chain for chain in chains):
            continue
        x, y = make_d(rng), make_e(rng)
        assert not x == y and not y == x and x != y
        for name, op in RULE_OPS.items():
            got = {_outcome(op, x, y), _outcome(op, y, x)}
            assert len(got) == 1 and got <= {FieldError, PolyRingError}, (name, x, y)


def test_refusal_of_unrelated_operands_names_the_left_domain_first():
    # the right operand's domain refuses the left operand, whatever the
    # layer; only a polynomial layer meeting a field refuses on its own side
    x, y = PrimeField(7).element(3), PrimeField(5).element(2)
    R, S = PolyRing(RATIONALS, ("x",)), PolyRing(PrimeField(5), ("y",))
    p, q = R.var("x"), S.var("y")
    cases = [(x, y, FieldError, "cannot embed element of GF(7) into GF(5)"),
             (y, x, FieldError, "cannot embed element of GF(5) into GF(7)"),
             (p, q, PolyRingError, "no image of an element of QQ[x] in GF(5)[y]"),
             (q, p, PolyRingError, "no image of an element of GF(5)[y] in QQ[x]"),
             (p, x, PolyRingError, "no image of an element of GF(7) in QQ[x]"),
             (x, p, PolyRingError, "no image of an element of GF(7) in QQ[x]")]
    for a, b, error, message in cases:
        for op in RULE_OPS.values():
            with pytest.raises(error) as exc:
                op(a, b)
            assert str(exc.value) == message, (a, b)


# -- the one domain entry -------------------------------------------------------


def _contract_domains() -> dict:
    """name -> (domain, a scalar of it) for one domain of every kind."""
    F7, F16 = PrimeField(7), gf16()
    Qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")
    R7 = PolyRing(F7, ("x", "y"))
    x, y = R7.gens()
    Qt = RationalFunctionField(RATIONALS, "t")
    Qd = RationalFunctionField(RATIONALS, "d")
    Qdt = RationalFunctionField(Qd, "t")
    return {"Q": (RATIONALS, RATIONALS.element(Fraction(1, 2))),
            "GF(7)": (F7, F7.element(3)), "GF(16)": (F16, F16.generator()),
            "Q(i)": (Qi, Qi.generator()), "GF(7)[x, y]": (R7, x * y + 2),
            "Q(t)": (Qt, Qt.gen() / (Qt.gen() + 1)),
            "Q(d)(t)": (Qdt, Qd.gen() * Qdt.gen())}


# the domains below each one, whose values it takes
_CONTRACT_BELOW = {"Q(i)": {"Q"}, "GF(7)[x, y]": {"GF(7)"}, "Q(t)": {"Q"},
                   "Q(d)(t)": {"Q"}}


@pytest.mark.parametrize("name", ["Q", "GF(7)", "GF(16)", "Q(i)", "GF(7)[x, y]",
                                  "Q(t)", "Q(d)(t)"])
def test_every_domain_keeps_the_one_element_contract(name):
    domains = _contract_domains()
    D, x = domains[name]
    assert D.element(x) is x and D.const(x) is x and D.from_int(x) is x
    for n in (-3, 0, 1, 2, 7):
        assert D.const(n) == D.from_int(n) == D.element(n) == n
    assert D.zero() == D.element(0) and D.zero().is_zero()
    assert D.one() == D.element(1) and D.one() * x == x
    assert (isinstance(D, Field) and D.is_finite()) == (name in ("GF(7)", "GF(16)"))
    error, text = ((FieldError, "cannot embed element of {} into {!r}")
                   if isinstance(D, Field) else
                   (PolyRingError, "no image of an element of {} in {!r}"))
    refused = [(repr(E), y) for other, (E, y) in domains.items()
               if other != name and other not in _CONTRACT_BELOW.get(name, ())]
    for source, y in refused + [("str", "1")]:
        for entry in (D.element, D.const, D.from_int):
            with pytest.raises(error) as exc:
                entry(y)
            assert str(exc.value) == text.format(source, D), (name, source)


_QI = SimpleExtension(RATIONALS, [1, 0, 1], "i")


@pytest.mark.parametrize("call, message", [
    (lambda: RATIONALS.order(), "QQ is not finite"),
    (lambda: list(RATIONALS.elements()), "cannot enumerate the elements of QQ"),
    (lambda: PrimeField(1), "1 is not prime"),
    (lambda: FiniteField(RATIONALS, [1, 0, 1], "i"), "QQ is not a finite field"),
    (lambda: quadratic_roots(RATIONALS.zero(), RATIONALS.one(), RATIONALS.one()),
     "leading coefficient is zero"),
], ids=["order-of-Q", "elements-of-Q", "one-is-no-prime", "finite-field-over-Q",
        "linear-quadratic"])
def test_the_field_layer_refuses_with_its_reason(call, message):
    with pytest.raises(FieldError, match=f"^{message}$"):
        call()


def test_a_zero_divisor_of_a_trusted_quartic_modulus_has_no_inverse():
    # degree 4 over Q is trusted irreducible; (x^2 - 2)(x^2 - 3) is not
    K = SimpleExtension(RATIONALS, [6, 0, -5, 0, 1], "g")
    g = K.generator()
    assert (g * g - 2) * (g * g - 3) == 0
    with pytest.raises(FieldError, match=r"^element is not invertible \(reducible modulus\?\)$"):
        (g * g - 2).inverse()
    assert (g * g - 1) * (g * g - 1).inverse() == 1


def test_a_cubic_over_a_number_field_is_trusted():
    # _roots searches no cubic over Q(i): x^3 - 2 is taken as irreducible
    K, embed = extend_with_root(_QI, [-2, 0, 0, 1], "r")
    r = K.generator()
    assert K.degree == 3 and r ** 3 == 2
    assert embed(_QI.generator()) ** 2 == -1


def test_an_element_with_a_squared_generator_renders_and_parses_back():
    K = SimpleExtension(RATIONALS, [-2, 0, 0, 1], "g")
    g = K.generator()
    for x, text in ((g * g, "g^2"), (1 - 3 * g * g, "1-3g^2"),
                    (g * g / 2 + g, "g+1/2g^2")):
        assert repr(x) == text
        assert parse_scalar(text, K) == x
