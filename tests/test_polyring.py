"""Sparse multivariate polynomials and the rational function field in t.

The main oracle is the evaluation homomorphism: whatever the ring
arithmetic produces must agree with doing the arithmetic on field values
after substituting random points.
"""

import operator
import random
from fractions import Fraction

import pytest

from nilalg3.fields import (FieldElement, PrimeField, RATIONALS,
                            SimpleExtension, _bracket_sum, gf4, gf16,
                            signed_sum)
from nilalg3 import polyring
from nilalg3.polyring import (PoleAtZero, PolyRing, PolyRingError,
                              RationalFunction, RationalFunctionField,
                              limit_at_zero, t_valuation)
from nilalg3.structspace import Matrix3


def _random_poly(ring, rng, nterms=4, deg=3):
    gens = list(ring.gens())
    p = ring.zero()
    for _ in range(nterms):
        term = ring.const(ring.field.element(rng.randrange(ring.field.order())))
        for g in gens:
            term = term * g ** rng.randrange(deg)
        p = p + term
    return p


def test_poly_basic_identity():
    R = PolyRing(PrimeField(7), ("x", "y"))
    x, y = R.gens()
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (x - x).is_zero()


def test_a_polynomial_has_no_inverse():
    # / is unsupported; inverse and a negative power raise the ring's error
    R = PolyRing(PrimeField(7), ("x", "y"))
    x, y = R.gens()
    for a, b in ((x, y), (x, 2), (1, x), (x, R.one())):
        with pytest.raises(TypeError):
            a / b
    for power in (lambda: x.inverse(), lambda: R.one().inverse(), lambda: x ** -1):
        with pytest.raises(PolyRingError):
            power()
    with pytest.raises(ZeroDivisionError):
        R.zero().inverse()


def test_poly_evaluation_homomorphism():
    F = PrimeField(5)
    R = PolyRing(F, ("x", "y", "z"))
    rng = random.Random(11)
    for _ in range(25):
        p = _random_poly(R, rng)
        q = _random_poly(R, rng)
        pt = {n: F.element(rng.randrange(5)) for n in ("x", "y", "z")}
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p - q).evaluate(pt) == p.evaluate(pt) - q.evaluate(pt)


def test_poly_over_gf4():
    F = gf4()
    R = PolyRing(F, ("u",))
    (u,) = R.gens()
    w = F.generator()
    p = u * u + R.const(w) * u
    # char 2: (a+b)^2 = a^2 + b^2
    q = (u + R.const(w)) ** 2
    assert q == u * u + R.const(w * w)
    assert p != q


def test_equal_rings_mix_and_different_rings_refuse():
    F = PrimeField(7)
    R1, R2 = PolyRing(F, ("x", "y")), PolyRing(F, ("x", "y"))
    assert R1 == R2 and R1 is not R2
    x1, y1 = R1.gens()
    x2, y2 = R2.gens()
    assert (x1 + y1) * (x2 - y2) == x1 * x1 - y2 * y2
    assert x2 * y1 == y1 * x2 and (x1 * y2).ring is R1
    K1, K2 = (RationalFunctionField(RATIONALS, "t") for _ in range(2))
    assert K1.gen() * K2.gen() == K1.gen() ** 2
    assert K1.element(K2.ring.var("t")) == K2.gen()
    for other in (PolyRing(PrimeField(5), ("x", "y")), PolyRing(F, ("y", "x")),
                  PolyRing(F, ("x",))):
        with pytest.raises(PolyRingError):
            x1 * other.var("x")
        with pytest.raises(PolyRingError):
            other.var("x") * x1
    with pytest.raises(PolyRingError):
        K1.gen() * RationalFunctionField(RATIONALS, "u").gen()
    with pytest.raises(PolyRingError):
        K1.element(PolyRing(RATIONALS, ("u",)).var("u"))


def test_poly_str_and_degree():
    R = PolyRing(RATIONALS, ("x", "y"))
    x, y = R.gens()
    p = x ** 2 * y + 3
    assert p.degree() == 3
    assert R.zero().degree() == -1
    assert str(R.one()) == "1"


def test_an_exponent_past_its_packed_field_raises():
    # below the first variable each exponent has a field of _FIELD_BITS bits
    # whose top bit is a guard: overflow raises, never carries into the
    # variable above (y^(2^16) would otherwise read as x)
    F = PrimeField(7)
    R = PolyRing(F, ("x", "y", "z"))
    x, y, z = R.gens()
    top = 2 ** (polyring._FIELD_BITS - 1) - 1
    assert (y ** top * z ** top * x).terms == {(1, top, top): F.one()}
    for v, unit in ((y, (0, 1, 0)), (z, (0, 0, 1))):
        p = v ** top
        assert p.terms == {tuple(top * k for k in unit): F.one()}
        for overflow in (lambda: p * v, lambda: v ** (top + 1), lambda: p * p,
                         lambda: v ** (2 * top + 2), lambda: (p + x + 1) * (v - 1)):
            with pytest.raises(PolyRingError):
                overflow()
    # a product whose overflowing monomial cancels has none to report
    assert (y ** top + 1) * (y - y) == R.zero()


def test_the_first_variable_takes_any_exponent():
    F = PrimeField(7)
    R = PolyRing(F, ("x", "y"))
    x, y = R.gens()
    p = x ** 70000 * y + x
    assert p.terms == {(70000, 1): F.one(), (1, 0): F.one()}
    assert p.degree() == 70001 and str(p) == "x^70000*y+x"
    K = RationalFunctionField(F, "t")
    t = K.gen()
    q = t ** 70000 * 3 + t ** 2
    assert q.num.terms == {(70000,): F.element(3), (2,): F.one()}
    assert str(q) == "3*t^70000+t^2" and t_valuation(q.num) == 2
    assert q / t ** 2 == 3 * t ** 69998 + 1
    assert limit_at_zero(q / t ** 2) == F.one()


def test_packed_keys_keep_str_order_terms_and_a_constants_hash():
    # integer order of the keys is the order of exponent tuples, the first
    # variable highest; terms and str read exponent tuples
    R = PolyRing(RATIONALS, ("x", "y", "z"))
    x, y, z = R.gens()
    p = z + x * z ** 2 + 1 + y ** 3 + x ** 2 - 2 * x * y * z
    assert str(p) == "x^2-2*x*y*z+x*z^2+y^3+z+1"
    assert set(p.terms) == {(2, 0, 0), (1, 1, 1), (1, 0, 2), (0, 3, 0),
                            (0, 0, 1), (0, 0, 0)}
    assert p.degree() == 3
    assert p.evaluate({"x": 2, "y": -1, "z": 3}) == RATIONALS.element(37)
    for c in (3, Fraction(1, 2), 0):
        assert hash(R.const(c)) == hash(RATIONALS.element(c)) == hash(c)
        assert R.const(c) == c
    assert R.const(3) != 3 * x


def test_str_brackets_a_compound_coefficient():
    # (1+w)t is not 1+wt; a constant term needs no bracket
    F = gf4()
    w = F.generator()
    K = RationalFunctionField(F, "t")
    assert str(K.polynomial({1: 1 + w})) == "(1+w)*t"
    assert str(K.polynomial({2: w, 1: 1 + w, 0: 1 + w})) == "w*t^2+(1+w)*t+1+w"
    assert str(K.one() / K.polynomial({1: 1 + w, 0: w})) == "(w)/(t+1+w)"
    R = PolyRing(RATIONALS, ("x", "y"))
    x, y = R.gens()
    assert str(x * y * Fraction(-3, 2) + y - 1) == "-3/2*x*y+y-1"


def test_rational_function_cancellation():
    K = RationalFunctionField(PrimeField(7), "t")
    t = K.gen()
    r = (t * t - 1) / (t - 1)
    assert r == t + 1
    assert ((t + 2) / (t + 2)) == K.one()


def test_rational_functions_over_a_function_field_reduce():
    # F(d)(t): the coefficients of the gcd are themselves rational functions,
    # and a leading coefficient d of the denominator is scaled away
    K = RationalFunctionField(RATIONALS, "d")
    L = RationalFunctionField(K, "t")
    t, d = L.gen(), L.const(K.gen())
    assert (t * t - d * d) / (t + d) == t - d
    r = (t + d) / (d * t * t - d ** 3)
    assert str(r) == "((1)/(d))/(t-d)" and r.den.terms[(0,)] == -K.gen()
    assert r * (d * t - d * d) == L.one()


def test_function_field_scalars_meet_polynomials_over_it():
    # an element of F(d) is a scalar of F(d)[t], on either side of the operator
    K = RationalFunctionField(RATIONALS, "d")
    P = PolyRing(K, ("t",))
    t, d = P.var("t"), K.gen()
    dt = P.const(d)
    assert t * d == d * t == dt * t
    assert t + d == d + t == t + dt
    assert t - d == t - dt
    assert d - t == dt - t
    assert str(d * t) == "d*t"


def test_constant_denominator_needs_no_gcd(monkeypatch):
    # num/c with a constant c != 1 keeps its canonical form, (num/c, 1),
    # without a gcd: the gcd with a nonzero constant is 1
    def no_gcd(a, b, F):
        raise AssertionError("gcd called for a constant denominator")

    monkeypatch.setattr(polyring, "_pgcd", no_gcd)
    F4 = gf4()
    w = F4.generator()
    for field, c, lin, const, want_lin, want_const in (
            (RATIONALS, 2, 3, 1, Fraction(3, 2), Fraction(1, 2)),
            (PrimeField(7), 3, 3, 1, 1, 5),
            (F4, w, w, 1, 1, w + 1)):
        K = RationalFunctionField(field, "t")
        t = K.ring.var("t")
        num = t * field.element(lin) + field.element(const)
        r = RationalFunction._make(K, num, K.ring.const(c))
        assert r.num.terms == {(1,): field.element(want_lin),
                               (0,): field.element(want_const)}
        assert r.den == K.ring.one()


def test_rational_function_field_ops():
    K = RationalFunctionField(RATIONALS, "t")
    t = K.gen()
    r = 1 / (1 + t)
    s = t / (1 + t)
    assert r + s == K.one()
    assert (r * (1 + t)) == K.one()
    assert (t ** -2) * t ** 3 == t
    with pytest.raises(ZeroDivisionError):
        K.one() / K.zero()


def test_rational_function_evaluate():
    K = RationalFunctionField(PrimeField(11), "t")
    t = K.gen()
    F = K.field
    r = (t ** 2 + 3) / (t + 1)
    for v in range(11):
        x = F.element(v)
        if x == F.element(-1):
            continue
        assert r.evaluate(x) == (x * x + 3) / (x + 1)


def test_limit_at_zero():
    K = RationalFunctionField(RATIONALS, "t")
    t = K.gen()
    assert limit_at_zero((t ** 2 + 2 * t) / t) == RATIONALS.element(2)
    assert limit_at_zero(t ** 3 / t) == RATIONALS.zero()
    assert limit_at_zero(K.from_int(5)) == RATIONALS.element(5)
    with pytest.raises(PoleAtZero):
        limit_at_zero(1 / t)
    with pytest.raises(PoleAtZero):
        limit_at_zero((t + 1) / (t ** 2 + t))


def test_t_valuation():
    K = RationalFunctionField(PrimeField(5), "t")
    t = K.gen()
    assert t_valuation((t ** 3 + t ** 4).num) == 3
    assert t_valuation((1 / t).den) == 1
    assert t_valuation((K.one() + t).num) == 0
    assert t_valuation(K.ring.zero()) is None


def _fast_path_domains():
    """(name, F(t), coefficient pool) over Q, GF(7), GF(4), GF(16) and Q(d)."""
    Qd = RationalFunctionField(RATIONALS, "d")
    d = Qd.gen()
    return [
        ("Q", RationalFunctionField(RATIONALS, "t"),
         [RATIONALS.element(c) for c in (1, -1, 2, Fraction(1, 2), Fraction(-3, 4))]),
        ("GF7", RationalFunctionField(PrimeField(7), "t"),
         [PrimeField(7).element(c) for c in range(1, 7)]),
        ("GF4", RationalFunctionField(gf4(), "t"), list(gf4().elements())[1:]),
        ("GF16", RationalFunctionField(gf16(), "t"), list(gf16().elements())[1:]),
        ("Q(d)", RationalFunctionField(Qd, "t"),
         [Qd.one(), -Qd.one(), d, d + 1, 1 / d, d / (d - 2), Qd.from_int(2)]),
    ]


@pytest.mark.parametrize("name, K, pool", _fast_path_domains(),
                         ids=[name for name, *_ in _fast_path_domains()])
def test_polynomial_arithmetic_matches_the_fraction_route(name, K, pool):
    # two polynomials add, subtract and multiply over the shared 1 with no
    # cross-products and no _make; the result must be what _make gives on
    # the cross-multiplied numerator and denominator, for a proper fraction
    # operand too, and sums that cancel must come out as the canonical 0
    rng = random.Random(f"fast-path-{name}")
    twin = RationalFunctionField(K.field, K.varname)    # equal, not identical

    def poly(parent):
        return parent.polynomial({rng.randrange(4): rng.choice(pool)
                                  for _ in range(rng.randint(1, 3))})

    t = K.gen()
    for n in range(60):
        a, b = poly(K), poly(rng.choice((K, twin)))
        if n % 3 == 1:
            b = -a if rng.random() < 0.5 else b - a     # a + b is 0 or b's
        elif n % 3 == 2:
            b = b / (t + K.const(rng.choice(pool)) if rng.random() < 0.5 else t)
        for x, y in ((a, b), (b, a)):
            for got, num, den in (
                    (x + y, x.num * y.den + y.num * x.den, x.den * y.den),
                    (x - y, x.num * y.den - y.num * x.den, x.den * y.den),
                    (x * y, x.num * y.num, x.den * y.den)):
                want = RationalFunction._make(x.parent, num, den)
                assert got.num.terms == want.num.terms
                assert got.den.terms == want.den.terms
                if x.den.degree() == y.den.degree() == 0:
                    assert got.den is x.parent.poly_one


# -- MultiPoly's arithmetic on element coefficients, as it was before it held
# reps: the oracle for the rep kernel

def _elem_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = c if e not in out else out[e] + c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _elem_neg(a):
    return {e: -c for e, c in a.items()}


def _elem_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            c = c1 * c2
            out[e] = c if e not in out else out[e] + c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _elem_str(terms, ring):
    return signed_sum(
        ((_bracket_sum(repr(c)) if any(e) else repr(c),
          "*".join(v if k == 1 else f"{v}^{k}"
                   for v, k in zip(ring.vars, e) if k))
         for e, c in sorted(terms.items(), reverse=True)), "*")


def _rep_oracle_domains():
    """(name, field, coefficient pool) over Q, GF(7), GF(4), GF(16), Q(i)
    and Q(d)."""
    Qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")
    i = Qi.generator()
    Qd = RationalFunctionField(RATIONALS, "d")
    d = Qd.gen()
    return [
        ("Q", RATIONALS, [RATIONALS.element(c) for c in
                          (1, -1, 2, Fraction(6, 2), Fraction(1, 2), Fraction(-3, 4))]),
        ("GF7", PrimeField(7), [PrimeField(7).element(c) for c in range(1, 7)]),
        ("GF4", gf4(), list(gf4().elements())[1:]),
        ("GF16", gf16(), list(gf16().elements())[1:]),
        ("Q(i)", Qi, [Qi.one(), -Qi.one(), i, 1 + i, i / 2, Qi.from_int(2) / 3]),
        ("Q(d)", Qd, [Qd.one(), -Qd.one(), d, d + 1, 1 / d, Qd.from_int(2)]),
    ]


@pytest.mark.parametrize("name, field, pool", _rep_oracle_domains(),
                         ids=[name for name, *_ in _rep_oracle_domains()])
def test_multipoly_matches_the_element_arithmetic(name, field, pool, monkeypatch):
    # +, -, *, ==, terms and str against the element oracle on seeded pairs,
    # sums that cancel included; MultiPoly's own arithmetic never reaches a
    # FieldElement operator, stores no zero rep, and keeps an integral Q rep
    # an int
    rng = random.Random(f"rep-oracle-{name}")
    R = PolyRing(field, ("x", "y"))
    x, y = R.gens()

    def draw():
        terms, p = {}, R.zero()
        for _ in range(rng.randint(0, 4)):
            e, c = (rng.randrange(3), rng.randrange(3)), rng.choice(pool)
            terms = _elem_add(terms, {e: c})
            p = p + R.const(c) * x ** e[0] * y ** e[1]
        return terms, p

    def q_reps(p):      # the Q reps inside the coefficient reps
        if field is RATIONALS:
            return list(p.reps.values())
        return [q for c in p.reps.values() for q in c] if name == "Q(i)" else []

    def refuse(self, *args):
        raise AssertionError("MultiPoly arithmetic ran a FieldElement operator")

    for n in range(40):
        (ta, a), (tb, b) = draw(), draw()
        if n % 3 == 1:      # a + b is 0, or b's terms that a cancels
            tb, b = (_elem_neg(ta), -a) if rng.random() < 0.5 else (
                _elem_add(tb, _elem_neg(ta)), b - a)
        assert a.terms == ta and b.terms == tb
        for (tx, px), (ty, py) in (((ta, a), (tb, b)), ((tb, b), (ta, a))):
            wants = [_elem_add(tx, ty), _elem_add(tx, _elem_neg(ty)), _elem_mul(tx, ty)]
            with monkeypatch.context() as m:
                for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                           "__rmul__", "__neg__", "__eq__"):
                    m.setattr(FieldElement, op, refuse)
                gots = [px + py, px - py, px * py]
                same = px == py
            assert same == (tx == ty)
            for got, want in zip(gots, wants):
                assert got.terms == want
                assert str(got) == _elem_str(want, R)
                assert not any(map(field._is_zero, got.reps.values()))
                assert all(q.__class__ is int or q.denominator != 1 for q in q_reps(got))
            assert gots[0] == py + px and gots[0].is_zero() == (not wants[0])


def test_equal_values_hash_equal():
    # values equal by ==, built by different routes, hash alike and collapse
    # in a set: curve_limit's dict.fromkeys over denominators relies on it
    R = PolyRing(RATIONALS, ("x", "y"))
    x, _ = R.gens()
    assert len({R.const(Fraction(6, 2)) * x, x * 3, x + x + x}) == 1
    for F in (RATIONALS, PrimeField(7)):
        K, twin = (RationalFunctionField(F, "t") for _ in range(2))
        assert K == twin and K is not twin and len({K, twin}) == 1
        t = K.gen()
        p = t * t + 3 * t       # the polynomial fast path
        u = t.num + 1
        routes = [p, K.polynomial({2: F.one(), 1: F.element(Fraction(6, 2))}),
                  RationalFunction._make(K, p.num * u, K.ring.one() * u),
                  (t ** 3 - 9 * t) / (t - 3),
                  twin.gen() * twin.gen() + twin.from_int(3) * t]
        assert all(r == p for r in routes) and len(set(routes)) == 1
        dens = [(1 / (t + 2)).den, (t / (t * t + 2 * t)).den,
                ((t + 1) / (twin.gen() + 2)).den]
        assert len(dict.fromkeys(dens)) == 1
    # entries over F(d)(t), whose coefficients are rational functions in d
    Qd = RationalFunctionField(RATIONALS, "d")
    L = RationalFunctionField(Qd, "t")
    t, d = L.gen(), L.const(Qd.gen())
    half = Fraction(1, 2)
    first = [(t * t - d * d) / (t + d), t - d, t + L.const(-Qd.gen())]
    second = [(d * t + d) / (2 * d), (t + 1) * half,
              L.polynomial({1: Qd.const(half), 0: Qd.one() / 2})]
    for same in (first, second):
        assert all(r == same[0] for r in same) and len(set(same)) == 1
    g = Matrix3.from_rows(L, [[first[0], second[0], 0], [0, 1, d], [0, 0, t]])
    h = Matrix3.from_rows(L, [[first[1], second[2], L.zero()],
                              [0, L.one(), L.const(Qd.gen())], [0, 0, t]])
    assert g == h and len({g, h}) == 1
    # equal values of different domains: each hashes by its rep in the
    # lowest domain of its tower that holds it
    F4, F16 = gf4(), gf16()
    w = F4.generator()
    K = RationalFunctionField(F4, "t")
    Qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")
    dd = Qd.gen()
    pairs = [(w, K.const(w)), (RATIONALS.element(3), 3),
             (PrimeField(2).one(), F4.one()), (Qi.element(3), 3),
             (L.const(dd), dd), (F16.element(w), w), (F16.one(), PrimeField(2).one()),
             (RATIONALS.element(3), Fraction(6, 2)), (R.const(3), 3),
             (R.zero(), RATIONALS.zero()), (K.zero(), 0), (L.const(3), Fraction(3))]
    for a, b in pairs:
        assert a == b and b == a and hash(a) == hash(b) and len({a, b}) == 1


def test_function_field_scalars_enter_the_field_over_them():
    # Q(d) lies below Q(d)[t] below L = Q(d)(t): d enters L by element, by
    # either operand of every operator, and in a matrix row
    Qd = RationalFunctionField(RATIONALS, "d")
    L = RationalFunctionField(Qd, "t")
    t, d = L.gen(), Qd.gen()
    dL = L.const(d)
    assert L.element(d) == dL and L.element(d).parent is L
    for got, want in ((t * d, t * dL), (d * t, dL * t), (t + d, t + dL),
                      (d + t, dL + t), (d - t, dL - t), (t - d, t - dL),
                      (d / t, dL / t), (t / d, t / dL)):
        assert got == want and got.parent == L
    assert dL == d and d == dL and dL != d + 1
    g = Matrix3.from_rows(L, [[d, 0, 0], [0, 1, 0], [0, 0, t]])
    assert g.entries[0] == dL and g == Matrix3.from_rows(
        L, [[dL, 0, 0], [0, 1, 0], [0, 0, t]])
