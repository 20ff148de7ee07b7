"""Structure vectors, 3x3 matrices, and the basis-change action.

The action is cross-checked against two independent computations: the raw
triple-sum with an explicitly inverted matrix (a Kronecker-product sandwich
written out as loops), and the defining change-of-basis property for the
bilinear product.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from nilalg3.fields import (PrimeField, RATIONALS, SimpleExtension, gf4, gf16,
                            signed_sum)
from nilalg3.polyring import PolyRing, RationalFunctionField
from nilalg3.structspace import (Matrix3, StructureError, StructureVector,
                                 _bracket, act, act_cleared, basis_vector)


def _random_vector(field, rng, pool=None):
    """About 11 random terms: nonzero scalars from ``pool`` (zero first), or
    the field's images of 1 .. order - 1."""
    terms = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                if rng.random() < 0.4:
                    c = (rng.choice(pool[1:]) if pool else
                         field.element(rng.randrange(1, field.order())))
                    terms.append((i, j, k, c))
    return StructureVector.from_terms(field, terms)


def _random_invertible(field, rng, pool=None):
    while True:
        rows = [[rng.choice(pool) if pool else
                 field.element(rng.randrange(field.order())) for _ in range(3)]
                for _ in range(3)]
        g = Matrix3.from_rows(field, rows)
        if not g.det().is_zero():
            return g


def _act_by_loops(vec, g, inv=None):
    """Independent action: moved[a,b,c] = sum lam[i,j,k] g[i,a] g[j,b] inv[c,k],
    with inv = g^-1 unless given (adj(g) gives det(g) times the action)."""
    field = vec.parent
    inv = g.inverse() if inv is None else inv
    coeff = {}
    for i, j, k, c in vec.terms():
        coeff[(i, j, k)] = c
    out = []
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for c in (1, 2, 3):
                s = field.zero()
                for (i, j, k), lam in coeff.items():
                    s = s + lam * g.entry(i, a) * g.entry(j, b) * inv.entry(c, k)
                if not s.is_zero():
                    out.append((a, b, c, s))
    return StructureVector.from_terms(field, out)


def test_basis_vector_and_terms():
    F = PrimeField(7)
    v = basis_vector(F, 2, 3, 1)
    assert list(v.terms()) == [(2, 3, 1, F.one())]
    w = v + basis_vector(F, 2, 3, 1).scale(F.element(6))
    assert w.is_zero()


def test_matrix_inverse_and_adjugate():
    rng = random.Random(3)
    F = PrimeField(11)
    for _ in range(20):
        g = _random_invertible(F, rng)
        assert g @ g.inverse() == Matrix3.identity(F)
        assert g.inverse() @ g == Matrix3.identity(F)
        d = g.det()
        adj = g.adjugate()
        prod = g @ adj
        assert prod == Matrix3.from_rows(F, [[d, 0, 0], [0, d, 0], [0, 0, d]])


def test_det_by_permutation_formula():
    rng = random.Random(4)
    F = PrimeField(7)
    perms = [((1, 2, 3), 1), ((2, 3, 1), 1), ((3, 1, 2), 1),
             ((1, 3, 2), -1), ((2, 1, 3), -1), ((3, 2, 1), -1)]
    for _ in range(15):
        g = _random_invertible(F, rng)
        s = F.zero()
        for (p1, p2, p3), sign in perms:
            term = g.entry(1, p1) * g.entry(2, p2) * g.entry(3, p3)
            s = s + (term if sign > 0 else -term)
        assert s == g.det()


def test_matrices_differ_by_an_entry_or_by_the_domain():
    # equal means one domain and equal entries: neither alone is enough
    F = PrimeField(7)
    g = Matrix3.from_rows(F, [[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    assert g == Matrix3.from_rows(F, [[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    assert g != Matrix3.from_rows(F, [[1, 3, 0], [0, 1, 0], [0, 0, 1]])
    assert g != Matrix3.identity(F)
    Qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")
    one_q, one_i = Matrix3.identity(RATIONALS), Matrix3.identity(Qi)
    assert one_q.entries == one_i.entries       # 1 of Q equals 1 of Q(i)
    assert one_q != one_i and one_i != one_q


def test_matrix_product_and_rows_refuse_a_mismatch():
    # Q embeds in Q(i), so only the refusal keeps their matrices apart
    Qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")
    one_q, one_i = Matrix3.identity(RATIONALS), Matrix3.identity(Qi)
    for a, b in ((one_q, one_i), (one_i, one_q), (one_q, 3), (one_q, [[1]])):
        with pytest.raises(StructureError, match="^matrix product needs matching"):
            a @ b
    for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1], [0, 0, 1]]):
        with pytest.raises(StructureError,
                           match="^expected three rows of three entries$"):
            Matrix3.from_rows(RATIONALS, rows)


@pytest.mark.parametrize("kind", ["Q", "gf7", "gf16", "polyring"])
def test_det_read_off_the_adjugate(kind):
    """adjugate_and_det's three-product determinant is det(), on singular
    matrices too, and its adjugate is adjugate()."""
    rng = random.Random(f"adj-det-{kind}")
    if kind == "Q":
        F = RATIONALS
        pool = [F.element(Fraction(n, d)) for n in range(-3, 4) for d in (1, 2, 5)]
    elif kind == "polyring":
        F = PolyRing(PrimeField(5), ("x", "y"))
        x, y = F.gens()
        pool = [F.zero(), F.one(), F.from_int(3), x, y, x * y - 2, x * x + y]
    else:
        F = PrimeField(7) if kind == "gf7" else gf16()
        pool = list(F.elements())
    for n in range(25):
        entries = [rng.choice(pool) for _ in range(9)]
        if n % 5 == 0:
            entries[6:] = entries[:3]       # a repeated row: det 0
        g = Matrix3.from_rows(F, [entries[:3], entries[3:6], entries[6:]])
        adj, d = g.adjugate_and_det()
        assert adj == g.adjugate()
        assert d == g.det()
        assert d.is_zero() or n % 5


def test_act_identity_and_composition():
    rng = random.Random(9)
    F = PrimeField(7)
    for _ in range(15):
        vec = _random_vector(F, rng)
        g = _random_invertible(F, rng)
        h = _random_invertible(F, rng)
        assert act(vec, Matrix3.identity(F)) == vec
        assert act(act(vec, g), h) == act(vec, g @ h)


def _oracle_domains():
    """(field, scalars with zero first, number of cases), one per kind of
    scalar domain the action serves; fewer cases where products cost tens
    of microseconds or more."""
    for field in (PrimeField(7), gf4(), gf16()):
        yield field, list(field.elements()), 15
    Q = RATIONALS
    yield Q, [Q.zero()] + [Q.element(Fraction(n, d)) for n in range(-3, 4) if n
                           for d in (1, 2, 5)], 15
    Qi = SimpleExtension(Q, [1, 0, 1], "i")
    i = Qi.generator()
    yield Qi, [Qi.zero()] + [Qi.element(a) + b * i for a in range(-2, 3)
                             for b in range(-1, 2) if a or b], 8
    Qd = RationalFunctionField(Q, "d")
    d = Qd.gen()
    yield Qd, [Qd.zero()] + [Qd.element(v) for v in (1, -1, d, 1 / d)], 3


def test_act_matches_loop_oracle():
    for field, pool, cases in _oracle_domains():
        rng = random.Random(f"act-{field!r}")
        for _ in range(cases):
            vec = _random_vector(field, rng, pool)
            g = _random_invertible(field, rng, pool)
            assert act(vec, g) == _act_by_loops(vec, g), field


def test_act_change_of_basis_property():
    """Multiplying in the new coordinates equals conjugating the old product."""
    rng = random.Random(30)
    F = PrimeField(7)
    for _ in range(10):
        vec = _random_vector(F, rng)
        g = _random_invertible(F, rng)
        moved = act(vec, g)
        x = [F.element(rng.randrange(7)) for _ in range(3)]
        y = [F.element(rng.randrange(7)) for _ in range(3)]
        direct = moved.product(x, y)
        old = vec.product(g.apply(x), g.apply(y))
        assert direct == list(g.inverse().apply(old))


def test_act_cleared_is_division_free_act():
    rng = random.Random(41)
    F = PrimeField(13)
    for _ in range(10):
        vec = _random_vector(F, rng)
        g = _random_invertible(F, rng)
        cleared, d = act_cleared(vec, g)
        assert d == g.det()
        assert cleared == act(vec, g).scale(d)


def test_act_cleared_over_a_polynomial_ring():
    """Over F[x, y, z] the cleared action is the triple sum with adj(g) in
    place of g^-1, and the action itself, which needs 1/det(g), is refused."""
    rng = random.Random(42)
    F = PrimeField(5)
    ring = PolyRing(F, ("x", "y", "z"))
    x, y, z = ring.gens()
    pool = [ring.zero(), ring.one(), ring.from_int(2), x, y, z, x + 1,
            y * z - 2, x * x]
    for _ in range(6):
        vec = _random_vector(F, rng)        # lifted into the ring by the action
        g = _random_invertible(ring, rng, pool)
        assert act_cleared(vec, g) == (
            _act_by_loops(vec.lift(ring), g, g.adjugate()), g.det())
        with pytest.raises(StructureError, match="^entries do not support "
                           "division; use the adjugate route$"):
            act(vec, g)


def test_lift_and_map_scalars():
    F = PrimeField(7)
    v = basis_vector(RATIONALS, 2, 2, 1) + basis_vector(RATIONALS, 3, 3, 1).scale(
        RATIONALS.element(9))
    w = v.map_scalars(lambda c: F.element(c.rep), F)
    assert w == basis_vector(F, 2, 2, 1) + basis_vector(F, 3, 3, 1).scale(
        F.element(2))


def test_str_rendering():
    F = RATIONALS
    v = basis_vector(F, 2, 3, 1) - basis_vector(F, 3, 2, 1)
    assert str(v) == "231-321"
    assert str(StructureVector.zero(F)) == "0"


def test_str_brackets_sum_and_fraction_coefficients():
    # a coefficient that is a sum or a fraction is bracketed, so (1+w)*231
    # never reads as 1+w*231, nor ((1)/(t))*231 as (1)/(t)*231
    F = gf4()
    w = F.generator()
    v = StructureVector.from_terms(F, [(2, 3, 1, 1 + w), (3, 3, 1, w)])
    assert str(v) == "(1+w)*231+w*331"
    K = RationalFunctionField(RATIONALS, "t")
    t = K.gen()
    v = StructureVector.from_terms(K, [(2, 3, 1, 1 / t), (3, 2, 1, t + 1),
                                       (3, 3, 1, -t)])
    assert str(v) == "((1)/(t))*231+(t+1)*321-t*331"
    v = StructureVector.from_terms(RATIONALS, [(2, 3, 1, Fraction(1, 2)),
                                               (3, 2, 1, -1)])
    assert str(v) == "(1/2)*231-321"


def _dense_product(vec, x, y):
    """x * y as the sum of c[i,j,k] x_i y_j over all 27 coefficients."""
    parent = vec.parent
    x = [parent.element(v) for v in x]
    y = [parent.element(v) for v in y]
    out = [parent.zero()] * 3
    for i, j, k in itertools.product((1, 2, 3), repeat=3):
        out[k - 1] = out[k - 1] + vec[i, j, k] * x[i - 1] * y[j - 1]
    return out


def test_product_matches_the_dense_sum():
    rng = random.Random(61)
    F7, K = PrimeField(7), gf16()
    small = list(gf4().elements())
    for _ in range(40):
        vec = _random_vector(F7, rng)
        x = [rng.randrange(-9, 9) for _ in range(3)]            # ints
        y = [Fraction(rng.randrange(-9, 9), rng.choice((1, 2, 3, 4)))
             for _ in range(3)]                                 # Fractions
        assert vec.product(x, y) == _dense_product(vec, x, y)
        assert vec.product(y, [0, 0, 0]) == [F7.zero()] * 3
        q = vec.map_scalars(lambda c: RATIONALS.element(
            Fraction(c.rep, rng.randrange(1, 5))), RATIONALS)
        assert q.product(y, x) == _dense_product(q, y, x)
        # GF(4) operands against a GF(16) vector: embedded, not refused
        w = _random_vector(K, rng)
        u = [rng.choice(small) for _ in range(3)]
        v = [rng.choice(list(K.elements())) for _ in range(3)]
        assert w.product(u, v) == _dense_product(w, u, v)
        assert w.product(v, v) == _dense_product(w, v, v)


def test_product_over_a_polynomial_ring():
    rng = random.Random(62)
    F = PrimeField(5)
    ring = PolyRing(F, ("x1", "x2", "x3"))
    gens = list(ring.gens())
    for _ in range(10):
        vec = _random_vector(F, rng).lift(ring)
        y = [gens[0] + 2, 0, gens[1] * gens[2]]
        assert vec.product(gens, gens) == _dense_product(vec, gens, gens)
        assert vec.product(gens, y) == _dense_product(vec, gens, y)


def test_cached_terms_leave_equality_and_hash_alone():
    rng = random.Random(63)
    for field in (PrimeField(7), gf4(), gf16()):
        for _ in range(10):
            vec = _random_vector(field, rng)
            vec.product([1, 1, 1], [1, 0, 1])       # fills the cached terms
            fresh = StructureVector(field, vec.coeffs)
            assert vec == fresh and fresh == vec
            assert hash(vec) == hash(fresh)
            assert vec.terms() == fresh.terms()
            assert len({vec, fresh}) == 1
            with pytest.raises(AttributeError):
                vec.coeffs = fresh.coeffs
            with pytest.raises(AttributeError):
                vec._terms = ()


class _DenseVector:
    """The dense form StructureVector had before it stored the reps of its
    nonzero terms: 27 elements, compared and hashed as a tuple.  The oracle
    of the stored form."""

    def __init__(self, parent, coeffs):
        self.parent = parent
        self.coeffs = tuple(parent.element(c) for c in coeffs)

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.coeffs[9 * (i - 1) + 3 * (j - 1) + (k - 1)]

    def terms(self):
        cells = itertools.product((1, 2, 3), repeat=3)
        return tuple((*ijk, c) for ijk, c in zip(cells, self.coeffs)
                     if not c.is_zero())

    def __add__(self, other):
        return _DenseVector(self.parent, map(operator.add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return _DenseVector(self.parent, map(operator.sub, self.coeffs, other.coeffs))

    def __neg__(self):
        return _DenseVector(self.parent, [-a for a in self.coeffs])

    def scale(self, c):
        c = self.parent.element(c)
        return _DenseVector(self.parent, [c * a for a in self.coeffs])

    def __eq__(self, other):
        return self.parent == other.parent and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.parent, self.coeffs))

    def product(self, x, y):
        return _dense_product(self, x, y)

    def lift(self, new_parent):
        return _DenseVector(new_parent, [new_parent.element(c) for c in self.coeffs])

    def map_scalars(self, fn, new_parent):
        return _DenseVector(new_parent, [fn(c) for c in self.coeffs])

    def __str__(self):
        return signed_sum(((repr(c), f"{i}{j}{k}")
                           for i, j, k, c in self.terms()), "*", _bracket)


def _stored_form_domains():
    """(domain, scalars with zero first, a domain above it) per kind of
    scalar domain; the last is an equal copy for a polynomial ring."""
    Q = RATIONALS
    yield Q, [Q.zero()] + [Q.element(v) for v in (1, -1, 2, Fraction(1, 2),
                                                   Fraction(-3, 4))], \
        SimpleExtension(Q, [1, 0, 1], "i")
    yield PrimeField(7), list(PrimeField(7).elements()), \
        RationalFunctionField(PrimeField(7))
    yield gf4(), list(gf4().elements()), gf16()
    yield gf16(), list(gf16().elements()), RationalFunctionField(gf16())
    Qi = SimpleExtension(Q, [1, 0, 1], "i")
    i = Qi.generator()
    yield Qi, [Qi.zero(), Qi.one(), i, -i, i + 1, Qi.element(Fraction(1, 2)) - i], \
        RationalFunctionField(Qi)
    Qd = RationalFunctionField(Q, "d")
    d = Qd.gen()
    yield Qd, [Qd.zero(), Qd.one(), d, -d, d + 1, 1 / d, 1 / (d + 1)], \
        RationalFunctionField(Qd)
    ring = PolyRing(PrimeField(5), ("x", "y"))
    x, y = ring.gens()
    yield ring, [ring.zero(), ring.one(), x, y, -x, x + 1, x * y - 2], \
        PolyRing(PrimeField(5), ("x", "y"))


def _assert_agrees(vec, dense):
    """vec shows the oracle's coefficients through each view, and its stored
    form is the nonzero reps in index order."""
    assert vec.parent == dense.parent
    assert vec.coeffs == dense.coeffs
    assert vec.terms() == dense.terms()
    assert all(vec[ijk] == dense[ijk] for ijk in itertools.product((1, 2, 3), repeat=3))
    assert str(vec) == str(dense)
    assert vec.is_zero() == (not dense.terms())
    cells = [tuple(t[:3]) for t in vec.reps]
    assert cells == sorted(set(cells))
    assert not any(vec.parent._is_zero(r) for *_, r in vec.reps)
    assert vec.reps == tuple((i, j, k, c.rep) for i, j, k, c in dense.terms())


def test_stored_form_matches_the_dense_element_oracle():
    everything = []         # (vector, its oracle), over every domain
    for parent, pool, above in _stored_form_domains():
        rng = random.Random(f"stored-{parent!r}")

        def draw():
            return [rng.choice(pool) if rng.random() < 0.4 else pool[0]
                    for _ in range(27)]

        for n in range(30):
            a, b = draw(), draw()
            # c cancels a on about half of a's cells
            c = [-x if rng.random() < 0.5 else y for x, y in zip(a, b)]
            u, v = StructureVector(parent, a), StructureVector(parent, b)
            # the same vector as c, its entries split in two that add up
            w = StructureVector.from_terms(parent, [
                (i, j, k, part) for (i, j, k), x in
                zip(itertools.product((1, 2, 3), repeat=3), c)
                for part in (x - pool[n % len(pool)], pool[n % len(pool)])])
            U, V, W = (_DenseVector(parent, s) for s in (a, b, c))
            s = rng.choice(pool)
            family = [(u, U), (v, V), (w, W), (u + w, U + W), (w + u, W + U),
                      (u - v, U - V), (u - u, U - U), (-u, -U), (-(-u), -(-U)),
                      (u.scale(s), U.scale(s)), (StructureVector.zero(parent),
                                                 _DenseVector(parent, [pool[0]] * 27)),
                      (u.lift(above), U.lift(above)),
                      (u.map_scalars(lambda e: e * e + 1, parent),
                       U.map_scalars(lambda e: e * e + 1, parent))]
            for vec, dense in family:
                _assert_agrees(vec, dense)
            hashed = [(p, P, hash(p), hash(P)) for p, P in family]
            for (p, P, hp, hP), (q, Q, hq, hQ) in itertools.combinations(hashed, 2):
                assert (p == q) == (P == Q)
                assert (hp == hq) == (hP == hQ)
            x, y = [rng.choice(pool) for _ in range(3)], [rng.choice(pool) for _ in range(3)]
            assert u.product(x, y) == U.product(x, y)
            assert w.product(y, y) == W.product(y, y)
            everything += family
    # equal hashes exactly where the oracle's are equal, across domains too:
    # the zero vectors of different domains store the same empty terms
    by_oracle, by_vector = {}, {}
    for vec, dense in everything:
        h, H = hash(vec), hash(dense)
        assert by_oracle.setdefault(H, h) == h and by_vector.setdefault(h, H) == H


# -- the matrix kernels on reps against the element formulas -------------------


def _adjugate_by_elements(g) -> tuple:
    a, b, c, d, e, f, h, i, k = g.entries
    return (e * k - f * i, c * i - b * k, b * f - c * e,
            f * h - d * k, a * k - c * h, c * d - a * f,
            d * i - e * h, b * h - a * i, a * e - b * d)


def _det_by_elements(g):
    a, b, c, d, e, f, h, i, k = g.entries
    return a * (e * k - f * i) - b * (d * k - f * h) + c * (d * i - e * h)


def _product_by_elements(g, h) -> tuple:
    x, y = g.entries, h.entries
    out = []
    for r in range(3):
        for s in range(3):
            total = g.parent.zero()
            for m in range(3):
                total = total + x[3 * r + m] * y[3 * m + s]
            out.append(total)
    return tuple(out)


def _kernel_domains():
    """(domain, scalars with zero first) for Q, GF(7), GF(16), a polynomial
    ring in three variables, F(t) and F(d)."""
    Q = RATIONALS
    yield Q, [Q.zero()] + [Q.element(Fraction(n, d)) for n in range(-3, 4) if n
                           for d in (1, 2, 5)]
    yield PrimeField(7), list(PrimeField(7).elements())
    yield gf16(), list(gf16().elements())
    ring = PolyRing(PrimeField(5), ("x", "y", "z"))
    x, y, z = ring.gens()
    yield ring, [ring.zero(), ring.one(), ring.from_int(2), x, y, z, x + 1,
                 y * z - 2, x * x]
    Ft = RationalFunctionField(PrimeField(7), "t")
    t = Ft.gen()
    yield Ft, [Ft.zero(), Ft.one(), -t, t, t * t, t + 3, 1 / t, 1 / (t + 1)]
    Qd = RationalFunctionField(Q, "d")
    d = Qd.gen()
    yield Qd, [Qd.zero(), Qd.one(), Qd.from_int(-2), d, d - 1, 1 / d, d / (d + 1)]


def _kernel_matrices(domain, pool, rng):
    """Random matrices about half of whose entries are zero, with a zero
    row, a zero column, a repeated row, or nothing but zeros among them."""
    def draw():
        return [rng.choice(pool[1:]) if rng.random() < 0.5 else pool[0]
                for _ in range(9)]

    out = [Matrix3.identity(domain), Matrix3(domain, [domain.zero()] * 9)]
    for n in range(12):
        e = draw()
        if n % 4 == 1:
            e[3:6] = [pool[0]] * 3          # a zero row
        elif n % 4 == 2:
            e[1::3] = [pool[0]] * 3         # a zero column
        elif n % 4 == 3:
            e[6:] = e[:3]                   # a repeated row: det 0
        out.append(Matrix3.from_rows(domain, [e[:3], e[3:6], e[6:]]))
    return out


def _assert_kernels_match_the_element_formulas(g, others):
    P = g.parent
    adj, d = g.adjugate_and_det()
    assert adj.entries == g.adjugate().entries == _adjugate_by_elements(g)
    assert d == g.det() == _det_by_elements(g)
    results = [*adj.entries, d, g.det()]
    if d.is_zero():
        with pytest.raises(StructureError, match="^matrix is singular$"):
            g.inverse()
    elif d._no_division is not None:
        with pytest.raises(StructureError, match="^entries do not support "
                           "division; use the adjugate route$"):
            g.inverse()
    else:
        inv = g.inverse()
        di = _det_by_elements(g).inverse()
        assert inv.entries == tuple(di * v for v in _adjugate_by_elements(g))
        assert g @ inv == Matrix3.identity(P)
        results += inv.entries
    for h in others:
        product = g @ h
        assert product.entries == _product_by_elements(g, h)
        results += product.entries
    # every result is a value of the matrix's own domain
    assert all(v.parent is P for v in results)


def test_matrix_kernels_on_reps_match_the_element_formulas():
    for domain, pool in _kernel_domains():
        rng = random.Random(f"kernels-{domain!r}")
        matrices = _kernel_matrices(domain, pool, rng)
        for g in matrices:
            _assert_kernels_match_the_element_formulas(g, matrices)


def test_matrix_kernels_on_every_library_curve():
    from nilalg3 import degeneration
    from nilalg3.catalogue import AlgebraId, adelta, quarter

    for field in (RATIONALS, PrimeField(7), gf4(), gf16()):
        pool = [AlgebraId(tag) for tag in ("a0", "c1", "c3", "l1", "c5")]
        pool += [adelta(field, 0), adelta(field, field.from_int(3))]
        if field.char != 2:
            pool.append(adelta(field, quarter(field)))
        curves = [w.matrix for src in pool for dst in pool
                  if (w := degeneration._library_curve(src, dst, field)) is not None]
        assert len(curves) >= 12
        for g in curves:
            _assert_kernels_match_the_element_formulas(g, curves)


class _CountingGF7(PrimeField):
    """GF(7) whose product hook counts its calls."""

    def __init__(self):
        super().__init__(7)
        self.products = 0

    def _mul(self, a, b):
        self.products += 1
        return super()._mul(a, b)


def test_a_matrix_product_multiplies_only_nonzero_pairs():
    F = _CountingGF7()
    rng = random.Random("sparse-products")
    for _ in range(40):
        a, b = ([F.element(rng.randrange(1, 7)) if rng.random() < 0.4 else 0
                 for _ in range(9)] for _ in range(2))
        g = Matrix3.from_rows(F, [a[:3], a[3:6], a[6:]])
        h = Matrix3.from_rows(F, [b[:3], b[3:6], b[6:]])
        pairs = sum(a[3 * r + m] != 0 and b[3 * m + s] != 0
                    for r in range(3) for m in range(3) for s in range(3))
        F.products = 0
        product = g @ h
        assert F.products == pairs
        assert product.entries == _product_by_elements(g, h)
