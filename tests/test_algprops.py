"""Isomorphism invariants, cross-checked by brute force over tiny fields.

Over GF(2) and GF(3) the solution sets behind the linear-algebra answers
(derivations, annihilators) are small enough to enumerate outright, so the
dimensions can be confirmed by counting points: a d-dimensional solution
space over GF(q) has exactly q^d points.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest

import nilalg3.algprops
from nilalg3.algprops import (NotNilpotentError, annihilator_basis,
                              annihilator_dimension, derivation_dimension,
                              in_m_star_star, invariant_profile,
                              is_associative, is_commutative,
                              nilpotency_class, power_chain, square_basis,
                              square_dimension)
from nilalg3.catalogue import (AlgebraId, CatalogueError, adelta, hbeta,
                               identify, identify_with_witness, structure_of)
from nilalg3.fields import PrimeField, RATIONALS, SimpleExtension, gf4, gf16
from nilalg3.ioformats import parse_vector, render_vector
from nilalg3.linalg import row_reduce
from nilalg3.polyring import PolyRing, RationalFunctionField
from nilalg3.structspace import Matrix3, StructureVector, act, basis_vector


def _rep(tag, field, param=None):
    if param is None:
        return structure_of(AlgebraId(tag), field)
    return structure_of(AlgebraId(tag, field.element(param)), field)


def _residues(vec):
    """p and the structure constants of a vector over GF(p) as residues:
    c[i][j] is the coordinate list of e_i e_j."""
    return vec.parent.char, [[[vec[i, j, k].rep for k in (1, 2, 3)]
                              for j in (1, 2, 3)] for i in (1, 2, 3)]


def _product(c, p, x, y):
    """x y for residue triples, a sum over the nonzero x_i and y_j."""
    out = [0, 0, 0]
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                out = [o + xi * yj * ck for o, ck in zip(out, c[i][j])]
    return [o % p for o in out]


_UNITS = [[int(m == n) for m in range(3)] for n in range(3)]


def _count_derivations(vec):
    """Enumerate all 3x3 matrices D over GF(p), as residues, and count the
    ones satisfying D(e_i e_j) = D(e_i) e_j + e_i D(e_j)."""
    p, c = _residues(vec)
    count = 0
    for flat in itertools.product(range(p), repeat=9):
        rows = (flat[0:3], flat[3:6], flat[6:9])    # D e_n is column n
        image = list(zip(*rows))
        count += all(
            [sum(map(operator.mul, r, c[i][j])) % p for r in rows]
            == [(a + b) % p for a, b in zip(_product(c, p, image[i], _UNITS[j]),
                                            _product(c, p, _UNITS[i], image[j]))]
            for i in range(3) for j in range(3))
    return count


def _count_annihilator(vec):
    p, c = _residues(vec)
    return sum(all(not any(_product(c, p, x, u)) and not any(_product(c, p, u, x))
                   for u in _UNITS)
               for x in map(list, itertools.product(range(p), repeat=3)))


def test_associativity_of_catalogue_entries():
    for field in (RATIONALS, PrimeField(2), PrimeField(7)):
        for tag in ("a0", "c1", "c3", "l1", "c5", "rho", "chat3", "a2"):
            assert is_associative(_rep(tag, field))
        assert is_associative(structure_of(adelta(field, 3), field))
        assert is_associative(structure_of(hbeta(field, 3), field))


def test_non_associative_detected():
    F = RATIONALS
    vec = basis_vector(F, 1, 1, 2) + basis_vector(F, 2, 2, 3)
    assert not is_associative(vec)


class _CountingGF7(PrimeField):
    """GF(7) whose product hook counts its calls."""

    def __init__(self):
        super().__init__(7)
        self.products = 0

    def _mul(self, a, b):
        self.products += 1
        return super()._mul(a, b)


def _full_pass_products(vec):
    """The products of a pass over every first index: each side pairs each
    term c[x,y,m] with each term c[m,k,l]."""
    return 2 * sum(sum(t[2] == m for t in vec.reps) * sum(t[0] == m for t in vec.reps)
                   for m in (1, 2, 3))


def test_associativity_stops_at_the_first_index_that_differs():
    F = _CountingGF7()
    g = Matrix3.from_rows(F, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    moved = act(_rep("c5", F), g)       # associative: every group is formed
    F.products = 0
    assert is_associative(moved)
    assert F.products == _full_pass_products(moved) > 0
    # (e1 e1) e1 = e2 e1 = e3, but e1 (e1 e1) = e1 e2 = 0: the group of
    # i = 1 differs, and the terms of the other groups are never paired
    vec = StructureVector.from_terms(F, [(1, 1, 2, 1), (2, 1, 3, 1), (2, 2, 2, 1),
                                         (3, 3, 3, 1), (3, 1, 1, 1)])
    F.products = 0
    assert not is_associative(vec) and not _associative_by_products(vec)
    assert 0 < F.products < _full_pass_products(vec)
    F.products = 0
    assert not is_associative(vec)      # the verdict is kept
    assert F.products == 0


def test_structure_of_gives_an_equal_domain_its_own_fresh_vector():
    # each domain object keeps the reps of the structures built over it, but
    # every call hands out a new vector over the caller's own domain with
    # nothing kept: a verdict kept over GF(7) must not answer for an equal
    # domain whose hooks differ, nor for a later call over GF(7) itself
    F, G = PrimeField(7), _CountingGF7()
    assert F == G and F is not G
    for tag, param in (("c5", None), ("a", 3)):
        u = _rep(tag, F, param)
        assert is_associative(u) and u._kept is not None
        v = _rep(tag, G, param)
        assert v == u and v.parent is G and v._kept is None
        w = _rep(tag, F, param)
        assert w == u and w is not u and w.parent is F and w._kept is None
        assert w.reps is u.reps         # built once per domain object
        assert _rep(tag, G, param).reps is v.reps is not u.reps
    # G's verdict is G's own work, on G's hooks
    v = _rep("c5", G)
    G.products = 0
    assert is_associative(v)
    assert G.products == _full_pass_products(v) > 0


def _associative_by_products(vec):
    """The definition: (xy)z = x(yz) on the 27 unit triples, 90 products,
    each product the sum of c[i,j,k] x_i y_j over the nonzero coefficients."""
    field = vec.parent
    coeff = {(i, j, k): vec[i, j, k] for i, j, k in
             itertools.product((1, 2, 3), repeat=3)
             if not vec[i, j, k].is_zero()}

    def product(x, y):
        out = [zero] * 3
        for (i, j, k), c in coeff.items():
            if not (x[i - 1].is_zero() or y[j - 1].is_zero()):
                out[k - 1] = out[k - 1] + c * x[i - 1] * y[j - 1]
        return out

    zero = field.zero()
    units = [[field.one() if m == n else zero for m in range(3)]
             for n in range(3)]
    for x in units:
        for y in units:
            xy = product(x, y)
            for z in units:
                if product(xy, z) != product(x, product(y, z)):
                    return False
    return True


def _random_structures(field, rng, pool=None, counts=(1500, 400, 100)):
    """2000 structures: 1500 with 1-6 random terms, 400 with every
    coefficient drawn at random, 100 moved catalogue classes, half of them
    with one coefficient changed afterwards (or as many as ``counts`` says).
    Scalars come from ``pool``, zero first."""
    if pool is None and field == RATIONALS:
        pool = [field.zero()] + [field.element(Fraction(n, d))
                                 for n in range(-4, 5) if n for d in (1, 2, 3)]
    elif pool is None:
        pool = list(field.elements())       # zero first

    def scalar(nonzero=True):
        return pool[rng.randrange(1 if nonzero else 0, len(pool))]

    sparse, dense, moved = counts
    cells = list(itertools.product((1, 2, 3), repeat=3))
    for _ in range(sparse):
        yield StructureVector.from_terms(field, [
            (*rng.choice(cells), scalar()) for _ in range(rng.randint(1, 6))])
    for _ in range(dense):
        yield StructureVector(field, [scalar(nonzero=False) for _ in cells])
    classes = ["a0", "c1", "c3", "l1", "c5", "rho", "chat3", "a2"]
    for n in range(moved):
        vec = _rep(rng.choice(classes), field)
        while True:
            g = Matrix3.from_rows(field, [
                [scalar(nonzero=False) for _ in range(3)] for _ in range(3)])
            if not g.det().is_zero():
                break
        vec = act(vec, g)
        if n % 2:
            coeffs = list(vec.coeffs)
            cell = rng.randrange(27)
            coeffs[cell] = coeffs[cell] + scalar()
            vec = StructureVector(field, coeffs)
        yield vec


def _slow_domains():
    """Q(i) and Q(d) with a pool of small scalars, zero first.  A Q(i)
    product of these integral scalars costs a few microseconds, a Q(d) one
    tens, and Q(d)'s coefficients grow through gcds, so over Q(d) a moved
    class costs one to three seconds."""
    Qi = SimpleExtension(RATIONALS, [1, 0, 1], "i")
    i = Qi.generator()
    Fd = RationalFunctionField(RATIONALS, "d")
    d = Fd.gen()
    yield Qi, [Qi.zero()] + [Qi.element(a) + b * i for a in range(-2, 3)
                             for b in range(-1, 2) if a or b]
    yield Fd, [Fd.zero()] + [Fd.element(v) for v in (
        1, -1, 2, d, -d, d + 1, 2 * d - 1, d * d, 1 / d, 1 / (d + 1),
        d / (d - 2))]


def _associativity_cases():
    """Fewer structures over the slow domains, and over Q(d) no moved ones."""
    for field in (PrimeField(2), PrimeField(3), gf4(), gf16(), RATIONALS):
        yield pytest.param(field, None, (1500, 400, 100), id=repr(field))
    (Qi, qi_pool), (Fd, fd_pool) = _slow_domains()
    yield pytest.param(Qi, qi_pool, (150, 20, 6), id=repr(Qi))
    yield pytest.param(Fd, fd_pool, (150, 4, 0), id=repr(Fd))


@pytest.mark.parametrize("field, pool, counts", _associativity_cases())
def test_associativity_identity_matches_the_product_definition(field, pool, counts):
    rng = random.Random(f"assoc-{field!r}")
    verdicts = []
    for vec in _random_structures(field, rng, pool, counts):
        verdict = is_associative(vec)
        assert verdict == _associative_by_products(vec), str(vec)
        verdicts.append(verdict)
    assert len(verdicts) == sum(counts)
    assert True in verdicts and False in verdicts


# The element forms of the kernels that run on reps, as they were before:
# element operators throughout (FieldElements, or elements of F(d)), and M**
# in a polynomial ring.  Gauss-Jordan is the test's own.

def _row_reduce_by_elements(rows):
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row = m[r]
        inv = row[c].inverse()
        cols = [j for j in range(c, ncols) if not row[j].is_zero()]
        for j in cols:
            row[j] = row[j] * inv
        for i, other in enumerate(m):
            f = other[c]
            if i != r and not f.is_zero():
                for j in cols:
                    other[j] = other[j] - f * row[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _echelon_by_elements(rows):
    rref, pivots = _row_reduce_by_elements(rows)
    return rref[:len(pivots)]


def _power_chain_by_elements(vec):
    c = vec.coeffs
    z, o = vec.parent.zero(), vec.parent.one()
    e = [[o, z, z], [z, o, z], [z, z, o]]
    chain = []
    current = _echelon_by_elements([list(c[n:n + 3]) for n in range(0, 27, 3)])
    for _ in range(4):
        chain.append(current)
        if not current:
            break
        current = _echelon_by_elements([vec.product(u, x) for u in current for x in e])
    else:
        chain.append(current)
    return chain


def _annihilator_basis_by_elements(vec):
    """The basis, with the rows and their element reduction, which the rep
    kernel is checked against."""
    field = vec.parent
    zero = field.zero()
    rows = {}
    for i, j, k, c in vec.terms():
        rows.setdefault(("left", j, k), [zero] * 3)[i - 1] = c
        rows.setdefault(("right", i, k), [zero] * 3)[j - 1] = c
    rows = list(rows.values())
    rref, pivots = _row_reduce_by_elements(rows)
    basis = []
    for j in range(3):
        if j not in pivots:
            v = [field.zero()] * 3
            v[j] = field.one()
            for r, c in enumerate(pivots):
                v[c] = -rref[r][j]
            basis.append(v)
    return basis, rows, (rref, pivots)


def _element_sums(pairs) -> dict:
    out = {}
    for key, v in pairs:
        out[key] = out[key] + v if key in out else v
    return out


def _associative_by_elements(vec):
    terms = vec.terms()
    by_first, by_second = {}, {}
    for t in terms:
        by_first.setdefault(t[0], []).append(t)
        by_second.setdefault(t[1], []).append(t)
    left = _element_sums(((i, j, k, l), a * b) for i, j, m, a in terms
                         for _, k, l, b in by_first.get(m, ()))
    right = _element_sums(((i, j, k, l), a * b) for j, k, m, a in terms
                          for i, _, l, b in by_second.get(m, ()))
    zero = vec.parent.zero()
    return all(left.get(key, zero) == right.get(key, zero)
               for key in left.keys() | right.keys())


def _derivation_dimension_by_elements(vec):
    """The dimension, with the rows and their element reduction, which the
    rep kernel is checked against."""
    zero = vec.parent.zero()
    rows = {}
    for a, b, k, c in vec.terms():
        for n in (1, 2, 3):
            for row, col, v in (((a, b, n), 3 * n + k - 4, c),
                                ((n, b, k), 3 * a + n - 4, -c),
                                ((a, n, k), 3 * b + n - 4, -c)):
                r = rows.setdefault(row, [zero] * 9)
                r[col] = r[col] + v
    rows = list(rows.values())
    rref = _row_reduce_by_elements(rows)
    return 9 - len(rref[1]), rows, rref


def _m_star_star_by_polynomials(vec):
    ring = PolyRing(vec.parent, ("x1", "x2", "x3"))
    x = list(ring.gens())
    q = vec.lift(ring).product(x, x)
    return all((x[i] * q[j] - x[j] * q[i]).is_zero()
               for i in range(3) for j in range(i + 1, 3))


def _oracle_domains():
    """(field, scalar pool, counts for _random_structures): in
    characteristic 0 fewer dense and moved structures, whose coefficients
    grow, and over F(d) sparse ones only."""
    for field in (PrimeField(7), PrimeField(2), gf4(), gf16()):
        yield field, None, (180, 60, 60)
    yield RATIONALS, None, (240, 10, 30)
    (Qi, qi_pool), (Fd, fd_pool) = _slow_domains()
    yield Qi, qi_pool, (240, 10, 20)
    yield Fd, fd_pool, (240, 0, 0)


def test_rep_kernels_agree_with_the_element_oracles():
    # about 2000 seeded structures over seven scalar domains, F(d) included,
    # each domain with associative and non-associative ones, ones in M** and
    # not, and two that are not nilpotent: the idempotent e1 e1 = e1, and
    # the left unit e1 e_k = e_k, in M** with x*x = x1 x != 0.  The
    # derivation count is compared where its row reduction stays small, and
    # over F(d), whose products cost tens of microseconds and whose
    # coefficients grow by gcd, the bases on the fixed structures and every
    # fourth random one; over Q(i) the bases on every structure.
    seen = set()
    for field, pool, counts in _oracle_domains():
        rng = random.Random(f"oracle-{field!r}")
        fixed = [_rep(tag, field) for tag in ("a0", "l1", "c5", "rho")]
        fixed.append(basis_vector(field, 1, 1, 1))
        fixed.append(StructureVector.from_terms(field, [(1, k, k, 1) for k in (1, 2, 3)]))
        exact = field.char or field == RATIONALS
        structures = itertools.chain(fixed, _random_structures(field, rng, pool, counts))
        for n, vec in enumerate(structures):
            assoc = is_associative(vec)
            assert assoc == _associative_by_elements(vec), str(vec)
            closed = in_m_star_star(vec)
            assert closed == _m_star_star_by_polynomials(vec), str(vec)
            assert is_commutative(vec) == all(
                vec[j, i, k] == c for i, j, k, c in vec.terms()), str(vec)
            if (exact or not isinstance(field, RationalFunctionField)
                    or n < len(fixed) or n % 4 == 0):
                assert power_chain(vec) == _power_chain_by_elements(vec), str(vec)
                basis, rows, rref = _annihilator_basis_by_elements(vec)
                assert annihilator_basis(vec) == basis, str(vec)
                assert row_reduce(rows) == rref, str(vec)
            if exact:
                dim, rows, rref = _derivation_dimension_by_elements(vec)
                assert row_reduce(rows) == rref, str(vec)
                assert derivation_dimension(vec) == dim, str(vec)
            seen.update({(repr(field), "assoc", assoc), (repr(field), "m**", closed)})
    assert len(seen) == 7 * 2 * 2


def test_row_reduce_keeps_its_input_and_its_domain():
    assert row_reduce([]) == ([], [])
    for field, pool, _ in _oracle_domains():
        if repr(field) not in ("GF(2)(w)(s)", "QQ(i)", "QQ(d)"):
            continue
        pool = pool or list(field.elements())
        rng = random.Random(f"row-reduce-{field!r}")
        for _ in range(10):
            rows = [[rng.choice(pool) for _ in range(4)] for _ in range(3)]
            rows.append([a - b for a, b in zip(rows[0], rows[2])])
            before = [list(r) for r in rows]
            rref, pivots = row_reduce(rows)
            assert rows == before
            assert (rref, pivots) == _row_reduce_by_elements(rows)
            assert all(type(x) is type(field.zero())
                       and (x.field if hasattr(x, "field") else x.parent) == field
                       for r in rref for x in r)


def test_commutativity():
    F = RATIONALS
    assert is_commutative(_rep("c1", F))
    assert is_commutative(_rep("c3", F))
    assert is_commutative(_rep("c5", F))
    assert not is_commutative(_rep("l1", F))
    assert not is_commutative(structure_of(adelta(F, 2), F))
    # the symmetric pair: over characteristic 2 the alternating table is
    # commutative because -1 = 1
    assert is_commutative(_rep("l1", PrimeField(2)))


def test_nilpotency_class():
    F = RATIONALS
    assert nilpotency_class(_rep("a0", F)) == 0
    for tag in ("c1", "c3", "l1"):
        assert nilpotency_class(_rep(tag, F)) == 2
    assert nilpotency_class(_rep("c5", F)) == 3
    assert nilpotency_class(structure_of(adelta(F, 5), F)) == 2


def test_not_nilpotent_raises():
    F = RATIONALS
    idem = basis_vector(F, 1, 1, 1)
    with pytest.raises(NotNilpotentError):
        nilpotency_class(idem)


def test_square_and_annihilator_dimensions():
    F = RATIONALS
    expected = {"a0": (0, 3), "c1": (1, 2), "c3": (1, 1), "l1": (1, 1),
                "c5": (2, 1)}
    for tag, (sq, ann) in expected.items():
        vec = _rep(tag, F)
        assert square_dimension(vec) == sq
        assert annihilator_dimension(vec) == ann


def test_annihilator_dimension_by_counting():
    for p in (2, 3):
        F = PrimeField(p)
        for tag in ("a0", "c1", "c3", "l1", "c5"):
            vec = _rep(tag, F)
            assert _count_annihilator(vec) == p ** annihilator_dimension(vec)


def test_derivation_dimension_by_counting_gf2():
    F = PrimeField(2)
    for tag in ("a0", "c1", "c3", "l1", "c5"):
        vec = _rep(tag, F)
        assert _count_derivations(vec) == 2 ** derivation_dimension(vec)


def test_derivation_dimension_by_counting_gf3():
    F = PrimeField(3)
    for tag, param in (("c5", None), ("a", 2)):
        vec = _rep(tag, F, param)
        assert _count_derivations(vec) == 3 ** derivation_dimension(vec)


def test_square_on_own_line():
    F = RATIONALS
    assert in_m_star_star(_rep("a0", F))
    assert in_m_star_star(_rep("l1", F))
    assert in_m_star_star(_rep("l1", PrimeField(2)))
    assert not in_m_star_star(_rep("c1", F))
    assert not in_m_star_star(_rep("c3", F))
    assert not in_m_star_star(_rep("c5", F))
    assert not in_m_star_star(structure_of(adelta(F, 1), F))
    assert not in_m_star_star(structure_of(hbeta(F, 2), F))
    assert in_m_star_star(structure_of(hbeta(F, -1), F))


def test_square_on_own_line_implies_pointwise():
    F = PrimeField(7)
    for tag in ("a0", "l1"):
        vec = _rep(tag, F)
        assert in_m_star_star(vec)
        for flat in itertools.product(range(7), repeat=3):
            x = [F.element(v) for v in flat]
            q = vec.product(x, x)
            # all 2x2 minors of (x, x*x) vanish
            for a in range(3):
                for b in range(a + 1, 3):
                    assert x[a] * q[b] == x[b] * q[a]


def test_profile_invariant_under_basis_change():
    rng = random.Random(77)
    F = PrimeField(7)
    vec = structure_of(adelta(F, 3), F)
    base = invariant_profile(vec)
    for _ in range(10):
        while True:
            rows = [[F.element(rng.randrange(7)) for _ in range(3)]
                    for _ in range(3)]
            g = Matrix3.from_rows(F, rows)
            if not g.det().is_zero():
                break
        assert invariant_profile(act(vec, g)) == base


def test_profile_of_non_nilpotent():
    F = RATIONALS
    p = invariant_profile(basis_vector(F, 1, 1, 1))
    assert not p.nilpotent
    assert p.nilpotency_class is None
    assert p.associative


# The associativity verdict and the power chain are kept on the vector.

def _parsed(tag, F, g):
    return parse_vector(render_vector(act(_rep(tag, F), g)))


def test_identify_and_profile_share_one_pass(monkeypatch):
    calls = {"_associative": 0, "_chain": 0}
    for name in calls:
        kernel = getattr(nilalg3.algprops, name)

        def counted(vec, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(vec)
        monkeypatch.setattr(nilalg3.algprops, name, counted)
    F = PrimeField(7)
    g = Matrix3.from_rows(F, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    for tag in ("c1", "l1", "c5"):
        vec = _parsed(tag, F, g)
        assert identify(vec) == AlgebraId(tag)
        assert invariant_profile(vec).associative
        assert identify_with_witness(vec)[0] == AlgebraId(tag)
        assert nilpotency_class(vec) == len(square_basis(vec)) + 1
        assert calls == {"_associative": 1, "_chain": 1}, tag
        calls.update(dict.fromkeys(calls, 0))


def test_kept_bases_are_returned_as_fresh_lists():
    F = PrimeField(7)
    g = Matrix3.from_rows(F, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    vec, fresh = _parsed("c5", F, g), _parsed("c5", F, g)
    chain, square = power_chain(vec), square_basis(vec)
    chain[0][0][0] = F.element(5)
    chain[1].clear()
    chain.append([[F.one()] * 3])
    square[0].reverse()
    square.append(square[0])
    assert power_chain(vec) == power_chain(fresh)
    assert square_basis(vec) == square_basis(fresh)
    assert nilpotency_class(vec) == nilpotency_class(fresh) == 3
    assert invariant_profile(vec) == invariant_profile(fresh)


def test_a_kept_pass_leaves_the_vector_immutable_and_equal():
    F = PrimeField(7)
    g = Matrix3.from_rows(F, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    vec, fresh = _parsed("c3", F, g), _parsed("c3", F, g)
    invariant_profile(vec)
    identify(vec)
    for name in ("parent", "reps", "_kept", "other"):
        with pytest.raises(AttributeError):
            setattr(vec, name, None)
    assert vec == fresh and hash(vec) == hash(fresh)
    assert {fresh: 1}[vec] == 1


def test_a_non_associative_vector_is_refused_in_either_order():
    F = PrimeField(7)
    payload = render_vector(basis_vector(F, 1, 1, 2) + basis_vector(F, 2, 2, 3))
    vec = parse_vector(payload)
    with pytest.raises(CatalogueError, match="not associative"):
        identify(vec)
    assert not invariant_profile(vec).associative
    vec = parse_vector(payload)
    assert not invariant_profile(vec).associative
    with pytest.raises(CatalogueError, match="not associative"):
        identify(vec)
    with pytest.raises(CatalogueError, match="not associative"):
        identify_with_witness(vec)
