"""Isomorphism invariants, cross-checked by brute force over tiny fields.

Over GF(2) and GF(3) the solution sets behind the linear-algebra answers
(derivations, annihilators) are small enough to enumerate outright, so the
dimensions can be confirmed by counting points: a d-dimensional solution
space over GF(q) has exactly q^d points.
"""

import itertools
import random
from fractions import Fraction

import pytest

from nilalg3.algprops import (NotNilpotentError, annihilator_dimension,
                              derivation_dimension, in_m_star_star,
                              invariant_profile, is_associative,
                              is_commutative, nilpotency_class,
                              square_dimension)
from nilalg3.catalogue import AlgebraId, adelta, hbeta, structure_of
from nilalg3.fields import PrimeField, RATIONALS, gf4, gf16
from nilalg3.structspace import Matrix3, StructureVector, act, basis_vector


def _rep(tag, field, param=None):
    if param is None:
        return structure_of(AlgebraId(tag), field)
    return structure_of(AlgebraId(tag, field.element(param)), field)


def _count_derivations(vec):
    """Enumerate all 3x3 matrices D over the finite base field and count
    the ones satisfying D(e_i e_j) = D(e_i) e_j + e_i D(e_j)."""
    field = vec.parent
    elems = list(field.elements())
    basis = [[field.one() if m == n else field.zero() for m in range(3)]
             for n in range(3)]
    count = 0
    for flat in itertools.product(elems, repeat=9):
        D = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]

        def apply(x):
            return [sum((D[m][n] * x[n] for n in range(3)), field.zero())
                    for m in range(3)]

        ok = True
        for i in range(3):
            for j in range(3):
                lhs = apply(vec.product(basis[i], basis[j]))
                rhs1 = vec.product(apply(basis[i]), basis[j])
                rhs2 = vec.product(basis[i], apply(basis[j]))
                if any((a - b - c) != field.zero()
                       for a, b, c in zip(lhs, rhs1, rhs2)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def _count_annihilator(vec):
    field = vec.parent
    count = 0
    for flat in itertools.product(list(field.elements()), repeat=3):
        x = list(flat)
        ok = True
        for e in range(3):
            basis = [field.one() if m == e else field.zero() for m in range(3)]
            if any(c != field.zero() for c in vec.product(x, basis)):
                ok = False
                break
            if any(c != field.zero() for c in vec.product(basis, x)):
                ok = False
                break
        if ok:
            count += 1
    return count


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


def _random_structures(field, rng):
    """2000 structures: 1500 with 1-6 random terms, 400 with every
    coefficient drawn at random, 100 moved catalogue classes, half of them
    with one coefficient changed afterwards."""
    if field == RATIONALS:
        pool = [field.zero()] + [field.element(Fraction(n, d))
                                 for n in range(-4, 5) if n for d in (1, 2, 3)]
    else:
        pool = list(field.elements())       # zero first

    def scalar(nonzero=True):
        return pool[rng.randrange(1 if nonzero else 0, len(pool))]

    cells = list(itertools.product((1, 2, 3), repeat=3))
    for _ in range(1500):
        yield StructureVector.from_terms(field, [
            (*rng.choice(cells), scalar()) for _ in range(rng.randint(1, 6))])
    for _ in range(400):
        yield StructureVector(field, [scalar(nonzero=False) for _ in cells])
    classes = ["a0", "c1", "c3", "l1", "c5", "rho", "chat3", "a2"]
    for n in range(100):
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


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), gf4(), gf16(),
                                   RATIONALS], ids=repr)
def test_associativity_identity_matches_the_product_definition(field):
    rng = random.Random(f"assoc-{field!r}")
    verdicts = []
    for vec in _random_structures(field, rng):
        verdict = is_associative(vec)
        assert verdict == _associative_by_products(vec), str(vec)
        verdicts.append(verdict)
    assert len(verdicts) == 2000
    assert True in verdicts and False in verdicts


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
