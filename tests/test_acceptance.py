"""Acceptance gate: eight checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines
are repeated in a summary section at the end of the session (and appear
inline with ``-s``).
"""

import random
import time
from contextlib import contextmanager

from nilalg3.algprops import (derivation_dimension, in_m_star_star,
                              invariant_profile, is_commutative,
                              nilpotency_class, square_basis)
from nilalg3.catalogue import (AlgebraId, adelta, hbeta, identify, quarter,
                               iso_witness, structure_of)
from nilalg3.degeneration import (check_obstruction, known_witness,
                                  search_witness, verify_lemma_identities,
                                  verify_witness)
from nilalg3.fields import PrimeField, RATIONALS, gf4, gf16
from nilalg3.hasse import build_graph, compare_expected
from nilalg3.polyring import RationalFunctionField
from nilalg3.structspace import Matrix3, act, basis_vector

from conftest import record_acceptance

Q = RATIONALS
GF2, GF5, GF7 = PrimeField(2), PrimeField(5), PrimeField(7)


@contextmanager
def criterion(number, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        line = f"criterion {number} ({name}): FAIL"
        print(line)
        record_acceptance(line)
        raise
    line = f"criterion {number} ({name}): PASS [{time.perf_counter() - t0:.2f}s]"
    print(line)
    record_acceptance(line)


def _random_invertible(field, rng):
    while True:
        rows = [[field.element(rng.randrange(field.order())) for _ in range(3)]
                for _ in range(3)]
        g = Matrix3.from_rows(field, rows)
        if not g.det().is_zero():
            return g


def _random_vector(field, rng):
    from nilalg3.structspace import StructureVector
    terms = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                if rng.random() < 0.4:
                    terms.append((i, j, k,
                                  field.element(rng.randrange(1, field.order()))))
    return StructureVector.from_terms(field, terms)


def test_criterion_1_hasse_diagrams():
    with criterion(1, "hasse diagrams"):
        t0 = time.perf_counter()
        g0 = build_graph(0)
        dt0 = time.perf_counter() - t0
        t0 = time.perf_counter()
        g2 = build_graph(2)
        dt2 = time.perf_counter() - t0
        assert len(g0.edges) == 7
        assert len(g2.edges) == 6
        assert compare_expected(g0) == ((), ())
        assert compare_expected(g2) == ((), ())
        assert dt0 < 10.0, f"characteristic 0 diagram took {dt0:.1f}s"
        assert dt2 < 10.0, f"characteristic 2 diagram took {dt2:.1f}s"


def test_criterion_2_witness_suite():
    with criterion(2, "witness suite"):
        checked = 0
        C1, C3, L1, C5, A0 = (AlgebraId(t) for t in ("c1", "c3", "l1", "c5",
                                                     "a0"))

        # collapse onto the stated symmetric product, identified as c3
        w = known_witness(C5, C3, Q)
        limit = verify_witness(w)
        assert limit == basis_vector(Q, 1, 2, 3) + basis_vector(Q, 2, 1, 3)
        assert identify(limit) == C3
        checked += 1

        w = known_witness(C5, C3, GF2)
        limit = verify_witness(w)
        assert limit == (basis_vector(GF2, 2, 3, 1)
                         + basis_vector(GF2, 3, 2, 1)
                         + basis_vector(GF2, 3, 3, 1))
        assert identify(limit) == C3
        checked += 1

        # the characteristic-2 pinch onto the symmetric pair 231+321
        w = known_witness(C3, L1, GF2)
        assert verify_witness(w) == (basis_vector(GF2, 2, 3, 1)
                                     + basis_vector(GF2, 3, 2, 1))
        checked += 1

        for field in (Q, GF2):
            verify_witness(known_witness(C3, C1, field))
            checked += 1

        # ten family parameters per characteristic
        for d in (0, 1, 2, 3, 5, 7, 11, 13, 17, 19):
            verify_witness(known_witness(adelta(Q, d), C1, Q))
            checked += 1
        big = gf16()
        for d in list(big.elements())[:10]:
            verify_witness(known_witness(adelta(big, d), C1, big))
            checked += 1

        for field in (Q, GF7):
            verify_witness(known_witness(adelta(field, quarter(field)), L1,
                                         field))
            checked += 1

        for field, tags in ((Q, ("c1", "l1", "c3", "c5")),
                            (GF2, ("c1", "l1", "c3", "c5"))):
            for tag in tags:
                assert verify_witness(
                    known_witness(AlgebraId(tag), A0, field)).is_zero()
                checked += 1
            verify_witness(known_witness(adelta(field, 1), A0, field))
            checked += 1

        assert checked >= 37


def test_criterion_3_identity_suite():
    with criterion(3, "polynomial identity suite"):
        t0 = time.perf_counter()
        for char in (0, 2):
            report = verify_lemma_identities(char)
            assert report.ok, f"identities failed: {report.failures()}"
            assert len(report.entries) == 14
        # every single-coefficient mutation must break some identity
        for char in (0, 2):
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    for k in (1, 2, 3):
                        mutated = verify_lemma_identities(char,
                                                          mutate=(i, j, k))
                        assert not mutated.ok, \
                            f"mutation {(i, j, k)} undetected in char {char}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_4_isomorphism_suite():
    with criterion(4, "isomorphism witness suite"):
        # reciprocal parameters, symbolically (one check for all values)
        K = RationalFunctionField(Q, "b")
        b = K.gen()
        sigma = basis_vector(K, 2, 3, 1) + basis_vector(K, 3, 2, 1).scale(b)
        swap = Matrix3.from_rows(K, [[b, 0, 0], [0, 0, 1], [0, 1, 0]])
        target = basis_vector(K, 2, 3, 1) + basis_vector(K, 3, 2, 1).scale(1 / b)
        assert act(sigma, swap) == target

        # the alpha matrix, symbolically (away from characteristic 2)
        K = RationalFunctionField(Q, "a")
        al = K.gen()
        kappa = -(al + 1 / al)
        a3 = (basis_vector(K, 2, 2, 1) + basis_vector(K, 3, 2, 1).scale(kappa)
              + basis_vector(K, 3, 3, 1))
        g = Matrix3.from_rows(K, [[al - 1 / al, 0, 0], [0, al, 1], [0, 1, al]])
        h_target = (basis_vector(K, 2, 3, 1)
                    + basis_vector(K, 3, 2, 1).scale(-al * al))
        assert act(a3, g) == h_target

        # the kappa matrix, symbolically
        K = RationalFunctionField(Q, "k")
        k = K.gen()
        fam = (basis_vector(K, 2, 2, 1) + basis_vector(K, 2, 3, 1)
               + basis_vector(K, 3, 3, 1).scale(1 / (k * k)))
        g = Matrix3.from_rows(K, [[1, 0, 0], [0, 0, 1], [0, k, 0]])
        a3_target = (basis_vector(K, 2, 2, 1) + basis_vector(K, 3, 2, 1).scale(k)
                     + basis_vector(K, 3, 3, 1))
        assert act(fam, g) == a3_target

        # concrete witnesses: in GF(5) the split needs only the base field,
        # over the rationals it costs adjoining a square root of -1
        w5 = iso_witness(AlgebraId("c3"), AlgebraId("chat3"), GF5)
        assert w5 is not None and w5.field == GF5
        wq = iso_witness(AlgebraId("c3"), AlgebraId("chat3"), Q,
                         allow_extension=True)
        assert wq is not None and wq.field.char == 0
        assert wq.field != Q

        shear = iso_witness(AlgebraId("a2"), adelta(Q, 0), Q)
        assert shear is not None


def test_criterion_5_action_oracle():
    with criterion(5, "action axioms and Kronecker cross-check"):
        instances = 0
        for field, seed in ((GF7, 501), (gf4(), 502)):
            rng = random.Random(seed)
            order = field.order()
            elems = list(field.elements())
            for _ in range(110):
                vec = _random_vector(field, rng)
                g = _random_invertible(field, rng)
                h = _random_invertible(field, rng)
                assert act(vec, Matrix3.identity(field)) == vec
                assert act(act(vec, g), h) == act(vec, g @ h)

                # flat 27-vector times the Kronecker sandwich g (x) g (x) inv^T
                inv = g.inverse()
                flat = [field.zero()] * 27
                for i, j, k, c in vec.terms():
                    flat[9 * (i - 1) + 3 * (j - 1) + (k - 1)] = c
                out = [field.zero()] * 27
                for a in (1, 2, 3):
                    for bb in (1, 2, 3):
                        for c in (1, 2, 3):
                            s = field.zero()
                            for i in (1, 2, 3):
                                gia = g.entry(i, a)
                                if gia.is_zero():
                                    continue
                                for j in (1, 2, 3):
                                    gjb = g.entry(j, bb)
                                    if gjb.is_zero():
                                        continue
                                    for k in (1, 2, 3):
                                        v = flat[9 * (i - 1) + 3 * (j - 1)
                                                 + (k - 1)]
                                        if v.is_zero():
                                            continue
                                        s = s + v * gia * gjb * inv.entry(c, k)
                            out[9 * (a - 1) + 3 * (bb - 1) + (c - 1)] = s
                moved = act(vec, g)
                got = [field.zero()] * 27
                for i, j, k, c in moved.terms():
                    got[9 * (i - 1) + 3 * (j - 1) + (k - 1)] = c
                assert got == out
                instances += 1
        assert instances >= 200


def _members(label, field):
    if label == "a(*)":
        if field.char == 2:
            return [adelta(field, field.one()),
                    adelta(field, field.element(0))]
        return [adelta(field, 3), adelta(field, 5)]
    if label == "a(1/4)":
        return [adelta(field, quarter(field))]
    return [AlgebraId(label)]


def test_criterion_6_invariants_and_semicontinuity():
    with criterion(6, "invariance and semicontinuity"):
        # every profile field survives 50 random basis changes
        for field, ids in (
                (GF7, [AlgebraId("a0"), AlgebraId("c1"), AlgebraId("l1"),
                       AlgebraId("c3"), adelta(GF7, 3),
                       adelta(GF7, quarter(GF7)), AlgebraId("c5")]),
                (gf4(), [AlgebraId("a0"), AlgebraId("c1"), AlgebraId("l1"),
                         AlgebraId("c3"), adelta(gf4(), gf4().generator()),
                         AlgebraId("c5")])):
            rng = random.Random(601)
            for ident in ids:
                vec = structure_of(ident, field)
                base = invariant_profile(vec)
                for _ in range(50):
                    g = _random_invertible(field, rng)
                    assert invariant_profile(act(vec, g)) == base

        # semicontinuity along every certified arrow of both diagrams
        arrows_checked = 0
        for char, field in ((0, Q), (2, gf4())):
            diagram = build_graph(char)
            for src_label, dst_label, _ in diagram.edges:
                for src in _members(src_label, field):
                    for dst in _members(dst_label, field):
                        if check_obstruction(src, dst, field) is not None:
                            continue      # family members not actually linked
                        x = structure_of(src, field)
                        y = structure_of(dst, field)
                        assert nilpotency_class(y) <= nilpotency_class(x)
                        if is_commutative(x):
                            assert is_commutative(y)
                        if in_m_star_star(x):
                            assert in_m_star_star(y)
                        assert len(square_basis(y)) <= len(square_basis(x))
                        assert derivation_dimension(y) >= derivation_dimension(x)
                        arrows_checked += 1
        assert arrows_checked >= 13       # 7 + 6 edges, families sampled twice

        # the symmetric-pair family has a constant derivation algebra
        for b in (0, 1, 2, 3, 5):
            vec = structure_of(hbeta(Q, b), Q)
            assert derivation_dimension(vec) == 4
        assert derivation_dimension(structure_of(hbeta(Q, -1), Q)) == 6


def test_criterion_7_identification_round_trip():
    with criterion(7, "identification round-trip"):
        for field, seed in ((GF7, 701), (gf4(), 702)):
            ids = [AlgebraId("a0"), AlgebraId("c1"), AlgebraId("l1"),
                   AlgebraId("c3"), AlgebraId("c5"), adelta(field, 3)]
            if field.char != 2:
                ids.append(adelta(field, quarter(field)))
            rng = random.Random(seed)
            for ident in ids:
                vec = structure_of(ident, field)
                for _ in range(25):
                    g = _random_invertible(field, rng)
                    assert identify(act(vec, g)) == ident

        # exact family-parameter recovery at ten values
        rng = random.Random(703)
        G = PrimeField(13)
        for n in range(10):
            d = G.element(n)
            vec = structure_of(adelta(G, d), G)
            g = _random_invertible(G, rng)
            got = identify(act(vec, g))
            assert got.tag == "a" and got.param == d


def test_criterion_8_negative_searches():
    with criterion(8, "negative-search evidence"):
        t0 = time.perf_counter()
        cases = [
            (AlgebraId("l1"), AlgebraId("c1"), GF5),
            (AlgebraId("c3"), AlgebraId("l1"), GF5),
            (adelta(gf4(), gf4().one()), AlgebraId("c3"), gf4()),
        ]
        for src, dst, field in cases:
            blocked = check_obstruction(src, dst, field)
            assert blocked is not None, f"no obstruction recorded for {src}->{dst}"
            result = search_witness(src, dst, field, degree_bound=2,
                                    budget=100000)
            assert not result.found, \
                f"search found a witness for {src}->{dst} despite {blocked.tag}"
            assert result.tried == 100000
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"searches took {elapsed:.1f}s"
