"""Degeneration certificates: curves, obstructions, search, composition.

Every positive answer is an explicit matrix over F(t) whose limit is
recomputed here; every negative answer is pinned to a machine-checkable
reason (a semicontinuous invariant, a verified polynomial identity, or
transitivity through an already-settled pair).
"""

import random

import pytest

from nilalg3 import degeneration
from nilalg3.catalogue import (AlgebraId, adelta, a3kappa, identify, quarter,
                               structure_of)
from nilalg3.degeneration import (CurveWitness, DegenerationError,
                                  OBSTRUCTION_TAGS, check_obstruction,
                                  compose_curves, curve_limit, degenerates,
                                  known_witness, lift_witness_to_rationals,
                                  search_witness, verify_lemma_identities,
                                  verify_witness)
from nilalg3.fields import FieldError, PrimeField, RATIONALS, gf4, gf16
from nilalg3.polyring import PoleAtZero, RationalFunctionField, limit_at_zero
from nilalg3.structspace import Matrix3, act, basis_vector

Q = RATIONALS
GF2 = PrimeField(2)
GF5 = PrimeField(5)
GF7 = PrimeField(7)

C1, C3, L1, C5, A0 = (AlgebraId(t) for t in ("c1", "c3", "l1", "c5", "a0"))


# -- the curve library ---------------------------------------------------------


def test_scale_to_zero_everywhere():
    for field in (Q, GF2, GF7):
        for tag in ("c1", "c3", "l1", "c5"):
            w = known_witness(AlgebraId(tag), A0, field)
            assert w.note == "scale-to-zero"
            assert verify_witness(w).is_zero()


def test_pinch_family_curve():
    for field, deltas in ((Q, (0, 1, -2, 7)), (gf4(), (0, 1))):
        for d in deltas:
            src = adelta(field, d)
            w = known_witness(src, C1, field)
            assert w.note == "pinch-family"
            # intermediate value: t^2*d*221 + t*321 + 331
            rff = w.matrix.parent
            t = rff.gen()
            moved = act(structure_of(src, field).lift(rff), w.matrix)
            expect = (basis_vector(rff, 2, 2, 1).scale(t * t * rff.const(field.element(d)))
                      + basis_vector(rff, 3, 2, 1).scale(t)
                      + basis_vector(rff, 3, 3, 1))
            assert moved == expect
            assert verify_witness(w) == structure_of(C1, field)


def test_squeeze_curve():
    for field in (Q, GF2, GF7):
        w = known_witness(C3, C1, field)
        assert w.note == "squeeze-e2"
        assert verify_witness(w) == structure_of(C1, field)


def test_triangle_collapse_char_not_two():
    w = known_witness(C5, C3, Q)
    assert w.note == "triangle-collapse"
    assert w.up_to_iso
    rff = w.matrix.parent
    t = rff.gen()
    moved = act(structure_of(C5, Q).lift(rff), w.matrix)
    expect = (basis_vector(rff, 1, 1, 2).scale(t * t)
              + basis_vector(rff, 1, 1, 3).scale(2 * t)
              + basis_vector(rff, 1, 2, 3) + basis_vector(rff, 2, 1, 3))
    assert moved == expect
    limit = verify_witness(w)
    assert limit == basis_vector(Q, 1, 2, 3) + basis_vector(Q, 2, 1, 3)
    assert identify(limit) == C3


def test_rep_collapse_char_two():
    for field in (GF2, gf4()):
        w = known_witness(C5, C3, field)
        assert w.note == "rep-collapse"
        assert w.up_to_iso
        limit = verify_witness(w)
        assert limit == (basis_vector(field, 2, 3, 1) + basis_vector(field, 3, 2, 1)
                         + basis_vector(field, 3, 3, 1))
        assert identify(limit) == C3


def test_limit_of_triangle_collapse_is_l1_in_char_two():
    # the same symmetric limit 123 + 213 that gives c3 away from
    # characteristic 2 turns alternating-like in characteristic 2
    vec = basis_vector(GF2, 1, 2, 3) + basis_vector(GF2, 2, 1, 3)
    assert identify(vec) == L1


def test_quarter_pinch():
    for field in (Q, GF7):
        src = adelta(field, quarter(field))
        w = known_witness(src, L1, field)
        assert w.note == "quarter-pinch"
        assert verify_witness(w) == structure_of(L1, field)


def test_shear_pinch_char_two():
    for field in (GF2, gf4()):
        w = known_witness(C3, L1, field)
        assert w.note == "shear-pinch"
        rff = w.matrix.parent
        t = rff.gen()
        moved = act(structure_of(C3, field).lift(rff), w.matrix)
        expect = (basis_vector(rff, 2, 3, 1) + basis_vector(rff, 3, 2, 1)
                  + basis_vector(rff, 3, 3, 1).scale(t))
        assert moved == expect
        assert verify_witness(w) == structure_of(L1, field)
    assert known_witness(C3, L1, Q) is None


def test_cube_collapse():
    for field in (Q, GF2, GF7):
        w = known_witness(C5, C1, field)
        assert w.note == "cube-collapse"
        assert verify_witness(w) == structure_of(C1, field)


@pytest.mark.parametrize("base", [Q, gf16()], ids=["Q", "GF16"])
def test_library_curves_at_the_generic_point(base):
    # a(d) over F(d): the curve entries lie in F(d)[t], and every scalar of
    # the limit computation is a rational function in d
    field = RationalFunctionField(base, "d")
    src = adelta(field, field.gen())
    for dst, note in ((C1, "pinch-family"), (A0, "scale-to-zero")):
        w = degeneration._library_curve(src, dst, field)
        assert w.note == note
        assert verify_witness(w) == structure_of(dst, field)


def test_known_witness_returns_none_off_table():
    assert known_witness(L1, C1, Q) is None
    assert known_witness(C1, C3, Q) is None


def test_verify_rejects_wrong_target():
    rff = RationalFunctionField(Q, "t")
    t = rff.gen()
    g = Matrix3.from_rows(rff, [[1, 0, 0], [0, 0, 1], [0, t, 0]])
    bad = CurveWitness(adelta(Q, 2), L1, g)
    with pytest.raises(DegenerationError):
        verify_witness(bad)


def test_verify_rejects_pole():
    # shrinking e1 blows up the 221 and 331 coefficients like 1/t
    rff = RationalFunctionField(Q, "t")
    t = rff.gen()
    g = Matrix3.from_rows(rff, [[t, 0, 0], [0, 1, 0], [0, 0, 1]])
    w = CurveWitness(C3, C3, g)
    with pytest.raises(DegenerationError):
        curve_limit(w)


def test_verify_rejects_singular_curve():
    rff = RationalFunctionField(Q, "t")
    g = Matrix3.from_rows(rff, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(DegenerationError):
        curve_limit(CurveWitness(C3, C3, g))


def _oracle_limit(witness):
    """The rational-function route: act over F(t), then limit_at_zero."""
    rff = witness.matrix.parent
    if witness.matrix.det().is_zero():
        return "singular"
    moved = act(structure_of(witness.src, rff.field).lift(rff), witness.matrix)
    try:
        return moved.map_scalars(limit_at_zero, rff.field)
    except PoleAtZero:
        return "pole"


def _random_entry(rng, rff, elems):
    """0 half the time; otherwise a polynomial of degree <= 2, over a
    nonconstant denominator a third of the time."""
    if rng.random() < 0.5:
        return rff.zero()
    t = rff.gen()

    def poly(lo):
        return sum((rff.const(rng.choice(elems)) * t ** e for e in range(lo, 3)),
                   rff.zero())

    num = poly(rng.randrange(3))
    if rng.random() < 1 / 3:
        den = poly(0)
        if den.num.degree() > 0:
            return num / den
    return num


@pytest.mark.parametrize("field", [Q, GF7, GF2, gf4(), gf16()],
                         ids=["Q", "GF7", "GF2", "GF4", "GF16"])
def test_curve_limit_agrees_with_rational_function_route(field):
    rng = random.Random(20260)
    rff = RationalFunctionField(field, "t")
    elems = ([field.element(c) for c in range(-3, 4)] if field.char == 0
             else list(field.elements()))
    sources = (C1, C3, L1, C5, adelta(field, 1))
    seen = {"limit": 0, "pole": 0, "singular": 0}
    for _ in range(40):
        g = Matrix3.from_rows(rff, [[_random_entry(rng, rff, elems)
                                     for _ in range(3)] for _ in range(3)])
        w = CurveWitness(rng.choice(sources), A0, g)
        expect = _oracle_limit(w)
        if isinstance(expect, str):
            seen[expect] += 1
            with pytest.raises(DegenerationError, match=expect):
                curve_limit(w)
        else:
            seen["limit"] += 1
            assert curve_limit(w) == expect
    assert all(seen.values()), seen


# -- the polynomial identity suite ---------------------------------------------


@pytest.mark.parametrize("char", [0, 2, 5])
def test_identity_suite_holds(char):
    report = verify_lemma_identities(char)
    assert report.ok
    assert report.characteristic == char
    names = [n for n, _ in report.entries]
    assert "moved-231" in names and "alternating-in-orbit" in names
    assert len(names) == 14


def test_identity_suite_detects_mutations():
    for triple in ((2, 3, 1), (3, 2, 1), (1, 1, 1), (3, 3, 2)):
        report = verify_lemma_identities(0, mutate=triple)
        assert not report.ok, f"mutation at {triple} went unnoticed"
    report = verify_lemma_identities(2, mutate=(2, 2, 1))
    assert not report.ok


# -- obstructions ---------------------------------------------------------------


def test_obstruction_tags_are_fixed():
    assert OBSTRUCTION_TAGS == ("nilpotency-class", "commutativity",
                                "m-star-star-closure", "family-separation",
                                "rho-separation", "transitivity-derived")


def test_machine_obstructions_char0():
    assert check_obstruction(A0, C1, Q).tag == "nilpotency-class"
    assert check_obstruction(C3, C5, Q).tag == "nilpotency-class"
    assert check_obstruction(C3, adelta(Q, 3), Q).tag == "commutativity"
    assert check_obstruction(L1, C1, Q).tag == "m-star-star-closure"
    assert check_obstruction(L1, C3, Q).tag == "m-star-star-closure"


def test_lemma_obstructions_char0():
    assert check_obstruction(adelta(Q, 3), L1, Q).tag == "family-separation"
    assert check_obstruction(adelta(Q, 3), adelta(Q, 5), Q).tag == "family-separation"
    # c3 vs l1 is already settled by the cheaper commutativity test, which
    # takes precedence over the identity-suite lemma
    assert check_obstruction(C3, L1, Q).tag == "commutativity"
    q = adelta(Q, quarter(Q))
    assert check_obstruction(q, C3, Q).tag == "rho-separation"
    assert check_obstruction(q, adelta(Q, 3), Q).tag == "rho-separation"


def test_transitivity_obstructions_char0():
    assert check_obstruction(C1, C3, Q).tag == "transitivity-derived"
    assert check_obstruction(adelta(Q, 3), adelta(Q, quarter(Q)), Q).tag \
        == "transitivity-derived"


def test_obstructions_char2():
    F = gf4()
    assert check_obstruction(L1, C1, F).tag == "m-star-star-closure"
    assert check_obstruction(C1, L1, F).tag == "transitivity-derived"
    assert check_obstruction(adelta(F, F.one()), C3, F).tag == "transitivity-derived"
    assert check_obstruction(C1, C3, F).tag == "transitivity-derived"
    assert check_obstruction(adelta(F, F.generator()), L1, F).tag \
        == "family-separation"


def test_no_obstruction_on_true_degenerations():
    assert check_obstruction(C3, C1, Q) is None
    assert check_obstruction(adelta(Q, 3), C1, Q) is None
    assert check_obstruction(C5, C3, Q) is None
    assert check_obstruction(adelta(Q, quarter(Q)), L1, Q) is None
    assert check_obstruction(C3, L1, gf4()) is None
    assert check_obstruction(C5, A0, Q) is None


# -- the complete decision procedure ---------------------------------------------


def test_degenerates_direct():
    fact = degenerates(C3, C1, Q)
    assert fact.holds and fact.witness is not None
    assert fact.witness.note == "squeeze-e2"


def test_degenerates_via_chain():
    fact = degenerates(C5, C1, GF7)
    assert fact.holds
    assert fact.witness is not None or len(fact.chain) >= 2


def test_degenerates_negative():
    fact = degenerates(L1, C1, Q)
    assert not fact.holds
    assert fact.obstruction.tag == "m-star-star-closure"


def test_degenerates_canonicalizes_input():
    fact = degenerates(AlgebraId("rho"), L1, Q)
    assert fact.holds
    fact2 = degenerates(a3kappa(Q, 3), C1, Q)
    assert fact2.holds
    fact3 = degenerates(AlgebraId("chat3"), L1, Q)
    assert not fact3.holds


def test_degenerates_reflexive():
    fact = degenerates(adelta(Q, 5), adelta(Q, 5), Q)
    assert fact.holds


# -- memoisation -----------------------------------------------------------------


_CACHES = (degeneration.known_witness, degeneration._node_profile,
           degeneration._require_lemma)


def _fact_key(fact):
    """What a fact states: direction, obstruction tag and reason, curve notes."""
    obs = fact.obstruction
    curves = (fact.witness,) if fact.witness is not None else fact.chain
    return (fact.src, fact.dst, fact.holds,
            None if obs is None else (obs.tag, obs.reason),
            tuple(w.note for w in curves))


@pytest.mark.parametrize("field", [Q, gf16()], ids=["Q", "GF16"])
def test_cleared_caches_give_the_same_facts(field):
    nodes = [A0, C1, L1, C3, C5, adelta(field, 0), adelta(field, 2 if field.char == 0
                                                            else field.generator())]
    if field.char != 2:
        nodes.append(adelta(field, quarter(field)))

    def facts():
        return [_fact_key(degenerates(s, d, field)) for s in nodes for d in nodes]

    warm = facts()
    for cache in _CACHES:
        cache.cache_clear()
    cold = facts()
    assert cold == warm
    assert facts() == cold
    assert {f[3][0] for f in cold if f[3]} >= {"family-separation",
                                               "transitivity-derived"}


def test_known_witness_refuses_non_canonical_ids_on_every_call():
    before = known_witness.cache_info()
    for _ in range(3):
        with pytest.raises(DegenerationError, match="canonical"):
            known_witness(AlgebraId("rho"), C1, Q)
    after = known_witness.cache_info()
    assert after.currsize == before.currsize
    assert after.hits == before.hits


def test_identity_suite_leaves_the_lemma_cache_alone():
    before = degeneration._require_lemma.cache_info()
    assert verify_lemma_identities(0).ok
    assert not verify_lemma_identities(0, mutate=(2, 2, 1)).ok
    assert degeneration._require_lemma.cache_info() == before


def test_known_witness_returns_the_cached_curve():
    first = known_witness(C3, C1, GF5)
    before = known_witness.cache_info()
    second = known_witness(C3, C1, GF5)
    after = known_witness.cache_info()
    assert second is first
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# -- composition -----------------------------------------------------------------


def test_compose_scale_chain():
    first = known_witness(adelta(Q, 2), C1, Q)
    second = known_witness(C1, A0, Q)
    combined = compose_curves(first, second)
    assert combined.src == adelta(Q, 2) and combined.dst == A0
    assert verify_witness(combined).is_zero()


def test_compose_through_iso_bridge():
    for field in (GF7, Q):
        first = known_witness(C5, C3, field)    # limit is only isomorphic to c3
        second = known_witness(C3, C1, field)
        combined = compose_curves(first, second)
        assert combined.src == C5 and combined.dst == C1
        # the bridge turns 123+213 into 221+331, which costs a square root
        # of -1, so the composed curve lives over a quadratic extension: of
        # GF(7), or of Q, whose elements are tuples (zero is a truthy one)
        base = combined.base_field
        assert base.char == field.char and base != field
        assert verify_witness(combined) == structure_of(C1, base)


def test_compose_refuses_a_second_curve_over_a_larger_field():
    # the composite lives over the first curve's field, which cannot hold
    # GF(16)'s elements; the refusal names that field
    first = known_witness(C5, C1, gf4())
    second = known_witness(C1, A0, gf16())
    with pytest.raises(FieldError) as exc:
        compose_curves(first, second)
    assert str(exc.value) == "cannot embed element of GF(2)(w)(s) into GF(2)(w)"


def test_compose_char2_chain():
    first = known_witness(C5, C3, GF2)
    second = known_witness(C3, L1, GF2)
    combined = compose_curves(first, second)
    assert combined.src == C5 and combined.dst == L1
    assert verify_witness(combined) == structure_of(L1, GF2)


# -- randomized search ------------------------------------------------------------


def test_search_finds_known_degeneration():
    res = search_witness(a3kappa(GF7, 2), L1, GF7, budget=50000)
    assert res.found
    assert res.witness.note.startswith("search-seed")
    assert verify_witness(res.witness) == structure_of(L1, GF7)


def test_search_is_deterministic():
    r1 = search_witness(a3kappa(GF7, 2), L1, GF7, budget=50000, seed=1729)
    r2 = search_witness(a3kappa(GF7, 2), L1, GF7, budget=50000, seed=1729)
    assert r1.tried == r2.tried
    assert r1.witness.matrix == r2.witness.matrix


def test_search_respects_budget_on_impossible_pair():
    res = search_witness(L1, C1, GF5, budget=3000)
    assert not res.found
    assert res.tried == 3000
    assert res.witness is None


def test_search_over_a_large_prime_field():
    # the kernel works on the field's own rep hooks: nothing is tabulated
    # per element pair, so the cost does not grow with q
    res = search_witness(L1, C1, PrimeField(65521), budget=50)
    assert not res.found
    assert res.tried == 50


@pytest.mark.parametrize("kwargs", [
    {"degree_bound": -1}, {"degree_bound": True}, {"degree_bound": 2.0},
    {"degree_bound": "2"}, {"budget": -1}, {"budget": False}])
def test_search_refuses_bad_arguments(kwargs):
    with pytest.raises(DegenerationError):
        search_witness(L1, C1, GF5, **kwargs)


def _reference_candidates(rng, degree_bound, q, count):
    """The draw as randrange() and choice() spell it."""
    out = []
    for _ in range(count):
        cells = []
        for _ in range(9):
            if rng.random() < 0.5:
                cells.append(())
            else:
                cells.append(((rng.randrange(degree_bound + 1),
                               rng.choice(range(1, q))),))
        out.append(cells)
    return out


def test_candidate_draw_matches_randrange_and_choice():
    for q in (2, 3, 4, 5, 7, 16, 65521):
        for degree_bound in range(4):
            for seed in (0, 1729, 424242):
                drawn = degeneration._candidates(random.Random(seed), degree_bound, q)
                got = [next(drawn) for _ in range(500)]
                assert got == _reference_candidates(random.Random(seed),
                                                    degree_bound, q, 500)


def test_seeded_search_hits_at_other_degrees_and_fields():
    res = search_witness(C3, C1, gf16(), degree_bound=1, budget=20000, seed=5)
    assert res.tried == 491
    assert [{e: c.rep for (e,), c in rf.num.terms.items()}
            for rf in res.witness.matrix.entries] == [
        {0: 4}, {0: 5}, {0: 10}, {}, {}, {0: 12}, {}, {1: 3}, {1: 5}]
    res = search_witness(C5, C1, GF5, degree_bound=3, budget=20000, seed=11)
    assert res.tried == 1848
    assert str(res.witness.matrix) == \
        "[[0, 0, t^2], [0, t, 3], [t^2, 2*t^2, 4*t^3]]"


def test_block_order_changes_no_limit():
    # search asks _moved_limit for the target's nonzero blocks first;
    # each position must get the value that index order gives it
    def positions(blocks):
        return [(a, b, c) for a, b in blocks for c in range(3)]

    seen = set()
    for field in (GF7, gf16()):
        ops = degeneration._hooks(field)
        unit = [(0, field.one().rep)]
        for src in (C3, C5, L1, adelta(field, 3)):
            support = [(i - 1, j - 1, k - 1, c.rep)
                       for i, j, k, c in structure_of(src, field).terms()]
            for dst in (C1, L1):
                live = {(i - 1, j - 1) for i, j, _, _ in structure_of(dst, field).terms()}
                first = sorted(degeneration._BLOCKS, key=lambda ab: ab not in live)
                assert first != list(degeneration._BLOCKS)
                drawn = degeneration._candidates(random.Random(f"{src}-{dst}"), 2,
                                                 field.order())
                for _ in range(300):
                    cells = next(drawn)
                    moved = [degeneration._moved_limit(support, cells, unit, ops, blocks)
                             for blocks in (degeneration._BLOCKS, first)]
                    if moved[0] is None:
                        assert moved[1] is None
                        seen.add("singular")
                        continue
                    by_index = dict(zip(positions(degeneration._BLOCKS), moved[0]))
                    assert dict(zip(positions(first), moved[1])) == by_index
                    seen.update("pole" if x is degeneration._POLE else
                                "zero" if x is None else "limit"
                                for x in by_index.values())
    assert seen == {"singular", "pole", "zero", "limit"}


def test_lift_search_hit_to_rationals():
    res = search_witness(a3kappa(GF7, 2), L1, GF7, budget=50000)
    lifted = lift_witness_to_rationals(res.witness)
    assert lifted.base_field == Q
    assert verify_witness(lifted) == structure_of(L1, Q)
    assert lifted.src.param == Q.element(2)


def test_act_lifts_a_generic_point_structure_into_the_curve_domain():
    # a(d) over Q(d), moved by the pinch-family curve over Q(d)(t), gives
    # what the structure built over Q(d)(t) itself gives
    Qd = RationalFunctionField(Q, "d")
    d = Qd.gen()
    w = degeneration._library_curve(adelta(Qd, d), C1, Qd)
    assert w.note == "pinch-family"
    L = w.matrix.parent
    lifted = act(structure_of(adelta(Qd, d), Qd), w.matrix)
    assert lifted == act(structure_of(adelta(L, L.const(d)), L), w.matrix)
    assert lifted.parent == L


def test_compose_a_generic_point_curve_with_a_rational_one():
    # a(d) -> c1 over Q(d), then c1 -> a0 over Q: the composite certifies
    # a(d) -> a0 over Q(d)
    Qd = RationalFunctionField(Q, "d")
    first = degeneration._library_curve(adelta(Qd, Qd.gen()), C1, Qd)
    combined = compose_curves(first, known_witness(C1, A0, Q))
    assert combined.src == adelta(Qd, Qd.gen()) and combined.dst == A0
    assert combined.base_field == Qd
    assert verify_witness(combined) == structure_of(A0, Qd)
