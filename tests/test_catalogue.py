"""The algebra catalogue: ids, isomorphism witnesses, canonical reduction.

The parametric isomorphisms are checked symbolically, with the parameter a
variable of a rational function field, so one assertion covers every value
at once; individual witnesses are then spot-checked over concrete fields.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from nilalg3.catalogue import (AUXILIARY_TAGS, CANONICAL_TAGS, AlgebraId,
                               CatalogueError, IsoWitness, _STRUCTURES, a3kappa,
                               adelta, c1, c3, canonicalize, hbeta, identify,
                               identify_with_witness, iso_witness, quarter,
                               structure_of)
from nilalg3.algprops import (annihilator_dimension, in_m_star_star,
                              is_commutative, square_basis)
from nilalg3.fields import (FieldError, NeedsFieldExtension, PrimeField,
                            RATIONALS, SimpleExtension, extend_with_root, gf4,
                            gf16, quadratic_roots, square_roots)
from nilalg3.polyring import PolyRing, RationalFunctionField
from nilalg3.structspace import Matrix3, act, basis_vector


def _sym_family(K, tag, param):
    """Structure vector of a parametric family over a non-field parent."""
    if tag == "a":
        return (basis_vector(K, 2, 2, 1) + basis_vector(K, 2, 3, 1)
                + basis_vector(K, 3, 3, 1).scale(param))
    if tag == "h":
        return basis_vector(K, 2, 3, 1) + basis_vector(K, 3, 2, 1).scale(param)
    if tag == "a3":
        return (basis_vector(K, 2, 2, 1) + basis_vector(K, 3, 2, 1).scale(param)
                + basis_vector(K, 3, 3, 1))
    raise AssertionError(tag)


def test_algebra_id_validation():
    with pytest.raises(CatalogueError):
        AlgebraId("z9")
    with pytest.raises(CatalogueError):
        AlgebraId("a")            # missing parameter
    with pytest.raises(CatalogueError):
        AlgebraId("c3", RATIONALS.one())
    with pytest.raises(CatalogueError):
        AlgebraId("h", 2)         # a plain int is no scalar of any domain
    assert str(AlgebraId("a", RATIONALS.element(2))) == "a(2)"
    xi = PolyRing(PrimeField(7), ("xi",)).var("xi")
    assert str(AlgebraId("h", xi)) == "h(xi)"
    assert AlgebraId("rho").is_canonical() is False
    assert AlgebraId("c5").is_canonical() is True


def _generic_iso(src, dst):
    """iso_witness between two family members over Q(b) and GF(16)(b), each
    named by its tag and its parameter as a function of b; the witness is
    checked against the hand-written structures above."""
    for base in (RATIONALS, gf16()):
        K = RationalFunctionField(base, "b")
        b = K.gen()
        (s, p), (d, q) = src, dst
        w = iso_witness(AlgebraId(s, p(b)), AlgebraId(d, q(b)), K)
        assert isinstance(w, IsoWitness) and w.field == K
        assert act(_sym_family(K, s, p(b)), w.matrix) == _sym_family(K, d, q(b))


def test_a_ring_or_f_of_d_keeps_no_structure():
    # a polynomial or an element of F(d) is its own rep and holds its
    # domain, so a structure kept in the domain would tie the two in a cycle
    # that only the cyclic collector frees; with the collector off, the
    # domain goes as soon as the last reference does
    def ring():
        R = PolyRing(PrimeField(5), ("x", "y"))
        return R, R.var("x")

    def function_field():
        K = RationalFunctionField(RATIONALS, "d")
        return K, K.gen()

    gc.disable()
    try:
        for build in (ring, function_field):
            domain, gen = build()
            vec = structure_of(hbeta(domain, gen), domain)
            assert vec == structure_of(hbeta(domain, gen), domain)
            ref = weakref.ref(domain)
            del domain, gen, vec
            assert ref() is None
    finally:
        gc.enable()


def test_symbolic_swap_carries_h_to_reciprocal():
    _generic_iso(("h", lambda b: b), ("h", lambda b: 1 / b))


def test_symbolic_kappa_matrix_carries_family_onto_a3():
    _generic_iso(("a", lambda b: 1 / (b * b)), ("a3", lambda b: b))


def test_symbolic_alpha_matrix_carries_a3_onto_h():
    _generic_iso(("a3", lambda b: -(b + 1 / b)), ("h", lambda b: -b * b))


def test_iso_witness_h_reciprocal():
    F = PrimeField(7)
    w = iso_witness(hbeta(F, 3), hbeta(F, 5), F)
    assert isinstance(w, IsoWitness)
    assert w.field == F
    assert iso_witness(hbeta(F, 3), hbeta(F, 4), F) is None


def test_iso_witness_gf5_omega():
    # -1 is a square in GF(5) (2^2 = 4), so the commutative split happens
    # over the base field
    F = PrimeField(5)
    w = iso_witness(AlgebraId("c3"), AlgebraId("chat3"), F)
    assert w is not None and w.field == F


def test_iso_witness_rationals_need_extension():
    with pytest.raises(NeedsFieldExtension):
        iso_witness(AlgebraId("c3"), AlgebraId("chat3"), RATIONALS)
    w = iso_witness(AlgebraId("c3"), AlgebraId("chat3"), RATIONALS,
                    allow_extension=True)
    assert isinstance(w.field, SimpleExtension)
    assert w.field.char == 0


def _sample_ids(F):
    """The eight fixed ids and three members of each parametric family."""
    if F.char == 2:
        w = F.generator()
        params = {"a": (0, 1, w), "h": (1, w, w + 1), "a3": (0, 1, w)}
    else:
        params = {"a": (0, quarter(F), 2), "h": (2, Fraction(1, 2), 3),
                  "a3": (0, -2, 3)}
    fixed = ("a0", "c1", "c3", "l1", "c5", "rho", "chat3", "a2")
    return [AlgebraId(t) for t in fixed] + [
        AlgebraId(t, F.element(p)) for t, ps in params.items() for p in ps]


@pytest.mark.parametrize("F", [PrimeField(7), gf4(), RATIONALS],
                         ids=["gf7", "gf4", "Q"])
def test_iso_witness_answers_every_pair(F):
    # with extensions allowed a witness comes back exactly for the pairs
    # identify puts in one class; refusing extensions changes an answer only
    # into NeedsFieldExtension, and only for an isomorphic pair
    ids = _sample_ids(F)
    cls = {s: identify(structure_of(s, F)) for s in ids}
    for s in ids:
        for d in ids:
            iso = cls[s] == cls[d]
            w = iso_witness(s, d, F, allow_extension=True)
            assert (w is not None) == iso, (s, d)
            assert w is None or (w.src, w.dst) == (s, d)
            try:
                w0 = iso_witness(s, d, F)
            except NeedsFieldExtension:
                assert iso and w.field != F, (s, d)
                continue
            assert (w0 is not None) == iso, (s, d)
            assert w0 is None or w0.field == F, (s, d)


def test_iso_witness_decides_a3_against_h_without_a_root():
    # x^2 + 3x + 1 has no root in GF(7); the pair is still decided there:
    # a3(3) is a(4) and h(2) is a(5), so no extension is asked for
    F = PrimeField(7)
    assert iso_witness(a3kappa(F, 3), hbeta(F, 2), F) is None
    assert iso_witness(hbeta(F, 2), a3kappa(F, 3), F) is None
    assert identify(structure_of(a3kappa(F, 3), F)) == adelta(F, 4)
    assert identify(structure_of(hbeta(F, 2), F)) == adelta(F, 5)


def test_adjoined_roots_take_a_free_generator_name():
    # over a field whose tower already has the stem's name, the root gets
    # the next free one, so no two generators print alike
    F = SimpleExtension(RATIONALS, [2, 0, 1], "r")      # r^2 = -2
    w = iso_witness(AlgebraId("c3"), AlgebraId("chat3"), F, allow_extension=True)
    assert repr(w.field) == "QQ(r)(r1)"
    F = SimpleExtension(RATIONALS, [-5, 0, 1], "r")
    vec = basis_vector(F, 2, 2, 1) + basis_vector(F, 3, 3, 1).scale(F.element(2))
    got, m = identify_with_witness(vec, allow_extension=True)
    assert repr(m.parent) == "QQ(r)(r1)"
    assert act(vec.lift(m.parent), m) == structure_of(got, m.parent)


def test_witness_construction_rejects_wrong_map():
    F = RATIONALS
    with pytest.raises(CatalogueError):
        IsoWitness(AlgebraId("c3"), AlgebraId("c1"), Matrix3.identity(F))


def _compose_chain(chain):
    g = None
    top = chain[-1].field
    for w in chain:
        m = w.matrix if w.field == top else w.matrix.lift(top)
        g = m if g is None else g @ m
    return g, top


# the fields every reduction is checked over, keyed by their order (0 for Q):
# both sides of the characteristic-2 split, prime and non-prime
_FIELDS = {0: RATIONALS, 2: PrimeField(2), 3: PrimeField(3), 5: PrimeField(5),
           7: PrimeField(7), 11: PrimeField(11), 13: PrimeField(13), 4: gf4(),
           16: gf16()}
_Q_PARAMS = (2, -2, 3, -3, 5, 7, -7, Fraction(1, 2), Fraction(-1, 3),
             Fraction(2, 3), Fraction(5, 4))


def _params(field):
    """Every element of a finite field; a spread of rationals over Q."""
    if field.is_finite():
        return list(field.elements())
    return [field.element(v) for v in (0, 1, -1) + _Q_PARAMS]


def _reduce(ident, field, allow_extension=True):
    """canonicalize, with its chain checked to carry ident onto the target."""
    target, chain = canonicalize(ident, field, allow_extension)
    assert target.is_canonical()
    if target.param is not None:
        assert target.param.field == field
    g, top = _compose_chain(chain)
    assert act(structure_of(ident, top), g) == structure_of(target, top)
    return target


@pytest.mark.parametrize("char", [0, 7, 2, 3, 5, 11, 13, 4, 16])
def test_canonicalize_h_family_generic(char):
    # char names the field by its order, 0 for Q
    field = _FIELDS[char]
    one = field.one()
    beta = field.element(3)
    if beta not in (field.zero(), one, -one):
        target, chain = canonicalize(hbeta(field, beta), field)
        assert target.tag == "a"
        # delta = -beta / (1 - beta)^2 away from characteristic 2
        expect = -beta / ((field.one() - beta) ** 2)
        assert target.param == expect
        g, top = _compose_chain(chain)
        src = structure_of(hbeta(field, beta), top)
        dst = structure_of(target, top)
        assert act(src, g) == dst
    for b in _params(field):
        if b in (field.zero(), one, -one):
            continue
        expect = b / (one + b) ** 2 if field.char == 2 else -b / (one - b) ** 2
        assert _reduce(hbeta(field, b), field) == adelta(field, expect), b


def test_canonicalize_h_family_char2():
    F = gf4()
    w = F.generator()
    target, chain = canonicalize(hbeta(F, w), F)
    assert target.tag == "a"
    assert target.param == w / ((F.one() + w) ** 2)
    g, top = _compose_chain(chain)
    assert act(structure_of(hbeta(F, w), top), g) == structure_of(target, top)


def _table_targets(field):
    """The Table representative of each special auxiliary id."""
    if field.char == 2:
        special = {hbeta(field, 1): AlgebraId("l1"),
                   AlgebraId("rho"): AlgebraId("c3"),
                   AlgebraId("chat3"): AlgebraId("l1")}
    else:
        special = {hbeta(field, 1): AlgebraId("c3"),
                   hbeta(field, -1): AlgebraId("l1"),
                   AlgebraId("rho"): adelta(field, quarter(field)),
                   AlgebraId("chat3"): AlgebraId("c3")}
    special.update({hbeta(field, 0): adelta(field, 0),
                    AlgebraId("a2"): adelta(field, 0),
                    a3kappa(field, 0): AlgebraId("c3")})
    return special


def test_canonicalize_special_h_values():
    F = RATIONALS
    assert canonicalize(hbeta(F, 1), F)[0] == AlgebraId("c3")
    assert canonicalize(hbeta(F, -1), F)[0] == AlgebraId("l1")
    t, chain = canonicalize(hbeta(F, 0), F)
    assert t == adelta(F, 0)
    g, top = _compose_chain(chain)
    assert act(structure_of(hbeta(F, 0), top), g) == structure_of(t, top)

    G = gf4()
    assert canonicalize(hbeta(G, 1), G)[0] == AlgebraId("l1")

    for field in _FIELDS.values():
        for ident, target in _table_targets(field).items():
            if ident.tag == "h":
                assert _reduce(ident, field) == target, (ident, field)


def test_canonicalize_auxiliary_tags():
    F = RATIONALS
    assert canonicalize(AlgebraId("rho"), F)[0] == adelta(F, quarter(F))
    assert canonicalize(AlgebraId("chat3"), F)[0] == AlgebraId("c3")
    assert canonicalize(AlgebraId("a2"), F)[0] == adelta(F, 0)
    assert canonicalize(a3kappa(F, 0), F)[0] == AlgebraId("c3")
    t, _ = canonicalize(a3kappa(F, 2), F)
    assert t == adelta(F, quarter(F))

    G = PrimeField(2)
    assert canonicalize(AlgebraId("rho"), G)[0] == AlgebraId("c3")
    assert canonicalize(AlgebraId("chat3"), G)[0] == AlgebraId("l1")

    for field in _FIELDS.values():
        for ident, target in _table_targets(field).items():
            if ident.tag != "h":
                assert _reduce(ident, field) == target, (ident, field)


def test_canonicalize_a3_generic():
    F = PrimeField(7)
    for k in (1, 2, 3, 4, 5, 6):
        kappa = F.element(k)
        target, chain = canonicalize(a3kappa(F, kappa), F)
        assert target.tag == "a"
        assert target.param == (kappa * kappa).inverse()
        g, top = _compose_chain(chain)
        src = structure_of(a3kappa(F, kappa), top)
        assert act(src, g) == structure_of(target, top)
    for field in _FIELDS.values():
        for k in _params(field):
            if not k.is_zero():
                assert _reduce(a3kappa(field, k), field) \
                    == adelta(field, (k * k).inverse()), (k, field)


def test_canonicalize_refuses_extension_when_disallowed():
    with pytest.raises(NeedsFieldExtension):
        canonicalize(AlgebraId("chat3"), RATIONALS, allow_extension=False)


def test_canonicalize_needs_no_extension_for_the_h_family():
    # the reduction of h(b) goes straight onto a(delta) over the base field;
    # no root of x^2 + b is adjoined on the way, so extensions may be refused
    F = RATIONALS
    target, chain = canonicalize(hbeta(F, 2), F, allow_extension=False)
    assert target == adelta(F, -2)
    assert [w.field for w in chain] == [F]
    assert _reduce(hbeta(F, 2), F, allow_extension=False) == target


def test_quarter():
    assert quarter(RATIONALS).rep.numerator == 1
    assert quarter(RATIONALS).rep.denominator == 4
    assert quarter(PrimeField(7)) == PrimeField(7).element(2)
    assert quarter(PrimeField(5)) == PrimeField(5).element(4)


def test_identify_canonical_forms_round_trip():
    for field in (RATIONALS, PrimeField(7), gf4()):
        for tag in ("a0", "c1", "c3", "l1", "c5"):
            ident = AlgebraId(tag)
            assert identify(structure_of(ident, field)) == ident
        d = field.element(3)
        assert identify(structure_of(adelta(field, d), field)) == adelta(field, d)


def test_identify_random_basis_changes():
    rng = random.Random(100)
    for field in (PrimeField(7), gf4()):
        ids = [AlgebraId("a0"), AlgebraId("c1"), AlgebraId("c3"),
               AlgebraId("l1"), AlgebraId("c5"), adelta(field, 3)]
        for ident in ids:
            vec = structure_of(ident, field)
            for _ in range(8):
                while True:
                    rows = [[field.element(rng.randrange(field.order()))
                             for _ in range(3)] for _ in range(3)]
                    g = Matrix3.from_rows(field, rows)
                    if not g.det().is_zero():
                        break
                assert identify(act(vec, g)) == ident


def test_identify_sees_through_auxiliary_presentations():
    F = PrimeField(7)
    assert identify(structure_of(AlgebraId("rho"), F)) == adelta(F, quarter(F))
    assert identify(structure_of(AlgebraId("chat3"), F)) == AlgebraId("c3")
    assert identify(structure_of(AlgebraId("a2"), F)) == adelta(F, 0)
    G = PrimeField(2)
    assert identify(structure_of(AlgebraId("chat3"), G)) == AlgebraId("l1")
    assert identify(structure_of(AlgebraId("rho"), G)) == AlgebraId("c3")


def test_identify_rejects_non_associative():
    F = RATIONALS
    bad = basis_vector(F, 1, 1, 2) + basis_vector(F, 2, 2, 3)
    with pytest.raises(ValueError):
        identify(bad)


def test_delta_recovery_is_exact():
    rng = random.Random(55)
    F = RATIONALS
    for num in (0, 1, -1, 2, 5, -7):
        d = F.element(num)
        vec = structure_of(adelta(F, d), F)
        rows = [[3, 1, 0], [1, 0, 2], [0, 1, 1]]
        g = Matrix3.from_rows(F, rows)
        assert identify(act(vec, g)).param == d
    G = PrimeField(13)
    for num in range(10):
        d = G.element(num)
        vec = structure_of(adelta(G, d), G)
        while True:
            rows = [[G.element(rng.randrange(13)) for _ in range(3)]
                    for _ in range(3)]
            g = Matrix3.from_rows(G, rows)
            if not g.det().is_zero():
                break
        assert identify(act(vec, g)).param == d


def test_identify_with_witness_verifies():
    rng = random.Random(60)
    for field in (PrimeField(7), gf4()):
        ids = [AlgebraId("c1"), AlgebraId("c3"), AlgebraId("l1"),
               AlgebraId("c5"), adelta(field, 2)]
        for ident in ids:
            vec = structure_of(ident, field)
            while True:
                rows = [[field.element(rng.randrange(field.order()))
                         for _ in range(3)] for _ in range(3)]
                g = Matrix3.from_rows(field, rows)
                if not g.det().is_zero():
                    break
            moved = act(vec, g)
            got, m = identify_with_witness(moved)
            assert got == ident
            assert act(moved.lift(m.parent), m) == structure_of(ident, m.parent)


def test_identify_with_witness_extension_case():
    # a commutative ann-1 vector whose diagonal ratio is not a rational square
    F = RATIONALS
    vec = basis_vector(F, 2, 2, 1) + basis_vector(F, 3, 3, 1).scale(F.element(3))
    assert identify(vec) == AlgebraId("c3")
    with pytest.raises(NeedsFieldExtension):
        identify_with_witness(vec)
    got, m = identify_with_witness(vec, allow_extension=True)
    assert got == AlgebraId("c3")
    assert isinstance(m.parent, SimpleExtension)
    assert act(vec.lift(m.parent), m) == structure_of(got, m.parent)


def test_structure_of_parametric_families_match_basis_vector_sums():
    # structure_of builds each vector from its terms at once; the sums of
    # scaled basis vectors are the oracle, the zero parameter included
    F4, F16 = gf4(), gf16()
    for field, extra in ((RATIONALS, -5), (PrimeField(2), 1), (PrimeField(7), 5),
                         (F4, F4.generator()), (F16, F16.generator())):
        for tag in ("a", "h", "a3"):
            for p in (field.zero(), field.one(), field.from_int(3),
                      field.element(extra)):
                assert structure_of(AlgebraId(tag, p), field) \
                    == _sym_family(field, tag, p), (tag, p, field)
    F = PrimeField(7)
    assert structure_of(AlgebraId("rho"), F) == _sym_family(F, "a3", F.from_int(2))
    # a parameter from any scalar domain: the generic point of F(d), and a
    # variable of a polynomial ring
    K = RationalFunctionField(F, "d")
    R = PolyRing(RATIONALS, ("xi", "g11"))
    for domain, p in ((K, K.gen()), (K, 1 / (K.gen() + 1)), (R, R.var("xi"))):
        for tag in ("a", "h", "a3"):
            assert structure_of(AlgebraId(tag, p), domain) \
                == _sym_family(domain, tag, p), (tag, p, domain)


def _invariant_decision(vec):
    """The class-2 decision tree on invariants, the oracle for identify's
    reading of B: commutativity, whether every square lies on its own line
    and the annihilator dimension, with delta from the pairing of a unit
    frame completing the square's f1, each entry a vec.product read at
    f1's pivot."""
    if in_m_star_star(vec):
        return AlgebraId("l1")
    if is_commutative(vec):
        return AlgebraId("c1" if annihilator_dimension(vec) == 2 else "c3")
    F = vec.parent
    (f1,) = square_basis(vec)
    pivot = next(n for n in range(3) if not f1[n].is_zero())
    e = Matrix3.identity(F).rows()
    w2, w3 = next((e[i], e[j]) for i in range(3) for j in range(i + 1, 3)
                  if not Matrix3.from_columns(F, [f1, e[i], e[j]]).det().is_zero())
    (p, q), (r, s) = [[vec.product(x, y)[pivot] / f1[pivot] for y in (w2, w3)]
                      for x in (w2, w3)]
    return AlgebraId("a", (p * s - q * r) / ((q - r) * (q - r)))


def _class_two_ids(F, rng, pool):
    """c1, c3, l1, a(0), a(1/4) outside char 2, a random a(delta), h(b) and
    a3(k) with random parameters, rho, chat3 and a2."""
    ids = [AlgebraId(t) for t in ("c1", "c3", "l1", "rho", "chat3", "a2")]
    ids.append(AlgebraId("a", F.zero()))
    if F.char != 2:
        ids.append(AlgebraId("a", quarter(F)))
    return ids + [AlgebraId(t, rng.choice(pool)) for t in ("a", "h", "a3")]


def _basis_change(F, rng, pool, sparse):
    """A seeded invertible matrix: every entry from pool, or, when sparse,
    each entry nonzero with probability 2/5."""
    while True:
        g = Matrix3.from_rows(F, [[rng.choice(pool) if not sparse
                                   or rng.random() < 0.4 else F.zero()
                                   for _ in range(3)] for _ in range(3)])
        if not g.det().is_zero():
            return g


def _sample_pool(F):
    """Matrix entries and family parameters: every element of a finite
    field; small rationals otherwise, and over Q(i) some with i."""
    if F.is_finite():
        return list(F.elements())
    pool = [F.from_int(n) for n in (-2, -1, 0, 1, 2, 3)] + [
        F.element(Fraction(1, 2)), F.element(Fraction(-2, 3))]
    if F.char == 0 and F != RATIONALS:
        i = F.generator()
        pool += [i, 1 + i, 2 * i - 1]
    return pool


@pytest.mark.parametrize("F", [RATIONALS, PrimeField(3), PrimeField(7), gf4(),
                               gf16(),
                               extend_with_root(RATIONALS, [1, 0, 1], "i")[0]],
                         ids=["Q", "gf3", "gf7", "gf4", "gf16", "Qi"])
def test_identify_reads_b_as_the_invariants_decide(F):
    # seeded dense and sparse basis changes of every class-2 id: identify,
    # which reads the 2x2 pairing matrix B off the stored terms, agrees
    # with the decision tree on invariants, and the witness reduction
    # built on the same B verifies
    rng = random.Random(24)
    pool = _sample_pool(F)
    for ident in _class_two_ids(F, rng, pool):
        vec = structure_of(ident, F)
        for sparse in (False, True, False, True):
            moved = act(vec, _basis_change(F, rng, pool, sparse))
            want = _invariant_decision(moved)
            assert identify(moved) == want, (ident, moved)
            got, m = identify_with_witness(moved, allow_extension=True)
            assert got == want
            assert act(moved.lift(m.parent), m) == structure_of(got, m.parent)


def test_identify_reads_b_over_the_generic_point():
    # over Q(d) the family members keep d in their B; chat3 needs the square
    # root of a constant that is no square in Q, which Q(d) refuses
    Qd = RationalFunctionField(RATIONALS, "d")
    d = Qd.gen()
    rng = random.Random(24)
    pool = [Qd.element(n) for n in (-1, 0, 1, 2)]
    for ident in (AlgebraId("c1"), AlgebraId("l1"), AlgebraId("a", d),
                  AlgebraId("h", d), AlgebraId("a3", d), AlgebraId("c3"),
                  AlgebraId("chat3")):
        moved = act(structure_of(ident, Qd), _basis_change(Qd, rng, pool, True))
        want = _invariant_decision(moved)
        assert identify(moved) == want, (ident, moved)
        if ident == AlgebraId("chat3"):
            with pytest.raises(FieldError, match="^square roots are not "
                               "supported over QQ\\(d\\)$"):
                identify_with_witness(moved, allow_extension=True)
            continue
        got, m = identify_with_witness(moved)
        assert got == want
        assert act(moved, m) == structure_of(got, Qd)


def test_square_roots_are_refused_over_the_generic_point():
    # Q(d) is no field of the tower, so every route to a square root over
    # it ends in the one FieldError, not in an AttributeError
    Qd = RationalFunctionField(RATIONALS, "d")
    d = Qd.gen()
    for call in (lambda: square_roots(d * d),
                 lambda: quadratic_roots(Qd.one(), d, d),
                 lambda: canonicalize(AlgebraId("chat3"), Qd),
                 lambda: iso_witness(c3(), AlgebraId("chat3"), Qd),
                 lambda: square_roots(Qd.element(2))):
        with pytest.raises(FieldError, match="^square roots are not "
                           "supported over QQ\\(d\\)$"):
            call()


def test_c3_over_the_generic_point_takes_the_roots_of_its_constant_ratio():
    # c3's ratio is 1, a constant of F(d), so the reduction takes F's roots
    # of it and needs no extension
    for F in (RATIONALS, gf16()):
        Fd = RationalFunctionField(F, "d")
        assert square_roots(Fd.element(4)) == [Fd.element(y)
                                               for y in square_roots(F.element(4))]
        vec = structure_of(c3(), Fd)
        got, m = identify_with_witness(vec)
        assert got == c3() and m.parent == Fd
        assert act(vec, m) == structure_of(c3(), Fd)


def test_every_tag_that_an_id_takes_has_a_structure():
    # AlgebraId refuses every other tag, so structure_of needs no refusal
    assert set(CANONICAL_TAGS + AUXILIARY_TAGS) == set(_STRUCTURES)


def test_canonicalize_returns_a_canonical_id_with_no_chain():
    assert canonicalize(c1(), RATIONALS) == (c1(), [])
