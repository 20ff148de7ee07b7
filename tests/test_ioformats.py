"""Text and JSON grammars for scalars, polynomials, ids, vectors, witnesses."""

import functools
import gc
import itertools
import json
import random
import re
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import nilalg3.ioformats
from nilalg3.catalogue import (AUXILIARY_TAGS, CANONICAL_TAGS, PARAMETRIC_TAGS,
                               AlgebraId, adelta, quarter, structure_of)
from nilalg3.cli import main
from nilalg3.degeneration import (CurveWitness, check_obstruction, compose_curves,
                                  known_witness, lift_witness_to_rationals,
                                  search_witness, verify_witness)
from nilalg3.fields import (MAX_FINITE_ORDER, FieldError, PrimeField, RATIONALS,
                            SimpleExtension, _Extension, gf4, gf16)
from nilalg3.ioformats import (FormatError, describe_field, parse_algebra_id,
                               parse_field, parse_matrix, parse_poly_in_t,
                               parse_scalar, parse_vector, parse_witness,
                               render_vector, render_witness)
from nilalg3.ioformats import _TERM_RE, _exponent, _split_signed_terms
from nilalg3.polyring import PolyRing, RationalFunctionField
from nilalg3.structspace import Matrix3, StructureVector, basis_vector


def test_parse_field():
    assert parse_field({"char": 0}) == RATIONALS
    assert parse_field({"char": 7}) == PrimeField(7)
    F = parse_field({"char": 2, "ext": {"name": "w", "min_poly": [1, 1, 1]}})
    assert F == gf4()
    assert describe_field(F) == {"char": 2,
                                 "ext": {"name": "w", "min_poly": [1, 1, 1]}}


def test_parse_field_errors():
    with pytest.raises(FormatError):
        parse_field({"char": 4})
    with pytest.raises(FormatError):
        parse_field({"char": 2, "ext": {"name": "w"}})
    with pytest.raises(FormatError):
        parse_field({})
    with pytest.raises(FormatError):
        parse_field({"char": 2, "ext": {"name": "w", "min_poly": [1, 1]}})


def test_parse_field_gives_one_field_per_descriptor():
    gf4_desc = {"char": 2, "ext": {"name": "w", "min_poly": [1, 1, 1]}}
    first = parse_field(gf4_desc)
    again = parse_field(json.dumps(gf4_desc))
    assert first == again and first is again
    assert parse_field({"char": 7}) == parse_field({"char": 7})
    others = [{"char": 2, "ext": {"name": "v", "min_poly": [1, 1, 1]}},
              {"char": 2, "ext": {"name": "w", "min_poly": [1, 1, 0, 1]}},
              {"char": 3, "ext": {"name": "w", "min_poly": [1, 0, 1]}},
              {"char": 2}]
    fields = [first] + [parse_field(d) for d in others]
    assert all(a != b for n, a in enumerate(fields) for b in fields[n + 1:])


def test_what_a_field_keeps_dies_with_it():
    # structures, F(t), library curves and node profiles are kept in the
    # field object itself, so once the descriptor cache lets go of a GF(2^8)
    # and no one else holds it, the collector frees it with all it kept
    desc = {"char": 2, "ext": {"name": "u", "min_poly": [1, 0, 1, 1, 1, 0, 0, 0, 1]}}
    F = parse_field(desc)
    c1, c3, l1 = (AlgebraId(tag) for tag in ("c1", "c3", "l1"))
    assert structure_of(c3, F).parent is F
    witness = parse_witness({"src": "c3", "dst": "c1", "field": desc, "matrix":
                             [["1", "0", "0"], ["0", "t", "0"], ["0", "0", "1"]]})
    assert witness.base_field is F
    assert verify_witness(witness) == structure_of(c1, F)
    assert known_witness(c3, c1, F).matrix == witness.matrix
    assert check_obstruction(l1, c1, F) is not None
    ref = weakref.ref(F)
    del F, witness
    nilalg3.ioformats._field.cache_clear()
    gc.collect()
    assert ref() is None


def test_parse_field_decides_long_quadratics_and_cubics_over_q():
    big = 10 ** 30 + 1
    started = time.monotonic()
    for min_poly in ([big, 0, 1], [2, 0, 0, big]):
        F = parse_field({"char": 0, "ext": {"name": "r", "min_poly": min_poly}})
        assert F.degree == len(min_poly) - 1
    assert time.monotonic() - started < 1
    root = 10 ** 30 + 57
    with pytest.raises(FormatError, match=f"has root {root} in QQ"):
        parse_field({"char": 0, "ext": {"name": "r",
                                        "min_poly": [-7 * root ** 3, 0, 0, 7]}})


@pytest.mark.parametrize("desc", [
    {"char": 2, "ext": {"name": "w", "min_poly": [1, 0, 1]}},          # (x+1)^2
    {"char": 3, "ext": {"name": "w", "min_poly": [1, 0, 0, 0, 1]}},    # reducible
    {"char": 13, "ext": {"name": "w", "min_poly": [2] + [0] * 11 + [1]}},
    {"char": 0, "ext": {"name": "w", "min_poly": [4, 0, 0, 0, 1]}},
], ids=["reducible-gf2", "reducible-gf3", "oversized-gf13", "quartic-over-q"])
def test_bad_descriptors_fail_on_every_call(desc):
    for _ in range(3):
        with pytest.raises(FormatError):
            parse_field(desc)


def test_parse_scalar_rationals():
    assert parse_scalar("-3", RATIONALS) == RATIONALS.element(-3)
    assert parse_scalar("3/2", RATIONALS).rep == Fraction(3, 2)
    assert parse_scalar("-1/4", RATIONALS).rep == Fraction(-1, 4)
    assert parse_scalar("1+2", RATIONALS) == RATIONALS.element(3)


def test_parse_scalar_prime_field():
    F = PrimeField(7)
    assert parse_scalar("10", F) == F.element(3)
    assert parse_scalar("1/2", F) == F.element(4)


def test_parse_scalar_extension():
    F = gf4()
    w = F.generator()
    assert parse_scalar("w", F) == w
    assert parse_scalar("1+w", F) == F.one() + w
    assert parse_scalar("w^2", F) == w * w
    assert parse_scalar("1+w^2", F) == F.one() + w * w


def test_parse_scalar_errors():
    with pytest.raises(FormatError):
        parse_scalar("", RATIONALS)
    with pytest.raises(FormatError):
        parse_scalar("x", RATIONALS)
    with pytest.raises(FormatError):
        parse_scalar("1..2", RATIONALS)
    with pytest.raises(FormatError):
        parse_scalar("w", PrimeField(7))


def _parse_scalar_by_elements(text, field):
    """parse_scalar as it was before it summed on reps: each term an element,
    the generator power by element ``**``, the sum by element ``+``."""
    gens = {}
    level = field
    while isinstance(level, _Extension):
        gens[level.name] = field.embed(level.generator())
        level = level.base
    total = field.zero()
    for sign, term in _split_signed_terms(text):
        m = _TERM_RE.match(term)
        if not m or (m.group("num") is None and m.group("name") is None):
            raise FormatError(f"bad scalar term {term!r} in {text!r}")
        num = m.group("num")
        if num:
            try:
                value = field.element(Fraction(num))
            except ZeroDivisionError:
                raise FormatError(f"zero denominator in {num!r}") from None
            except (FieldError, ValueError) as exc:
                raise FormatError(f"bad fraction {num!r}: {exc}") from None
        else:
            value = field.one()
        name = m.group("name")
        if name is not None:
            if name not in gens:
                raise FormatError(
                    f"unknown generator {name!r} over {field!r}")
            e = _exponent(m.group("exp"))
            if e > MAX_FINITE_ORDER and field.char == 0:
                raise FormatError(f"generator exponent {e} in {text!r} is "
                                  f"above {MAX_FINITE_ORDER} in characteristic 0")
            value = value * gens[name] ** e
        total = total + (value if sign > 0 else -value)
    return total


def _scalar_texts(rng, names):
    """Seeded scalar texts: signed sums of numbers, fractions (a few with a
    zero denominator, or one the characteristic divides) and generator
    powers up to 2^16, with repeated generators and cancelling terms."""
    def term():
        num = ""
        if not names or rng.random() < 0.6:
            num = str(rng.randrange(30))
            if rng.random() < 0.4:
                num += f"/{rng.randrange(15)}"
        if names and (not num or rng.random() < 0.5):
            e = rng.choice(("", "", 0, 1, 2, 3, rng.randrange(4, 60),
                            rng.randrange(MAX_FINITE_ORDER), MAX_FINITE_ORDER))
            num += rng.choice(names) + (f"^{e}" if e != "" else "")
        return num

    fixed = ["0", "-0", "+1", "0/5", "3/2-3/2", "1/0"]
    for name in names:
        fixed += [f"{name}+{name}", f"{name}-{name}", f"-{name}^2+{name}^2+1",
                  f"2{name}+{name}^1-3{name}"]
    for text in fixed:
        yield text
    for _ in range(200):
        terms = [rng.choice("+-") + term() for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:          # a term and its negation cancel
            terms.append(("-" if terms[0][0] == "+" else "+") + terms[0][1:])
        text = "".join(terms)
        yield text[1:] if text[0] == "+" and rng.random() < 0.5 else text


def _scalar_oracle_fields():
    yield "Q", RATIONALS, ()
    yield "GF7", PrimeField(7), ()
    yield "GF4", gf4(), ("w",)
    yield "GF16", gf16(), ("w", "s")
    yield "Qi", SimpleExtension(RATIONALS, [1, 0, 1], "i"), ("i",)
    yield "Qg", SimpleExtension(RATIONALS, [-2, 0, 0, 1], "g"), ("g",)


@pytest.mark.parametrize("name, field, names", list(_scalar_oracle_fields()),
                         ids=[n for n, _, _ in _scalar_oracle_fields()])
def test_parse_scalar_on_reps_matches_the_element_oracle(name, field, names):
    def outcome(parse, text):
        try:
            return parse(text, field)
        except FormatError as exc:
            return str(exc)

    refused = cancelled = 0
    for text in _scalar_texts(random.Random(f"scalar-{name}"), names):
        got = outcome(parse_scalar, text)
        want = outcome(_parse_scalar_by_elements, text)
        assert got == want, text
        if isinstance(got, str):
            refused += 1
            continue
        assert got.parent is field and type(got.rep) is type(want.rep), text
        cancelled += got.is_zero()
    assert refused and cancelled


def test_parse_poly_tight_fraction_binding():
    K = RationalFunctionField(RATIONALS, "t")
    t = K.gen()
    # "3/2t" is (3/2)*t, not 3/(2t)
    assert parse_poly_in_t("3/2t", K) == K.const(Fraction(3, 2)) * t
    assert parse_poly_in_t("t^2-1", K) == t * t - 1
    assert parse_poly_in_t("2t^3+t-5", K) == 2 * t ** 3 + t - 5
    assert parse_poly_in_t("-t", K) == -t
    assert parse_poly_in_t("7", K) == K.from_int(7)
    assert parse_poly_in_t("2*t", K) == 2 * t


def test_parse_poly_parenthesized_coefficient():
    K = RationalFunctionField(gf4(), "t")
    t = K.gen()
    w = gf4().generator()
    assert parse_poly_in_t("(1+w)t^2", K) == K.const(gf4().one() + w) * t * t
    assert parse_poly_in_t("(w)t+1", K) == K.const(w) * t + 1


_GF16_DESC = {"char": 2, "ext": {"name": "s", "min_poly": [1, 1, 0, 0, 1]}}
# coefficient texts per field: plain, fractional and generator sums
_POLY_FIELDS = {
    "Q": ({"char": 0}, ("1", "2", "1/2", "-3/4", "5")),
    "GF7": ({"char": 7}, ("1", "3", "1/2", "6", "2/3")),
    "GF4": ({"char": 2, "ext": {"name": "w", "min_poly": [1, 1, 1]}},
            ("1", "w", "1+w", "w^2")),
    "GF16": (_GF16_DESC, ("1", "s", "1+s^3", "s^2+s", "s+s^2+s^3")),
}


def _poly_by_arithmetic(terms, rff):
    """The old definition of an entry: sum of const(c) * t**e over the terms."""
    t = rff.gen()
    total = rff.zero()
    for sign, coef, e in terms:
        value = rff.const(parse_scalar(coef, rff.field)) * t ** e
        total = total + (value if sign > 0 else -value)
    return total


def _poly_term_text(rng, sign, coef, e):
    """One signed term in any of the spellings the grammar allows: a plain
    or parenthesised coefficient (implicit when it is 1), t, t^1 or t^e,
    and t^0 or nothing for a constant."""
    text = "+" if sign > 0 else "-"
    if coef != "1" or not e or rng.random() < 0.5:
        plain = re.fullmatch(r"\d+(/\d+)?", coef) and rng.random() < 0.5
        text += coef if plain else f"({coef})"
        if e and rng.random() < 0.3:
            text += "*"
    if e == 0:
        return text + ("t^0" if rng.random() < 0.5 else "")
    return text + ("t" if e == 1 and rng.random() < 0.5 else f"t^{e}")


@pytest.mark.parametrize("name", sorted(_POLY_FIELDS))
def test_parse_poly_matches_the_arithmetic_definition(name):
    desc, coefs = _POLY_FIELDS[name]
    rff = RationalFunctionField(parse_field(desc), "t")
    rng = random.Random(808)
    for _ in range(60):
        terms = [(rng.choice((1, -1)), rng.choice(coefs), rng.randrange(5))
                 for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:          # a term and its negation cancel
            sign, coef, e = terms[0]
            terms.append((-sign, coef, e))
        text = "".join(_poly_term_text(rng, *term) for term in terms)
        got = parse_poly_in_t(text, rff)
        want = _poly_by_arithmetic(terms, rff)
        assert got == want, text
        assert got.den == rff.ring.one() and got.num.terms == want.num.terms


def test_parse_poly_repeated_and_cancelling_exponents():
    K = RationalFunctionField(RATIONALS, "t")
    t = K.gen()
    assert parse_poly_in_t("t+2t-3t", K).is_zero()
    assert parse_poly_in_t("t+2t-3t", K).num.terms == {}
    assert parse_poly_in_t("t^0+1", K) == K.from_int(2)
    assert parse_poly_in_t("t^2+t-t^2+3t^2", K) == 3 * t * t + t
    assert parse_poly_in_t("1/2t-1/2*t+5", K) == K.from_int(5)
    F = gf4()
    K4 = RationalFunctionField(F, "t")
    w = K4.const(F.generator())
    # in characteristic 2 a repeated term cancels
    assert parse_poly_in_t("(1+w)t^2+(1+w)t^2+(w)t", K4) == w * K4.gen()
    assert parse_poly_in_t("(w)t^0+(w^2)", K4) == K4.one()


def test_parse_poly_errors():
    K = RationalFunctionField(RATIONALS, "t")
    with pytest.raises(FormatError):
        parse_poly_in_t("t^", K)
    with pytest.raises(FormatError):
        parse_poly_in_t("u", K)
    with pytest.raises(FormatError):
        parse_poly_in_t("1/t", K)


def test_parse_algebra_id():
    assert parse_algebra_id("c3", RATIONALS) == AlgebraId("c3")
    assert parse_algebra_id("a(1/4)", RATIONALS) == adelta(RATIONALS,
                                                           Fraction(1, 4))
    assert parse_algebra_id("a3(2)", PrimeField(7)).tag == "a3"
    assert parse_algebra_id("rho", RATIONALS) == AlgebraId("rho")
    got = parse_algebra_id("h(1+w)", gf4())
    assert got.tag == "h" and got.param == gf4().one() + gf4().generator()


def test_parse_algebra_id_errors():
    for bad in ("z3", "a", "c3(1)", "a()"):
        with pytest.raises(FormatError):
            parse_algebra_id(bad, RATIONALS)


def test_render_algebra_id_round_trip():
    for text in ("a0", "c1", "c3", "l1", "c5", "rho", "chat3", "a2"):
        ident = parse_algebra_id(text, RATIONALS)
        assert str(ident) == text
        assert parse_algebra_id(str(ident), RATIONALS) == ident


@pytest.mark.parametrize("tag", CANONICAL_TAGS + AUXILIARY_TAGS)
def test_every_catalogue_tag_round_trips(tag):
    # the id grammar is built from the catalogue's tags, so none is missing
    for field, param in ((RATIONALS, Fraction(1, 4)), (gf4(), [1, 1])):
        ident = AlgebraId(tag, field.element(param) if tag in PARAMETRIC_TAGS
                          else None)
        assert parse_algebra_id(str(ident), field) == ident


def test_vector_round_trip():
    payload = {"field": {"char": 7},
               "entries": [{"i": 2, "j": 3, "k": 1, "c": "1"},
                           {"i": 3, "j": 2, "k": 1, "c": "6"}]}
    vec = parse_vector(json.dumps(payload))
    F = PrimeField(7)
    assert vec == basis_vector(F, 2, 3, 1) - basis_vector(F, 3, 2, 1)
    again = parse_vector(render_vector(vec))
    assert again == vec


def test_rendering_refuses_a_domain_without_a_descriptor():
    # Q(d) has a characteristic, but {"char": 0} would read back as Q and
    # fail on d; Q[x] and a nested extension have no descriptor either
    Qd = RationalFunctionField(RATIONALS, "d")
    member = adelta(Qd, Qd.gen())
    with pytest.raises(FormatError, match="no JSON form"):
        render_witness(known_witness(member, AlgebraId("c1"), Qd))
    with pytest.raises(FormatError, match="no JSON form"):
        render_vector(structure_of(member, Qd))
    with pytest.raises(FormatError, match="no JSON form"):
        render_vector(basis_vector(PolyRing(RATIONALS, ("x",)), 2, 3, 1))
    nested = SimpleExtension(SimpleExtension(RATIONALS, [1, 0, 1], "i"),
                             [-2, 0, 1], "r")
    with pytest.raises(FormatError, match="nested"):
        render_vector(basis_vector(nested, 2, 3, 1))


# coefficients per field: texts, a few of them ints, drawn with repeats
_VECTOR_FIELDS = {
    "Q": ({"char": 0}, ("1", "-2", "1/2", "-3/4", 5, -1)),
    "GF7": ({"char": 7}, ("1", "3", "1/2", "6", "2/3", 4)),
    "GF16": (_GF16_DESC, ("1", "s", "1+s^3", "s^2+s", "s+s^2+s^3", 1)),
    "Qi": ({"char": 0, "ext": {"name": "i", "min_poly": [1, 0, 1]}},
           ("i", "1+i", "-1/2i", "2-3i", "i^2", 3)),
}


@pytest.mark.parametrize("name", sorted(_VECTOR_FIELDS))
def test_parse_vector_matches_per_entry_parse_scalar(name, monkeypatch):
    desc, coefs = _VECTOR_FIELDS[name]
    field = parse_field(desc)
    parsed = []

    def counted(c, F):
        parsed.append(c)
        return parse_scalar(c, F)

    monkeypatch.setattr(nilalg3.ioformats, "parse_scalar", counted)
    rng = random.Random(f"vector-{name}")
    cells = list(itertools.product((1, 2, 3), repeat=3))
    repeats = 0
    for _ in range(60):
        entries = [(*rng.choice(cells), rng.choice(coefs))
                   for _ in range(rng.randint(1, 12))]
        texts = [c for *_, c in entries if isinstance(c, str)]
        repeats += len(texts) > len(set(texts))
        parsed.clear()
        vec = parse_vector({"field": desc, "entries": [
            {"i": i, "j": j, "k": k, "c": c} for i, j, k, c in entries]})
        assert vec == StructureVector.from_terms(
            field, [(i, j, k, parse_scalar(c, field)) for i, j, k, c in entries])
        # each distinct text once, each int every time
        assert sorted(p for p in parsed if isinstance(p, str)) == sorted(set(texts))
        assert len(parsed) == len(set(texts)) + len(entries) - len(texts)
    assert repeats > 30


@pytest.mark.parametrize("name", sorted(_POLY_FIELDS))
def test_parse_witness_matches_per_entry_parse_poly_in_t(name, monkeypatch):
    desc, coefs = _POLY_FIELDS[name]
    rff = RationalFunctionField(parse_field(desc), "t")
    parsed = []

    def counted(c, K):
        parsed.append(c)
        return parse_poly_in_t(c, K)

    monkeypatch.setattr(nilalg3.ioformats, "parse_poly_in_t", counted)
    rng = random.Random(f"witness-{name}")
    pool = ["".join(_poly_term_text(rng, rng.choice((1, -1)), rng.choice(coefs),
                                    rng.randrange(3)) for _ in range(rng.randint(1, 2)))
            for _ in range(4)] + ["0", "t", 0, 1, -1]
    repeats = 0
    for _ in range(40):
        cells = [rng.choice(pool) for _ in range(9)]
        texts = [c for c in cells if isinstance(c, str)]
        repeats += len(texts) > len(set(texts))
        parsed.clear()
        witness = parse_witness({"src": "c3", "dst": "c1", "field": desc,
                                 "matrix": [cells[0:3], cells[3:6], cells[6:9]]})
        assert witness.matrix.entries == tuple(parse_poly_in_t(c, rff) for c in cells)
        # each distinct text once, each int every time
        assert sorted(p for p in parsed if isinstance(p, str)) == sorted(set(texts))
        assert len(parsed) == len(set(texts)) + len(cells) - len(texts)
    assert repeats > 30


def test_vector_errors():
    with pytest.raises(FormatError):
        parse_vector({"entries": [{"i": 0, "j": 1, "k": 1, "c": "1"}]})
    with pytest.raises(FormatError):
        parse_vector({"entries": [{"i": 1, "j": 1, "c": "1"}]})
    with pytest.raises(FormatError):
        parse_vector("not json")


def test_vector_entries_must_be_a_list():
    for entries in (5, None, "231"):
        with pytest.raises(FormatError):
            parse_vector({"entries": entries})


def test_overlong_numbers_are_format_errors():
    digits = "1" * 5000     # more than int() converts from text
    rff = RationalFunctionField(RATIONALS, "t")
    with pytest.raises(FormatError):
        parse_scalar(digits, RATIONALS)
    with pytest.raises(FormatError):
        parse_scalar("w^" + digits, gf4())
    with pytest.raises(FormatError):
        parse_poly_in_t("t^" + digits, rff)


def test_generator_exponents_are_bounded_in_characteristic_zero():
    # 2^16 is the bound; a finite field takes any exponent, by table lookups
    K = SimpleExtension(RATIONALS, [-2, 0, 1], "s")
    assert parse_scalar("s^65536", K) == K.element(2 ** 32768)
    with pytest.raises(FormatError, match="exponent 65537 .* above 65536"):
        parse_scalar("1+s^65537", K)
    w = gf4().generator()
    assert parse_scalar("w^4000000001", gf4()) == w ** 2


def test_parse_matrix():
    F = PrimeField(5)
    m = parse_matrix('[[1,0,0],[0,"1/2",0],[0,0,"4"]]', F)
    assert m.entry(2, 2) == F.element(3)
    with pytest.raises(FormatError):
        parse_matrix("[[1,0],[0,1]]", F)


def test_witness_round_trip_and_verify():
    payload = {"src": "a(2)", "dst": "c1", "char": 0,
               "matrix": [["1", "0", "0"], ["0", "0", "1"], ["0", "t", "0"]]}
    w = parse_witness(json.dumps(payload))
    assert w.src == adelta(RATIONALS, 2)
    assert not w.up_to_iso
    verify_witness(w)
    clone = parse_witness(render_witness(w))
    assert clone.matrix == w.matrix
    assert clone.src == w.src and clone.dst == w.dst


def test_witness_round_trip_over_gf4():
    F = gf4()
    rff = RationalFunctionField(F, "t")
    t, w = rff.gen(), rff.const(F.generator())
    one = rff.one()
    rows = [[w * t, 0, 0], [0, (one + w) * t * t + w * t + one, 0],
            [one + w, w, t]]
    witness = CurveWitness(AlgebraId("c1"), AlgebraId("a0"),
                           Matrix3.from_rows(rff, rows), note="gf4")
    payload = render_witness(witness)
    assert payload["matrix"] == [["(w)*t", "0", "0"],
                                 ["0", "(1+w)*t^2+(w)*t+1", "0"],
                                 ["(1+w)", "(w)", "t"]]
    clone = parse_witness(json.dumps(payload))
    assert clone.matrix == witness.matrix


def test_search_hit_over_gf4_round_trips():
    hit = search_witness(AlgebraId("c5"), AlgebraId("c3"), gf4(),
                         budget=20000, seed=4).witness
    clone = parse_witness(json.dumps(render_witness(hit)))
    assert clone.matrix == hit.matrix
    assert verify_witness(clone) == verify_witness(hit)


def test_witness_field_key_and_up_to_iso():
    payload = {"src": "c5", "dst": "c3", "field": {"char": 2},
               "up_to_iso": True,
               "matrix": [["0", "0", "t"], ["0", "t", "0"],
                          ["t^2", "t", "0"]]}
    w = parse_witness(json.dumps(payload))
    assert w.up_to_iso
    assert w.base_field == PrimeField(2)
    verify_witness(w)


def test_witness_errors():
    with pytest.raises(FormatError):
        parse_witness({"src": "c3", "matrix": [["1"] * 3] * 3})
    with pytest.raises(FormatError):
        parse_witness({"src": "c3", "dst": "c1", "matrix": [["1"] * 2] * 3})


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [], {}])
def test_witness_up_to_iso_must_be_a_bool(flag):
    payload = {"src": "c5", "dst": "c3", "char": 0, "up_to_iso": flag,
               "matrix": [["t", "0", "0"], ["t", "1", "0"], ["0", "0", "t"]]}
    with pytest.raises(FormatError):
        parse_witness(payload)
    for flag in (True, False):
        assert parse_witness(dict(payload, up_to_iso=flag)).up_to_iso is flag


def _library_curves(field):
    """Every library curve between distinct catalogue nodes over field."""
    pool = [AlgebraId(tag) for tag in ("a0", "c1", "c3", "l1", "c5")]
    pool += [adelta(field, 0), adelta(field, field.from_int(3))]
    if field.char != 2:
        pool.append(adelta(field, quarter(field)))
    return [w for src in pool for dst in pool if src != dst
            and (w := known_witness(src, dst, field)) is not None]


def _assert_round_trip(witness):
    clone = parse_witness(json.dumps(render_witness(witness)))
    assert clone.matrix == witness.matrix
    assert (clone.src, clone.dst) == (witness.src, witness.dst)
    assert clone.up_to_iso == witness.up_to_iso and clone.note == witness.note


@functools.cache
def _composites(name):
    """The library curves over a test field and every composite of two."""
    field = parse_field(_POLY_FIELDS[name][0])
    library = _library_curves(field)
    return library, [compose_curves(first, second) for first in library
                     for second in library
                     if first.dst == second.src and first.src != second.dst]


@pytest.mark.parametrize("name", sorted(_POLY_FIELDS))
def test_library_and_composed_curves_round_trip(name):
    library, composed = _composites(name)
    assert len(library) >= 12 and len(composed) >= 8
    for witness in library + composed:
        _assert_round_trip(witness)


# render_witness of each field's composites from _composites, in its order
_PINNED_COMPOSITES = json.loads(
    (Path(__file__).parent / "composed_curves.json").read_text())


@pytest.mark.parametrize("name", sorted(_POLY_FIELDS))
def test_composites_render_as_pinned(name):
    # composites without an iso bridge reuse both curves' matrices as they
    # are; the payloads must not change, bridged ones included
    _, composed = _composites(name)
    assert [render_witness(w) for w in composed] == _PINNED_COMPOSITES[name]


@pytest.mark.parametrize("last", ["a0", "c1"])
def test_composite_over_fractional_extension_round_trips(last):
    # the triangle collapse lands on c3 only up to isomorphism, and over Q
    # the bridge adjoins r with r^2 + 1/4 = 0; the descriptor carries that
    # minimal polynomial as the integer multiple 4r^2 + 1
    F = RATIONALS
    first = known_witness(AlgebraId("c5"), AlgebraId("c3"), F)
    second = known_witness(AlgebraId("c3"), AlgebraId(last), F)
    witness = compose_curves(first, second)
    assert [repr(c) for c in witness.base_field.minpoly] == ["1/4", "0", "1"]
    payload = render_witness(witness)
    assert payload["field"]["ext"]["min_poly"] == [1, 0, 4]
    _assert_round_trip(witness)
    clone = parse_witness(json.dumps(payload))
    assert clone.base_field == witness.base_field
    assert verify_witness(clone) == verify_witness(witness)


def test_lifted_search_hit_round_trips():
    F = PrimeField(7)
    hit = search_witness(AlgebraId("a3", F.element(2)), AlgebraId("l1"), F,
                         budget=100000, seed=1729).witness
    lifted = lift_witness_to_rationals(hit)
    _assert_round_trip(lifted)
    assert verify_witness(parse_witness(render_witness(lifted))) == \
        verify_witness(lifted)


# -- seeded fuzzing of the text grammars ------------------------------------------


_FUZZ_ALPHABET = "0123456789/+-*^()tw " + "x.,;:$[]{}\"'\\\t\u00e9"
_FUZZ_FIELDS = {
    "Q": (RATIONALS, {"char": 0}),
    "GF7": (PrimeField(7), {"char": 7}),
    "GF4": (gf4(), {"char": 2, "ext": {"name": "w", "min_poly": [1, 1, 1]}}),
}
_FUZZ_SCALARS = ("0", "3", "-1/2", "5/3", "2+3w", "w^2-1", "1+w")
_FUZZ_POLYS = ("t", "1/2t", "3t^2-1", "-t^3+2", "(2)*t", "(1+w)*t^2+(w)*t+1")


def _mutate(rng, text):
    """One to four random insertions, deletions or replacements."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op, ch = rng.randrange(3), rng.choice(_FUZZ_ALPHABET)
        if op == 0 or not chars:
            chars.insert(rng.randrange(len(chars) + 1), ch)
        elif op == 1:
            del chars[rng.randrange(len(chars))]
        else:
            chars[rng.randrange(len(chars))] = ch
    return "".join(chars)


def _fuzz_rejects(parse, texts):
    """Feed every text to parse; return those it refuses with FormatError.
    Any other exception propagates and fails the calling test."""
    rejected = []
    for text in texts:
        try:
            parse(text)
        except FormatError:
            rejected.append(text)
    return rejected


@pytest.mark.parametrize("name", sorted(_FUZZ_FIELDS))
def test_fuzzed_texts_parse_or_raise_format_error(name, capsys, tmp_path):
    field, desc = _FUZZ_FIELDS[name]
    rff = RationalFunctionField(field, "t")
    rng = random.Random(4242)
    vector = json.dumps({"field": desc, "entries": [
        {"i": 2, "j": 3, "k": 1, "c": "1"}, {"i": 3, "j": 3, "k": 1, "c": "2"}]})
    scalars = [_mutate(rng, s) for s in _FUZZ_SCALARS for _ in range(100)]
    polys = [_mutate(rng, p) for p in _FUZZ_POLYS for _ in range(100)]
    vectors = [_mutate(rng, vector) for _ in range(400)]
    bad_scalars = _fuzz_rejects(lambda s: parse_scalar(s, field), scalars)
    bad_polys = _fuzz_rejects(lambda s: parse_poly_in_t(s, rff), polys)
    bad_vectors = _fuzz_rejects(parse_vector, vectors)
    assert bad_scalars and bad_polys and bad_vectors

    # a handful of the refused texts through the command line: exit 2
    cases = [(("invariants", f"a({text})", "--char", str(field.char)), None)
             for text in bad_scalars[:3]]
    cases += [(("verify-witness", "{file}"), json.dumps({
        "src": "c3", "dst": "c1", "field": desc,
        "matrix": [[text, "0", "0"], ["0", "t", "0"], ["0", "0", "1"]]}))
        for text in bad_polys[:3]]
    cases += [(("identify", "{file}"), text) for text in bad_vectors[:3]]
    path = tmp_path / "payload.json"
    for argv, payload in cases:
        if payload is not None:
            path.write_text(payload)
        code = main([a.replace("{file}", str(path)) for a in argv])
        err = capsys.readouterr().err
        assert code == 2, (argv, payload, err)
        assert err.startswith("error: ") and "Traceback" not in err


def test_seeded_search_hits_are_pinned():
    # a search hit's coefficients are the codes the kernel drew, so the
    # witness and the candidate count depend on the order of elements()
    hit = search_witness(AlgebraId("c5"), AlgebraId("c3"), gf4(),
                         budget=20000, seed=4)
    assert hit.tried == 8865
    assert render_witness(hit.witness) == {
        "src": "c5", "dst": "c3",
        "field": {"char": 2, "ext": {"name": "w", "min_poly": [1, 1, 1]}},
        "matrix": [["0", "(1+w)*t", "(1+w)*t"], ["0", "(w)*t", "(1+w)*t"],
                   ["(1+w)*t^2", "(1+w)*t^2", "(w)*t"]],
        "note": "search-seed4"}
    F = PrimeField(7)
    hit = search_witness(AlgebraId("a3", F.element(2)), AlgebraId("l1"), F,
                         budget=100000, seed=1729)
    assert hit.tried == 22628
    assert render_witness(hit.witness) == {
        "src": "a3(2)", "dst": "l1", "field": {"char": 7},
        "matrix": [["t", "0", "0"], ["0", "6*t", "6"], ["0", "0", "1"]],
        "note": "search-seed1729"}


def test_render_witness_refuses_an_entry_that_is_no_polynomial():
    K = RationalFunctionField(RATIONALS)
    entry = K.one() / (K.gen() + 1)
    matrix = Matrix3.from_rows(K, [[entry, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(FormatError, match=r"^curve entry \(1\)/\(t\+1\) is not "
                       "a polynomial in t$"):
        render_witness(CurveWitness(AlgebraId("c1"), AlgebraId("c1"), matrix))
