"""The command line interface: output shapes, exit codes, determinism."""

import decimal
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import nilalg3
from nilalg3 import catalogue, hasse
from nilalg3.catalogue import c1, c3, c5
from nilalg3.cli import main
from nilalg3.degeneration import CurveWitness, known_witness
from nilalg3.fields import RATIONALS
from nilalg3.ioformats import CHARACTERISTICS, render_witness
from nilalg3.structspace import Matrix3

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert out.startswith("characteristic 0\n")
    assert "a(1/4)" in out and "c5" in out
    code2, out2, _ = run(capsys, "catalog")
    assert out2 == out


def test_catalog_char2_drops_quarter(capsys):
    code, out, _ = run(capsys, "catalog", "--char", "2")
    assert code == 0
    assert "a(1/4)" not in out


@pytest.mark.parametrize("char", CHARACTERISTICS)
def test_catalog_matches_its_golden(capsys, char):
    # every row is read off the diagram's node table, over F(d) on the
    # prime field of the characteristic
    code, out, _ = run(capsys, "catalog", "--char", str(char))
    assert code == 0
    assert out == (GOLDEN / f"catalog_char{char}.txt").read_text()


def test_invariants(capsys):
    code, out, _ = run(capsys, "invariants", "a(1/4)")
    assert code == 0
    payload = json.loads(out)
    assert payload["id"] == "a(1/4)"
    assert payload["nilpotency_class"] == 2
    assert payload["derivation_dim"] == 4


def test_invariants_bad_id(capsys):
    code, _, err = run(capsys, "invariants", "nope")
    assert code == 2
    assert "error" in err


def test_act_and_identify(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({
        "field": {"char": 7},
        "entries": [{"i": 2, "j": 2, "k": 1, "c": "1"},
                    {"i": 2, "j": 3, "k": 1, "c": "1"},
                    {"i": 3, "j": 3, "k": 1, "c": "3"}]}))
    code, out, _ = run(capsys, "act", str(vec),
                       '[[1,0,0],[0,0,1],[0,1,0]]')
    assert code == 0
    moved = tmp_path / "moved.json"
    moved.write_text(out.splitlines()[1])
    code, out, _ = run(capsys, "identify", str(moved))
    assert code == 0
    assert out.strip() == "a(3)"


def test_act_rejects_singular_matrix(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"field": {"char": 0},
                               "entries": [{"i": 3, "j": 3, "k": 1, "c": "1"}]}))
    code, _, err = run(capsys, "act", str(vec), "[[1,0,0],[0,1,0],[0,0,0]]")
    assert code == 2
    assert "singular" in err


def test_identify_with_witness(capsys, tmp_path):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"field": {"char": 0},
                               "entries": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                                           {"i": 2, "j": 1, "k": 3, "c": "1"}]}))
    code, out, _ = run(capsys, "identify", str(vec), "--witness",
                       "--allow-extension")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c3"
    assert len(json.loads(lines[1])) == 3


def test_identify_with_witness_names_the_root_apart(capsys, tmp_path):
    # over Q(r), r^2 = 5, the adjoined square root of 2 is r1: the entry
    # must not read as a multiple of the input's r
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({
        "field": {"char": 0, "ext": {"name": "r", "min_poly": [-5, 0, 1]}},
        "entries": [{"i": 2, "j": 2, "k": 1, "c": "1"},
                    {"i": 3, "j": 3, "k": 1, "c": "2"}]}))
    code, out, _ = run(capsys, "identify", str(vec), "--witness",
                       "--allow-extension")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c3"
    assert json.loads(lines[1])[2][2] == "1/2r1"
    # the third line names the adjoined root: r1^2 - 2 = 0
    assert json.loads(lines[2]) == [{"name": "r1", "min_poly": ["-2", "0", "1"]}]


def test_identify_takes_roots_over_a_field_with_a_trace_term(capsys, tmp_path):
    # over Q(g), g^2 = g + 3: 13 = (2g - 1)^2 has its square root in the
    # input field, 3 has none there
    field = {"char": 0, "ext": {"name": "g", "min_poly": [-3, -1, 1]}}
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(_vector(field, ((2, 2, 1, "1"), (3, 3, 1, "13")))))
    code, out, _ = run(capsys, "identify", str(path), "--witness")
    assert code == 0
    assert out.splitlines() == ["c3", json.dumps(
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1/13+2/13g"]])]
    path.write_text(json.dumps(_vector(field, ((2, 2, 1, "1"), (3, 3, 1, "3")))))
    code, _, err = run(capsys, "identify", str(path), "--witness")
    assert code == 1 and err.startswith("needs a quadratic extension")
    code, out, _ = run(capsys, "identify", str(path), "--witness",
                       "--allow-extension")
    assert code == 0
    assert json.loads(out.splitlines()[2]) == [
        {"name": "r", "min_poly": ["-3", "0", "1"]}]


def test_identify_over_a_cubic_field_adjoins_square_roots(capsys, tmp_path):
    # over Q(g), g^3 = 2, the square root of 3 lies in no odd-degree field,
    # and that of 4 is rational
    field = {"char": 0, "ext": {"name": "g", "min_poly": [-2, 0, 0, 1]}}
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(_vector(field, ((2, 2, 1, "1"), (3, 3, 1, "3")))))
    code, _, err = run(capsys, "identify", str(path), "--witness")
    assert code == 1 and err.startswith("needs a quadratic extension")
    code, out, _ = run(capsys, "identify", str(path), "--witness",
                       "--allow-extension")
    assert code == 0
    assert json.loads(out.splitlines()[2]) == [
        {"name": "r", "min_poly": ["-3", "0", "1"]}]
    path.write_text(json.dumps(_vector(field, ((2, 2, 1, "1"), (3, 3, 1, "4")))))
    code, out, _ = run(capsys, "identify", str(path), "--witness")
    assert code == 0
    assert out.splitlines() == ["c3", json.dumps(
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1/2"]])]


def test_identify_that_cannot_finish_over_a_cubic_field_exits_1(capsys, tmp_path):
    # over Q(g), g^3 = 2, the class is found, but the witness needs the
    # square root of g, which the toolkit cannot take: a valid input it
    # cannot finish is no malformed input
    field = {"char": 0, "ext": {"name": "g", "min_poly": [-2, 0, 0, 1]}}
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(_vector(field, ((2, 2, 1, "1"), (3, 3, 1, "g")))))
    code, out, _ = run(capsys, "identify", str(path))
    assert (code, out) == (0, "c3\n")
    for extra in ((), ("--allow-extension",)):
        code, out, err = run(capsys, "identify", str(path), "--witness", *extra)
        assert (code, out) == (1, "")
        assert err.startswith("cannot finish over this field: ")
        assert len(err.splitlines()) == 1


# e2e2 = e1, e3e3 = -e1 over Q(name), name^2 = -1
def _named_vector(name):
    return _vector({"char": 0, "ext": {"name": name, "min_poly": [1, 0, 1]}},
                   ((2, 2, 1, "1"), (3, 3, 1, "-1")))


@pytest.mark.parametrize("name", ["1", "", 5, ["x"], "x y"], ids=repr)
def test_generator_names_that_do_not_read_back_exit_2(capsys, tmp_path, name):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(_named_vector(name)))
    code, out, err = run(capsys, "identify", str(path), "--witness")
    assert code == 2 and out == ""
    assert err.startswith("error: bad generator name")


def test_generator_name_is_read_back(capsys, tmp_path):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(_named_vector("i")))
    code, out, _ = run(capsys, "identify", str(path), "--witness")
    assert code == 0
    assert out.splitlines() == ["c3", json.dumps(
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "i"]])]


def test_identify_missing_file(capsys):
    code, _, err = run(capsys, "identify", "does/not/exist.json")
    assert code == 2


def test_verify_witness(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "src": "c3", "dst": "c1", "char": 0,
        "matrix": [["1", "0", "0"], ["0", "t", "0"], ["0", "0", "1"]]}))
    code, out, _ = run(capsys, "verify-witness", str(good))
    assert code == 0
    assert out.startswith("verified: c3 --> c1")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "src": "c3", "dst": "l1", "char": 0,
        "matrix": [["1", "0", "0"], ["0", "t", "0"], ["0", "0", "1"]]}))
    code, _, err = run(capsys, "verify-witness", str(bad))
    assert code == 1
    assert "FAIL" in err


def test_identities(capsys):
    for char in ("0", "2"):
        code, out, _ = run(capsys, "identities", "--char", char)
        assert code == 0
        assert f"characteristic {char}: 14/14 identities hold" in out


def test_hasse_matches_golden(capsys):
    code, out, _ = run(capsys, "hasse", "--char", "0")
    assert code == 0
    assert out == (GOLDEN / "hasse_char0.dot").read_text()
    code, out, _ = run(capsys, "hasse", "--char", "2", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "hasse_char2.json").read_text()


def test_search_witness_found(capsys):
    code, out, _ = run(capsys, "search-witness", "a3(2)", "l1",
                       "--char", "7", "--budget", "50000")
    assert code == 0
    assert "found after" in out


def test_search_witness_not_found(capsys):
    code, out, _ = run(capsys, "search-witness", "l1", "c1",
                       "--char", "5", "--budget", "2000")
    assert code == 1
    assert "no witness after 2000 candidates" in out


def test_the_search_seed_comes_from_the_command_line_alone(capsys, monkeypatch):
    monkeypatch.setenv("NILALG3_SEED", "42")
    code, out, _ = run(capsys, "search-witness", "l1", "c1",
                       "--char", "5", "--budget", "500")
    assert code == 1
    assert "seed 1729" in out
    code, out, _ = run(capsys, "search-witness", "l1", "c1",
                       "--char", "5", "--budget", "500", "--seed", "9")
    assert "seed 9" in out


def test_console_script_entry_point():
    # the child imports the same nilalg3 as this process, however pytest
    # found it (an installed package, PYTHONPATH, or pyproject's pythonpath)
    package_dir = pathlib.Path(nilalg3.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(package_dir), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "nilalg3.cli", "catalog"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("characteristic 0")


def test_search_char0_names_a_lift_that_fails(capsys):
    # the GF(7) curve verifies and stays on stdout; its centred lift to Q
    # does not, and the failure says so
    code, out, err = run(capsys, "search-witness", "c3", "c1", "--char", "0",
                         "--budget", "5000", "--seed", "3")
    assert code == 1
    assert out.startswith("found after 229 candidates (seed 3):\n")
    assert json.loads(out.split("\n", 1)[1])["field"] == {"char": 7}
    assert "lifted to the rationals" not in out
    assert err.splitlines()[-1] == (
        "FAIL: the centred lift of the GF(7) curve to Q does not verify: "
        "limit -6*331 differs from the target structure 331")


def test_search_char0_lifts(capsys):
    code, out, _ = run(capsys, "search-witness", "a3(2)", "l1",
                       "--char", "0", "--budget", "50000")
    assert code == 0
    assert "lifted to the rationals" in out
    # the lifted block parses back as a witness over the rationals
    tail = out.split("lifted to the rationals:\n", 1)[1]
    payload = json.loads(tail)
    assert payload["field"] == {"char": 0}


def _vector(field, entries=((2, 3, 1, "1"),)):
    return {"field": field,
            "entries": [{"i": i, "j": j, "k": k, "c": c}
                        for i, j, k, c in entries]}


_WITNESS = {"src": "c3", "dst": "c1", "char": 0,
            "matrix": [["1", "0", "0"], ["0", "1/0t", "0"], ["0", "0", "1"]]}

# name, command line, payload written to the file named by "{file}"
MALFORMED = [
    ("negative-degree", ("search-witness", "c3", "c1", "--degree", "-1"),
     None),
    ("negative-budget", ("search-witness", "c3", "c1", "--budget", "-5"),
     None),
    ("zero-budget", ("search-witness", "c3", "c1", "--budget", "0"), None),
    ("zero-denominator-id", ("invariants", "a(1/0)"), None),
    ("zero-denominator-entry", ("verify-witness", "{file}"), _WITNESS),
    # e1 e1 = e2, e2 e1 = e3: (e1 e1) e1 = e3 but e1 (e1 e1) = 0
    ("non-associative", ("identify", "{file}"),
     _vector({"char": 0}, ((1, 1, 2, "1"), (2, 1, 3, "1")))),
    ("reducible-x4+1-gf3", ("identify", "{file}"), _vector(
        {"char": 3, "ext": {"name": "w", "min_poly": [1, 0, 0, 0, 1]}})),
    ("reducible-x4+x2+1-gf2", ("identify", "{file}"), _vector(
        {"char": 2, "ext": {"name": "w", "min_poly": [1, 0, 1, 0, 1]}})),
    ("quartic-over-q", ("identify", "{file}"), _vector(
        {"char": 0, "ext": {"name": "w", "min_poly": [4, 0, 0, 0, 1]}})),
    ("up-to-iso-string", ("verify-witness", "{file}"), {
        "src": "c5", "dst": "c3", "char": 0,
        "matrix": [["t", "0", "0"], ["t", "1", "0"], ["0", "0", "t"]],
        "up_to_iso": "false"}),
    # JSON true is no number, though Python's bool is an int
    ("bool-matrix-entry", ("verify-witness", "{file}"), {
        "src": "c3", "dst": "c1", "char": 0,
        "matrix": [[True, 0, 0], [0, "t", 0], [0, 0, True]]}),
    # each text entry is parsed once, but 1 == true as dict keys
    ("bool-after-int-matrix-entry", ("verify-witness", "{file}"), {
        "src": "c3", "dst": "c1", "char": 0,
        "matrix": [[1, 0, 0], [0, "t", 0], [0, 0, True]]}),
    ("bool-vector-coefficient", ("identify", "{file}"),
     _vector({"char": 0}, ((2, 3, 1, True),))),
    # each text coefficient is parsed once, but 1, true and 1.0 are equal
    # as dict keys, so they must not share a parse
    ("bool-after-int-coefficient", ("identify", "{file}"),
     _vector({"char": 0}, ((2, 3, 1, 1), (3, 2, 1, True)))),
    ("float-after-int-coefficient", ("identify", "{file}"),
     _vector({"char": 0}, ((2, 3, 1, 1), (3, 2, 1, 1.0)))),
    ("bool-vector-index", ("identify", "{file}"),
     _vector({"char": 0}, ((True, 1, 2, "1"),))),
    ("bool-characteristic", ("identify", "{file}"), _vector({"char": False})),
    ("bool-min-poly-coefficient", ("identify", "{file}"), _vector(
        {"char": 2, "ext": {"name": "w", "min_poly": [True, 1, 1]}})),
    # a power of a number field's generator grows with its exponent
    ("huge-generator-exponent", ("identify", "{file}"), _vector(
        {"char": 0, "ext": {"name": "s", "min_poly": [-2, 0, 1]}},
        ((2, 2, 1, "1"), (3, 3, 1, "s^4000000000")))),
]


@pytest.mark.parametrize("argv, payload", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_input_exits_2(capsys, tmp_path, argv, payload):
    path = tmp_path / "payload.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    code, _, err = run(capsys, *(a.format(file=path) for a in argv))
    assert code == 2
    assert err.startswith("error: ")


_DEEP = "[" * 200_000
# an integer literal of more digits than int() converts (4300 by default)
_HUGE = "1" * 5000
_HUGE_VECTOR = ('{"field": {"char": 0}, "entries": [{"i": 2, "j": 3, "k": 1, '
                '"c": %s}]}' % _HUGE)
_HUGE_WITNESS = ('{"src": "c3", "dst": "c1", "char": 0, "matrix": '
                 '[[%s, 0, 0], [0, "t", 0], [0, 0, 1]]}' % _HUGE)
_HUGE_MIN_POLY = ('{"field": {"char": 0, "ext": {"name": "w", "min_poly": '
                  '[%s, 0, 1]}}, "entries": []}' % _HUGE)
_PLAIN_VECTOR = '{"field": {"char": 0}, "entries": []}'


@pytest.mark.parametrize("argv, payload", [
    (("identify", "{file}"), _DEEP.encode()),
    (("identify", "{file}"), ('{"field": ' + _DEEP).encode()),
    (("verify-witness", "{file}"), _DEEP.encode()),
    (("identify", "{file}"), b"\xff\xfe"),
    (("identify", "{file}"), _HUGE_VECTOR.encode()),
    (("verify-witness", "{file}"), _HUGE_WITNESS.encode()),
    (("act", "{file}", "[[%s, 0, 0], [0, 1, 0], [0, 0, 1]]" % _HUGE),
     _PLAIN_VECTOR.encode()),
    (("identify", "{file}"), _HUGE_MIN_POLY.encode()),
], ids=["deep-vector", "deep-field", "deep-witness", "not-utf-8",
        "huge-int-vector", "huge-int-witness", "huge-int-act-matrix",
        "huge-int-min-poly"])
def test_undecodable_payloads_exit_2(capsys, tmp_path, argv, payload):
    path = tmp_path / "payload.json"
    path.write_bytes(payload)
    code, _, err = run(capsys, *(a.format(file=path) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def _digits_of_a_power_of_two(e: int) -> str:
    """The decimal text of 2^e, through decimal, which the interpreter's
    limit on the digits of an int's text does not touch."""
    with decimal.localcontext() as context:
        context.prec = e // 3 + 1
        return str(decimal.Decimal(2) ** e)


def test_a_value_of_more_digits_than_int_text_allows_is_printed(capsys, tmp_path):
    # s^65536 = 2^32768 over Q(s), s^2 = 2: 9865 digits, past the 4300 that
    # str(int) writes; the input is accepted, so its value must print
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "field": {"char": 0, "ext": {"name": "s", "min_poly": [-2, 0, 1]}},
        "entries": [{"i": 2, "j": 3, "k": 1, "c": "s^65536"}]}))
    code, out, err = run(capsys, "act", str(path), "[[1,0,0],[0,1,0],[0,0,1]]")
    assert code == 0 and not err
    value = _digits_of_a_power_of_two(32768)
    assert len(value) == 9865
    text, line = out.splitlines()
    assert text == f"{value}*231"
    assert json.loads(line)["entries"] == [{"i": 2, "j": 3, "k": 1, "c": value}]


def test_irreducible_quartic_still_accepted(capsys, tmp_path):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(_vector(
        {"char": 2, "ext": {"name": "w", "min_poly": [1, 1, 0, 0, 1]}})))
    code, out, _ = run(capsys, "identify", str(path))
    assert code == 0


def test_oversized_field_exits_2_promptly(capsys, tmp_path):
    # GF(13^12) has far more elements than a table-backed field may hold;
    # the descriptor is refused before any trial division
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(_vector(
        {"char": 13, "ext": {"name": "w", "min_poly": [2] + [0] * 11 + [1]}})))
    started = time.monotonic()
    code, _, err = run(capsys, "identify", str(path))
    assert code == 2
    assert err.startswith("error: ")
    assert time.monotonic() - started < 5


_Q, _GF7 = {"char": 0}, {"char": 7}
_GF4 = {"char": 2, "ext": {"name": "w", "min_poly": [1, 1, 1]}}

# one moved vector per class and field, and the exact stdout of `identify
# --witness --allow-extension` on it; the vectors take the reduction's frame
# paths: f1 off a unit vector, an isotropic w2 swapped with w3 (c1) or
# replaced by w2 + w3 (a and c3 over Q, c3 over GF(7), which adjoins a root)
_WITNESS_STDOUT = {
    "c1-Q": (_Q, ((3, 3, 1, "-1"), (3, 3, 2, "1")),
        ["c1",
         '[["-1", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]]']),
    "l1-Q": (_Q, ((1, 2, 1, "-1"), (1, 2, 3, "-2"), (2, 1, 1, "1"),
         (2, 1, 3, "2"), (2, 3, 1, "-1/2"), (2, 3, 3, "-1"),
         (3, 2, 1, "1/2"), (3, 2, 3, "1")),
        ["l1",
         '[["-1", "1", "0"], ["0", "0", "1"], ["-2", "0", "0"]]']),
    "a-Q": (_Q, ((1, 3, 1, "-1/2"), (1, 3, 2, "-1/2"), (2, 3, 1, "1/2"),
         (2, 3, 2, "1/2"), (3, 1, 1, "1"), (3, 1, 2, "1"),
         (3, 2, 1, "-1"), (3, 2, 2, "-1")),
        ["a(2/9)",
         '[["1/2", "1", "2/3"], ["1/2", "0", "0"], ["0", "1", "1/3"]]']),
    "c3-Q": (_Q, ((1, 2, 1, "-4"), (1, 2, 3, "8"), (2, 1, 1, "-4"),
         (2, 1, 3, "8"), (2, 3, 1, "-2"), (2, 3, 3, "4"),
         (3, 2, 1, "-2"), (3, 2, 3, "4")),
        ["c3",
         '[["-8", "1", "2r"], ["0", "1", "-2r"], ["16", "0", "0"]]',
         '[{"name": "r", "min_poly": ["1/4", "0", "1"]}]']),
    "c1-gf7": (_GF7, ((2, 2, 1, "5"), (2, 2, 2, "2"), (2, 2, 3, "3"),
         (2, 3, 1, "6"), (2, 3, 2, "1"), (2, 3, 3, "5"),
         (3, 2, 1, "6"), (3, 2, 2, "1"), (3, 2, 3, "5"),
         (3, 3, 1, "3"), (3, 3, 2, "4"), (3, 3, 3, "6")),
        ["c1",
         '[["5", "1", "0"], ["2", "0", "1"], ["3", "0", "0"]]']),
    "l1-gf7": (_GF7, ((1, 2, 1, "1"), (1, 2, 3, "4"), (2, 1, 1, "6"),
         (2, 1, 3, "3"), (2, 3, 1, "2"), (2, 3, 3, "1"),
         (3, 2, 1, "5"), (3, 2, 3, "6")),
        ["l1",
         '[["1", "1", "0"], ["0", "0", "1"], ["4", "0", "0"]]']),
    "a-gf7": (_GF7, ((1, 1, 2, "3"), (1, 1, 3, "4"), (1, 2, 2, "2"),
         (1, 2, 3, "5"), (1, 3, 2, "2"), (1, 3, 3, "5"),
         (2, 2, 2, "4"), (2, 2, 3, "3"), (2, 3, 2, "4"),
         (2, 3, 3, "3"), (3, 2, 2, "4"), (3, 2, 3, "3"),
         (3, 3, 2, "4"), (3, 3, 3, "3")),
        ["a(3)",
         '[["0", "1", "0"], ["3", "0", "5"], ["4", "0", "0"]]']),
    "c3-gf7": (_GF7, ((1, 2, 2, "4"), (1, 2, 3, "2"), (1, 3, 2, "6"),
         (1, 3, 3, "3"), (2, 1, 2, "4"), (2, 1, 3, "2"),
         (3, 1, 2, "6"), (3, 1, 3, "3")),
        ["c3",
         '[["0", "1", "2r"], ["1", "1", "5r"], ["4", "0", "0"]]',
         '[{"name": "r", "min_poly": ["2", "0", "1"]}]']),
    "l1-gf4": (_GF4, ((1, 2, 1, "w"), (1, 2, 3, "1+w"), (2, 1, 1, "w"),
         (2, 1, 3, "1+w"), (2, 3, 1, "1"), (2, 3, 3, "w"),
         (3, 2, 1, "1"), (3, 2, 3, "w")),
        ["l1",
         '[["w", "1", "0"], ["0", "0", "1"], ["1+w", "0", "0"]]']),
}


@pytest.mark.parametrize("name", list(_WITNESS_STDOUT))
def test_identify_witness_stdout_is_pinned(capsys, tmp_path, name):
    field, entries, lines = _WITNESS_STDOUT[name]
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(_vector(field, entries)))
    code, out, _ = run(capsys, "identify", str(path), "--witness",
                       "--allow-extension")
    assert code == 0
    assert out.splitlines() == lines


# boundary paths that no other test runs


def test_identify_witness_of_the_zero_vector_is_a0_by_the_identity(capsys, tmp_path):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(_vector(_GF7, ())))
    code, out, _ = run(capsys, "identify", str(path), "--witness")
    assert code == 0
    assert out.splitlines() == [
        "a0", '[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]']


def test_identify_reads_its_payload_from_stdin(capsys, monkeypatch):
    payload = json.dumps(_vector(_GF7, ((3, 3, 1, "1"),)))
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "identify", "-")
    assert code == 0
    assert out == "c1\n"


_IDENTITY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize("argv, payload, message", [
    (("identify", "{file}"),
     _vector({"char": 0, "ext": {"name": "r", "min_poly": [1, 0, 0]}}),
     "bad extension: minimal polynomial must have degree at least 2"),
    (("verify-witness", "{file}"), [1], "witness payload must be an object"),
    (("verify-witness", "{file}"),
     {"src": 5, "dst": "l1", "char": 0, "matrix": _IDENTITY},
     "algebra id must be text, got 5"),
], ids=["min-poly-of-degree-0", "witness-not-an-object", "witness-src-not-text"])
def test_boundary_refusals_name_their_cause(capsys, tmp_path, argv, payload, message):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, *(a.format(file=path) for a in argv))
    assert code == 2
    assert err == f"error: {message}\n"


def test_search_in_characteristic_2_runs_over_gf4(capsys):
    code, out, _ = run(capsys, "search-witness", "c5", "c1", "--char", "2",
                       "--budget", "3000", "--seed", "5")
    assert code == 0
    head, payload = out.split("\n", 1)
    assert head == "found after 338 candidates (seed 5):"
    assert json.loads(payload)["field"] == _GF4


def test_verify_witness_refuses_a_collapse_claimed_onto_another_class(capsys, tmp_path):
    # the c5 -> c3 collapse curve limits onto a structure isomorphic to c3
    w = known_witness(c5(), c3(), RATIONALS)
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(render_witness(
        CurveWitness(c5(), c1(), w.matrix, up_to_iso=True))))
    code, out, err = run(capsys, "verify-witness", str(path))
    assert code == 1 and out == ""
    assert err == "FAIL: limit identifies as c3, expected c1\n"


def test_hasse_exits_1_when_the_diagram_deviates_from_the_stored_picture(
        capsys, monkeypatch):
    monkeypatch.setitem(hasse.EXPECTED_EDGES, 0,
                        hasse.EXPECTED_EDGES[0] + (("c5", "c1"),))
    code, out, err = run(capsys, "hasse", "--char", "0")
    assert code == 1
    assert out == (GOLDEN / "hasse_char0.dot").read_text()
    assert err.splitlines()[-1] == ("FAIL: diagram deviates from the expected "
                                    "picture (missing [('c5', 'c1')], surplus [])")


def test_identify_exits_1_on_a_reduction_that_fails_its_check(
        capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(catalogue, "_reduction_matrix",
                        lambda vec, ident, field, *_: Matrix3.identity(field))
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(_vector({"char": 0}, ((2, 2, 1, "1"),))))
    code, out, err = run(capsys, "identify", str(path), "--witness")
    assert code == 1 and out == ""
    assert err == ("unclassifiable over this field: "
                   "reduction to c1 failed verification\n")
