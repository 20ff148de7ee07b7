"""The full decision table of degenerates() on the catalogue nodes, frozen.

For every ordered pair of a0, c1, l1, c3, c5 and the family members a(0),
a(1), a(3), a(1/4) (a(0), a(1), a(w) in characteristic 2), over Q, GF(3),
GF(5), GF(7), GF(4) and GF(16), one row records the verdict, the witness
note, the chain notes, the obstruction tag and the tag check_obstruction()
returns on its own.  Ids that coincide in a field (a(3) = a(0) over GF(3))
are listed once.  Regenerate the golden file, one row a line, with

    PYTHONPATH=src python -c "import tests.test_decision_table as t; \\
        print(t.golden_text(t.decision_rows()), end='')" \\
        > tests/golden/decision_table.json
"""

import json
import pathlib
from fractions import Fraction

from nilalg3.catalogue import AlgebraId, adelta
from nilalg3.degeneration import check_obstruction, degenerates
from nilalg3.fields import PrimeField, RATIONALS, gf4, gf16

GOLDEN = pathlib.Path(__file__).parent / "golden" / "decision_table.json"


def _fields():
    return (("Q", RATIONALS), ("GF3", PrimeField(3)), ("GF5", PrimeField(5)),
            ("GF7", PrimeField(7)), ("GF4", gf4()), ("GF16", gf16()))


def _nodes(field):
    nodes = [AlgebraId(tag) for tag in ("a0", "c1", "l1", "c3", "c5")]
    if field.char == 2:
        w = field.embed(gf4().generator())
        params = (field.zero(), field.one(), w)
    else:
        params = tuple(field.element(d) for d in (0, 1, 3, Fraction(1, 4)))
    for d in params:
        ident = adelta(field, d)
        if ident not in nodes:
            nodes.append(ident)
    return nodes


def _row(name, field, src, dst):
    fact = degenerates(src, dst, field)
    obs = check_obstruction(src, dst, field)
    return [name, str(src), str(dst), fact.holds,
            fact.witness.note if fact.witness is not None else None,
            [w.note for w in fact.chain],
            fact.obstruction.tag if fact.obstruction is not None else None,
            obs.tag if obs is not None else None]


def decision_rows():
    rows = []
    for name, field in _fields():
        nodes = _nodes(field)
        for src in nodes:
            for dst in nodes:
                rows.append(_row(name, field, src, dst))
    return rows


def golden_text(rows) -> str:
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


def test_decision_table_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    got = decision_rows()
    assert len(got) == len(expected)
    for want, row in zip(expected, got):
        assert row == want
