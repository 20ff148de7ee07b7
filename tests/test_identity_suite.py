"""The identity suite's verdicts, frozen entry by entry.

For characteristics 0, 2 and 5, one row holds the 14 (name, holds) pairs of
verify_lemma_identities, first unmutated and then under each of the 27
single-coefficient mutations in index order.  The acceptance test only asks
that every mutation breaks some entry; this golden pins which ones.
Regenerate the golden file, one row a line, with

    PYTHONPATH=src python -c "import tests.test_identity_suite as t; \\
        print(t.golden_text(t.suite_rows()), end='')" \\
        > tests/golden/identity_suite.json
"""

import itertools
import json
import pathlib

from nilalg3.degeneration import verify_lemma_identities

GOLDEN = pathlib.Path(__file__).parent / "golden" / "identity_suite.json"
MUTATIONS = (None, *itertools.product((1, 2, 3), repeat=3))


def suite_rows():
    rows = []
    for char in (0, 2, 5):
        for mutate in MUTATIONS:
            report = verify_lemma_identities(char, mutate=mutate)
            assert report.characteristic == char
            rows.append([char, None if mutate is None else list(mutate),
                         [list(entry) for entry in report.entries]])
    return rows


def golden_text(rows) -> str:
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


def test_identity_suite_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    got = suite_rows()
    assert len(got) == len(expected) == 3 * 28
    for want, row in zip(expected, got):
        assert row == want
