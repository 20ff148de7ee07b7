"""The two degeneration diagrams, frozen as golden DOT and JSON files."""

import collections
import json
import pathlib

import pytest

from nilalg3 import degeneration, hasse
from nilalg3.hasse import (HasseError, NODE_ORDER, build_graph,
                           compare_expected, emit)

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def char0():
    return build_graph(0)


@pytest.fixture(scope="module")
def char2():
    return build_graph(2)


def test_node_order():
    assert NODE_ORDER == ("a0", "c1", "l1", "c3", "a(*)", "a(1/4)", "c5")


def test_char0_edges(char0):
    assert char0.characteristic == 0
    assert len(char0.nodes) == 7
    got = {(s, d) for s, d, _ in char0.edges}
    assert got == {("c1", "a0"), ("l1", "a0"), ("c3", "c1"), ("a(*)", "c1"),
                   ("a(1/4)", "c1"), ("a(1/4)", "l1"), ("c5", "c3")}
    assert compare_expected(char0) == ((), ())


def test_char2_edges(char2):
    assert char2.characteristic == 2
    assert len(char2.nodes) == 6
    assert "a(1/4)" not in char2.nodes
    got = {(s, d) for s, d, _ in char2.edges}
    assert got == {("c1", "a0"), ("l1", "a0"), ("c3", "c1"), ("c3", "l1"),
                   ("a(*)", "c1"), ("c5", "c3")}
    assert compare_expected(char2) == ((), ())


def test_full_relation_is_transitive_and_acyclic(char0):
    rel = set(char0.full_relation)
    for a, b in rel:
        for c, d in rel:
            if b == c and a != d:
                assert (a, d) in rel, f"{a} -> {b} -> {d} not closed"
    for a, b in rel:
        assert (b, a) not in rel


def test_reduced_edges_have_no_shortcuts(char0):
    edges = {(s, d) for s, d, _ in char0.edges}
    rel = set(char0.full_relation)
    for s, d in edges:
        for m in char0.nodes:
            if m not in (s, d):
                assert not ((s, m) in rel and (m, d) in rel), \
                    f"{s} -> {d} factors through {m}"


def test_edge_annotations(char0, char2):
    notes0 = {(s, d): n for s, d, n in char0.edges}
    assert notes0[("c5", "c3")] == "triangle-collapse"
    assert notes0[("a(1/4)", "l1")] == "quarter-pinch"
    notes2 = {(s, d): n for s, d, n in char2.edges}
    assert notes2[("c5", "c3")] == "rep-collapse"
    assert notes2[("c3", "l1")] == "shear-pinch"


def test_golden_dot(char0, char2):
    assert emit(char0, "dot") == (GOLDEN / "hasse_char0.dot").read_text()
    assert emit(char2, "dot") == (GOLDEN / "hasse_char2.dot").read_text()


def test_golden_json(char0, char2):
    for diagram, name in ((char0, "hasse_char0.json"), (char2, "hasse_char2.json")):
        text = emit(diagram, "json")
        assert text == (GOLDEN / name).read_text()
        payload = json.loads(text)
        assert payload["characteristic"] == diagram.characteristic
        assert [e["src"] for e in payload["edges"]] == [s for s, _, _ in diagram.edges]


def test_rejects_other_characteristics():
    with pytest.raises(HasseError):
        build_graph(5)


def test_emit_rejects_unknown_format(char0):
    with pytest.raises(HasseError):
        emit(char0, "svg")


def test_a_second_diagram_verifies_no_curve_again(monkeypatch):
    # one field per characteristic keeps the verified library curves, so a
    # second build_graph(2) in the process reuses them
    first = build_graph(2)
    calls = []
    verify = degeneration.verify_witness
    monkeypatch.setattr(degeneration, "verify_witness",
                        lambda w: calls.append(w) or verify(w))
    assert build_graph(2) == first
    assert calls == []


@pytest.mark.parametrize("char, pairs", [(0, 42), (2, 30)])
def test_each_ordered_pair_is_decided_once(monkeypatch, char, pairs):
    # a node is one algebra over F(d), so each ordered pair of distinct
    # nodes is one question to degenerates
    calls = collections.Counter()
    decide = hasse.degenerates

    def counted(src, dst, field):
        calls[(src, dst)] += 1
        return decide(src, dst, field)

    monkeypatch.setattr(hasse, "degenerates", counted)
    diagram = build_graph(char)
    ids = hasse.node_table(hasse._default_field(char))
    assert tuple(ids) == diagram.nodes
    assert calls == {(ids[u], ids[v]): 1 for u in ids for v in ids if u != v}
    assert sum(calls.values()) == pairs
