"""The two degeneration diagrams, computed rather than transcribed.

Each node is one algebra over one field per diagram, F(d) over Q or over
GF(16): a(*) is the generic member a(d) of the family, a(1/4) the member
at the distinguished parameter, and every other node its catalogue id.
build_graph() asks degeneration.degenerates() once for a certificate for
every ordered pair of distinct nodes, checks the relation is acyclic, and
performs the transitive reduction.  emit() renders the reduced diagram as
DOT or JSON with a fixed node order, so output is byte-for-byte
reproducible.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .catalogue import AlgebraId, adelta, quarter
from .degeneration import degenerates
from .fields import RATIONALS, gf16
from .polyring import RationalFunctionField

NODE_ORDER = ("a0", "c1", "l1", "c3", "a(*)", "a(1/4)", "c5")

EXPECTED_EDGES = {
    0: (("c1", "a0"), ("l1", "a0"), ("c3", "c1"), ("a(*)", "c1"),
        ("a(1/4)", "c1"), ("a(1/4)", "l1"), ("c5", "c3")),
    2: (("c1", "a0"), ("l1", "a0"), ("c3", "c1"), ("c3", "l1"),
        ("a(*)", "c1"), ("c5", "c3")),
}


class HasseError(Exception):
    """Cycle found, or a node pair that could not be decided."""


@dataclass(frozen=True)
class HasseDiagram:
    characteristic: int
    nodes: tuple
    edges: tuple          # reduced: ((src, dst, annotation), ...)
    full_relation: tuple  # every certified arrow between distinct nodes


@functools.cache
def _default_field(characteristic: int) -> RationalFunctionField:
    """F(d) over Q or over GF(16), one per characteristic for the life of
    the process, so the library curves and node profiles kept in it are
    verified once."""
    if characteristic == 0:
        return RationalFunctionField(RATIONALS, "d")
    if characteristic == 2:
        return RationalFunctionField(gf16(), "d")
    raise HasseError(f"no diagram is defined for characteristic {characteristic}")


def node_table(field: RationalFunctionField) -> dict:
    """Each node's algebra over F(d), by label in NODE_ORDER; there is no
    a(1/4) node in characteristic 2, where 1/4 does not exist."""
    def ident(label):
        if label == "a(*)":
            return adelta(field, field.gen())
        if label == "a(1/4)":
            return adelta(field, quarter(field))
        return AlgebraId(label)

    return {label: ident(label) for label in NODE_ORDER
            if label != "a(1/4)" or field.char != 2}


def _annotation(fact) -> str:
    if fact.witness is not None:
        return fact.witness.note
    return "+".join(w.note for w in fact.chain)


def build_graph(characteristic: int) -> HasseDiagram:
    """Decide all node pairs and reduce; raises HasseError on any cycle."""
    field = _default_field(characteristic)
    ids = node_table(field)
    nodes = tuple(ids)

    relation = {}
    for u in nodes:
        for v in nodes:
            if u != v:
                fact = degenerates(ids[u], ids[v], field)
                if fact.holds:
                    relation[(u, v)] = _annotation(fact)

    _assert_acyclic(nodes, relation)
    reduced = []
    for (u, v), annotation in relation.items():
        if not any((u, w) in relation and (w, v) in relation
                   for w in nodes if w not in (u, v)):
            reduced.append((u, v, annotation))
    order = {n: i for i, n in enumerate(NODE_ORDER)}
    reduced.sort(key=lambda e: (order[e[0]], order[e[1]]))
    full = tuple(sorted(relation, key=lambda p: (order[p[0]], order[p[1]])))
    return HasseDiagram(characteristic, nodes, tuple(reduced), full)


def _assert_acyclic(nodes, relation):
    # the relation is transitively closed by construction, so a cycle would
    # show up as a mutual pair
    for u in nodes:
        for v in nodes:
            if u != v and (u, v) in relation and (v, u) in relation:
                raise HasseError(f"cycle through {u} and {v}")


def compare_expected(diagram: HasseDiagram):
    """(missing, surplus) of the reduced edge set against the stored picture."""
    expected = set(EXPECTED_EDGES[diagram.characteristic])
    got = {(u, v) for u, v, _ in diagram.edges}
    return tuple(sorted(expected - got)), tuple(sorted(got - expected))


def emit(diagram: HasseDiagram, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "characteristic": diagram.characteristic,
            "nodes": list(diagram.nodes),
            "edges": [{"src": u, "dst": v, "witness": note}
                      for u, v, note in diagram.edges],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "dot":
        lines = [f"digraph degenerations_char{diagram.characteristic} {{"]
        lines.append("  rankdir=TB;")
        lines.append("  node [shape=box];")
        for n in diagram.nodes:
            lines.append(f'  "{n}";')
        for u, v, note in diagram.edges:
            lines.append(f'  "{u}" -> "{v}" [label="{note}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise HasseError(f"unknown output format {fmt!r}")
