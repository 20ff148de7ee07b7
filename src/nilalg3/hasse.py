"""The two degeneration diagrams, computed rather than transcribed.

build_graph() enumerates every ordered pair of class nodes, asks
degeneration.degenerates() for a certificate, samples the one-parameter
family at several parameter values so a family-level arrow means "for every
sampled member", checks the result is acyclic, and performs the transitive
reduction.  emit() renders the reduced diagram as DOT or JSON with a fixed
node order, so output is byte-for-byte reproducible.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .catalogue import AlgebraId, adelta, quarter
from .degeneration import degenerates
from .fields import Field, RATIONALS, gf16

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
def _default_field(characteristic: int) -> Field:
    """One field per characteristic for the life of the process, so the
    library curves and node profiles kept in it are verified once."""
    if characteristic == 0:
        return RATIONALS
    if characteristic == 2:
        return gf16()
    raise HasseError(f"no diagram is defined for characteristic {characteristic}")


def _family_samples(field: Field):
    """The ten sampled parameters of the a(*) family; none is 1/4, whose
    algebra is a node of its own (and 1/4 does not exist in GF(16))."""
    if field.char == 0:
        return [field.from_int(v) for v in (0, 1, 2, 3, 5, 7, 11, 13, 17, 19)]
    return list(field.elements())[:10]


def _node_members(label: str, field: Field, samples):
    if label == "a(*)":
        return [adelta(field, d) for d in samples]
    if label == "a(1/4)":
        return [adelta(field, quarter(field))]
    return [AlgebraId(label)]


def _annotation(fact) -> str:
    if fact.witness is not None:
        return fact.witness.note
    return "+".join(w.note for w in fact.chain)


def build_graph(characteristic: int) -> HasseDiagram:
    """Decide all node pairs and reduce; raises HasseError on any cycle."""
    field = _default_field(characteristic)
    nodes = tuple(n for n in NODE_ORDER
                  if n != "a(1/4)" or characteristic != 2)
    deltas = _family_samples(field)
    members = {label: _node_members(label, field, deltas) for label in nodes}

    relation = {}
    for u in nodes:
        for v in nodes:
            if u == v:
                continue
            facts = (degenerates(s, d, field)
                     for s in members[u] for d in members[v])
            first = next(facts)
            if first.holds and all(fact.holds for fact in facts):
                relation[(u, v)] = _annotation(first)

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
