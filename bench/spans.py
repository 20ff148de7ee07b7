"""Span wrappers installed from the benchmark's side, around nilalg3's layers.

install() replaces each traced function, wherever a nilalg3 module holds it
(its home module and every module that imported the name), with a wrapper
that records a span: name, duration, and the enclosing span.  Spans are
folded into per-name and per-edge totals in memory and read out at the end;
nothing is written while the workload runs.  Field multiplications and
inversions are counted, not timed, per field kind.
"""

from __future__ import annotations

import sys
from time import perf_counter

TRACED = (
    "degeneration.verify_witness", "degeneration.curve_limit",
    "degeneration.check_obstruction", "degeneration.known_witness",
    "degeneration.degenerates", "degeneration.verify_lemma_identities",
    "degeneration.search_witness", "degeneration.compose_curves",
    "degeneration.lift_witness_to_rationals",
    "polyring.limit_at_zero", "polyring.poly_gcd",
    "structspace.act", "structspace.act_cleared", "structspace.Matrix3.inverse",
    "linalg.row_reduce", "algprops.invariant_profile",
    "catalogue.identify", "catalogue.identify_with_witness", "catalogue.canonicalize",
    "hasse.build_graph", "ioformats.parse_witness", "ioformats.parse_vector",
    "cli.main",
)

FIELD_KINDS = ("Q", "Qext", "gfp", "gf4", "gf16", "gfq")


def field_kind(field) -> str:
    """Q, a number field over Q, GF(p), GF(4), GF(16), or another GF(q)."""
    from nilalg3.fields import PrimeField, Rationals
    if isinstance(field, Rationals):
        return "Q"
    if field.char == 0:
        return "Qext"
    if isinstance(field, PrimeField):
        return "gfp"
    return {4: "gf4", 16: "gf16"}.get(field.order(), "gfq")


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s, raised, truthy results]
        self.spans = {}
        self.edges = {}           # (parent name, child name) -> calls
        self.mul = dict.fromkeys(FIELD_KINDS, 0)
        self.inv = dict.fromkeys(FIELD_KINDS, 0)
        self._stack = []
        self._undo = []

    def reset(self):
        """Zero every total in place (the installed wrappers hold them)."""
        for rec in self.spans.values():
            rec[:] = [0, 0.0, 0.0, 0, 0]
        self.edges.clear()
        for k in FIELD_KINDS:
            self.mul[k] = self.inv[k] = 0
        self._stack.clear()

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "edges": [[p, c, n] for (p, c), n in self.edges.items()],
                "mul": dict(self.mul), "inv": dict(self.inv)}

    def _wrap(self, name, fn, truthy=None):
        spans, edges, stack = self.spans, self.edges, self._stack
        spans.setdefault(name, [0, 0.0, 0.0, 0, 0])

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            raised = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if raised:
                    rec[3] += 1
                elif truthy is not None and truthy(result):
                    rec[4] += 1
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, table, fn):
        kinds = {}

        def counted(self_, *args):
            result = fn(self_, *args)
            if result is not NotImplemented:
                f = self_.field
                entry = kinds.get(id(f))
                if entry is None:
                    entry = kinds[id(f)] = (f, field_kind(f))
                table[entry[1]] += 1
            return result

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced name in every loaded nilalg3 module."""
        import nilalg3.cli  # noqa: F401  (loads every layer)
        from nilalg3.fields import FieldElement
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nilalg3" or n.startswith("nilalg3.")]
        for dotted in TRACED:
            modname, _, qual = dotted.partition(".")
            home = sys.modules[f"nilalg3.{modname}"]
            truthy = (lambda r: r.found) if qual == "search_witness" else None
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, meth, self._wrap(dotted, getattr(cls, meth)))
                continue
            orig = getattr(home, qual)
            wrapped = self._wrap(dotted, orig, truthy)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapped)
        mul = FieldElement.__mul__
        counted_mul = self._counter(self.mul, mul)
        self._set(FieldElement, "__mul__", counted_mul)
        self._set(FieldElement, "__rmul__", counted_mul)
        self._set(FieldElement, "inverse", self._counter(self.inv, FieldElement.inverse))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def merge(snapshots: list) -> dict:
    """Sum several snapshots (for instance one per child process)."""
    out = {"spans": {}, "edges": {}, "mul": dict.fromkeys(FIELD_KINDS, 0),
           "inv": dict.fromkeys(FIELD_KINDS, 0)}
    for snap in snapshots:
        for name, rec in snap["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0, 0, 0])
            for i, v in enumerate(rec):
                acc[i] += v
        for p, c, n in snap["edges"]:
            out["edges"][(p, c)] = out["edges"].get((p, c), 0) + n
        for table in ("mul", "inv"):
            for k, v in snap[table].items():
                out[table][k] += v
    out["edges"] = [[p, c, n] for (p, c), n in out["edges"].items()]
    return out
