"""The nilalg3 benchmark: one command, four workloads, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):
    hasse-cold  `nilalg3 hasse --char C --format json` in a fresh process per
                run, C alternating 0 and 2, stdout byte-compared with the goldens
    certify     parse_witness + verify_witness / compose_curves on a seeded
                witness corpus, interleaved with the lemma identity suite
    classify    parse_vector + identify + invariant_profile on seeded basis
                changes of every class, identify_with_witness on all but c3
    search      search_witness with a fixed budget on pairs that must fail
                and pairs that must hit (hits re-verified, lifted to Q)

Each run is one closed loop: a single client that waits for every verdict,
no threads, at most one child process at a time.  It runs passes over the
workload's operations until --seconds have gone (the first pass whole, the
last one cut at the deadline), checks every result against its oracle, and
prints a report followed by one JSON line.  Any wrong verdict makes the exit
status 1.

--trace 0 prints the end-to-end metrics.  The names are the same on every
workload; the operations behind them differ:
    rate_per_ref       headline work items per reference time: cold `hasse
                       --char 2` diagrams, witnesses judged, vectors
                       classified, candidates of searches that must exhaust
                       their budget
    side_rate_per_ref  the second operation, likewise: cold `hasse --char 0`
                       diagrams, identity suites, identify_with_witness
                       calls, candidates of searches that must hit
    setup_s            median of 16 fresh processes, spread over the run,
                       that import nilalg3 and build (and use once) Q,
                       GF(5), GF(7), GF(4), GF(16)
    peak_rss_mb        peak resident set of the process doing the work: the
                       largest cold `hasse` process, or the benchmark's own
                       process, which holds nilalg3, its inputs and a few MB
                       of reference_work()
A rate is work items per duration of reference_work(), a fixed piece of
plain Python timed between operations throughout the run: items per "ref".
Each run of an operation is divided by the reference timings taken just
before and just after it, and every pass repeats the same inputs, so each
operation counts with the median of its ratios.  On shared machines the
speed of the whole machine drifts by a factor of two within seconds; raw
times follow the drift, the ratio of two timings taken side by side does
not.  The raw rates in 1/s (lower quartiles of repetitions) are in the
report, with the workload's own figures by name (hasse2_cold_s as a median,
certify_witness_tail_ms as the highest percentile with ten samples beyond
it, ...), sample counts, the error rate, the Python version and the CPU
count.

--trace 1 prints the per-layer metrics instead: warm micro-timings of each
layer, and span totals from wrappers the benchmark installs around each
layer's public functions (spans.py).  It alternates untraced and traced
passes over one fixed pass of the workload, so call counts repeat exactly,
and reports the traced/untraced wall ratio as the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
from micro import run_micro
from traced_cli import SPANS_MARK
from workloads import WORKLOADS, run_child

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 16
SETUP_CODE = (
    "import nilalg3\n"
    "from nilalg3.fields import RATIONALS, PrimeField, gf4, gf16\n"
    "for f in (RATIONALS, PrimeField(5), PrimeField(7), gf4(), gf16()):\n"
    "    x = f.from_int(3)\n"
    "    x * x, x.inverse()\n"
)


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _lower_quartile(samples: list) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[0]


def _tail(samples: list) -> tuple:
    """(value, percentile, n): the highest percentile with ten samples beyond.

    That is the eleventh-largest sample, at percentile 100 (n - 10) / n.
    Below 20 samples it would sink to the bottom half, so the maximum is
    reported instead.
    """
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return s[-1], 100.0, n
    return s[n - 11], 100 * (n - 10) / n, n


def reference_work():
    """A fixed piece of plain Python work: dict, tuple and integer traffic
    over a few megabytes, like nilalg3's inner loops, but none of its code."""
    table = {}
    for i in range(80000):
        key = (i % 4099, i % 7)
        table[key] = table.get(key, 0) + i * i % 11
    return table


def _setup_once() -> float:
    t0 = perf_counter()
    proc = run_child(["-c", SETUP_CODE])
    dt = perf_counter() - t0
    if proc.returncode != 0:
        _fail(f"set-up process failed: {proc.stderr.decode(errors='replace')[-400:]}")
    return dt


class Loop:
    """Runs operations one at a time, times them, and applies their checks.

    Between operations it also times reference_work(): at the start, and
    again once ``ref_every_s`` of operation time has gone since the last
    time, so the machine's own speed is known just before and just after
    every operation.  With ``setup_every_s`` it also times one set-up process
    whenever that much wall time has gone since the last one, so the set-up
    samples spread over the run.
    """

    def __init__(self, ref_every_s: float, setup_every_s: float | None = None):
        self.ref = [self._time_ref()]   # seconds per reference_work()
        self._ref_every_s = ref_every_s
        self._since_ref = 0.0
        self.times = {}      # kind -> [seconds]
        self.by_key = {}     # (kind, key) -> [(seconds, index of the next ref)]
        self.items = {}      # (kind, key) -> work items of one run of it
        self.setup = []      # seconds per set-up process
        self._setup_every_s = setup_every_s
        self._next_setup = perf_counter()
        self.attempted = 0
        self.errors = []

    @staticmethod
    def _time_ref() -> float:
        r0 = perf_counter()
        reference_work()
        return perf_counter() - r0

    def run(self, op, timed=True):
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a crash is a wrong verdict, not a harness error
            dt = perf_counter() - t0
            self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            return None, dt
        dt = perf_counter() - t0
        error = op.check(result)
        if error is not None:
            self.errors.append(f"{op.kind}: {error}")
        elif timed:
            self.times.setdefault(op.kind, []).append(dt)
            self.by_key.setdefault((op.kind, op.key), []).append((dt, len(self.ref)))
            self.items[(op.kind, op.key)] = op.items(result)
            self._since_ref += dt
            if self._since_ref >= self._ref_every_s:
                self._since_ref = 0.0
                self.ref.append(self._time_ref())
        if self._setup_every_s is not None and perf_counter() >= self._next_setup:
            self.setup.append(_setup_once())
            self._next_setup = perf_counter() + self._setup_every_s
        return result, dt

    def finish(self) -> None:
        """Close the last operations' reference bracket and top up set-up."""
        if self._since_ref > 0:
            self.ref.append(self._time_ref())
        while self._setup_every_s is not None and len(self.setup) < SETUP_RUNS:
            self.setup.append(_setup_once())

    def quiet_rate(self, *kinds) -> float:
        """Work items per second, each operation timed by the lower quartile
        of its repetitions."""
        busy = items = 0.0
        for (kind, key), samples in self.by_key.items():
            if kind in kinds:
                busy += _lower_quartile([dt for dt, _ in samples])
                items += self.items[(kind, key)]
        return items / busy

    def rate_per_ref(self, kind) -> float:
        """Work items per duration of reference_work().

        Each run of an operation is divided by the mean of the reference
        timings just before and just after it; each operation counts with
        the median of those ratios over its repetitions.
        """
        busy = items = 0.0
        for (k, key), samples in self.by_key.items():
            if k == kind:
                busy += statistics.median(
                    2 * dt / (self.ref[i - 1] + self.ref[i])
                    for dt, i in samples)
                items += self.items[(k, key)]
        return items / busy

    def run_pass(self, ops, on_result=None, deadline=None) -> float:
        """Run ops in order, stopping early once ``deadline`` has passed."""
        wall = 0.0
        for op in ops:
            if deadline is not None and perf_counter() >= deadline:
                break
            result, dt = self.run(op)
            wall += dt
            if on_result is not None:
                on_result(op, result, dt)
        return wall


def end_to_end(workload, loop: Loop, seconds: float) -> tuple:
    """Measure untraced; return (metrics, named report lines)."""
    deadline = perf_counter() + seconds
    index = 0
    while index == 0 or perf_counter() < deadline:
        loop.run_pass(workload.pass_ops(index), deadline=deadline if index else None)
        index += 1
    loop.finish()
    rss_mb = workload.peak_rss_mb()

    t = loop.times
    missing = [k for k in (workload.main_kind, workload.side_kind) if not t.get(k)]
    if missing:
        return None, [f"no correct {k} operation measured" for k in missing]

    main, side = t[workload.main_kind], t[workload.side_kind]
    main_rate = loop.quiet_rate(workload.main_kind)
    side_rate = loop.quiet_rate(workload.side_kind)
    tail, pct, n = _tail(main)
    metrics = {
        "setup_s": (statistics.median(loop.setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "rate_per_ref": (loop.rate_per_ref(workload.main_kind), "1/ref"),
        "side_rate_per_ref": (loop.rate_per_ref(workload.side_kind), "1/ref"),
    }
    lines = [f"passes {index}"]
    lines += [f"{k}: n={len(v)}, median {1e3 * statistics.median(v):.4g} ms"
              for k, v in sorted(t.items())]
    lines += [f"{workload.main_kind}: p{pct:.1f} {1e3 * tail:.4g} ms of n={n}",
              f"setup_s runs: {', '.join(f'{s:.4f}' for s in loop.setup)}",
              f"reference work: n={len(loop.ref)}, lower quartile "
              f"{1e3 * _lower_quartile(loop.ref):.4g} ms, "
              f"median {1e3 * statistics.median(loop.ref):.4g} ms",
              f"rate_per_s {main_rate:.6g}, side_rate_per_s {side_rate:.6g} "
              f"(lower quartiles of repeated operations)"]
    named = {
        "hasse-cold": lambda: [("hasse2_cold_s", statistics.median(main), "s"),
                               ("hasse0_cold_s", statistics.median(side), "s")],
        "certify": lambda: [("certify_witnesses_per_s", main_rate, "1/s"),
                            ("certify_witness_tail_ms", 1e3 * tail, "ms"),
                            ("certify_identity_suites_per_s", side_rate, "1/s")],
        "classify": lambda: [("classify_vectors_per_s", main_rate, "1/s"),
                             ("classify_vector_tail_ms", 1e3 * tail, "ms")],
        "search": lambda: [("search_candidates_per_s",
                            loop.quiet_rate("search-neg", "search-pos"), "1/s")],
    }[workload.name]()
    for name, value, unit in named + [("setup_s", metrics["setup_s"][0], "s"),
                                      ("peak_rss_mb", rss_mb, "MB")]:
        lines.append(f"{name} = {value:.6g} {unit}")
    return metrics, lines


def per_layer(workload, loop: Loop, seconds: float, seed: int) -> tuple:
    """Alternate untraced and traced copies of one pass; then micro-timings."""
    tracer = spans.Tracer()
    in_process = workload.name != "hasse-cold"
    walls = {False: [], True: []}
    snaps, startup, per_char = [], [], {}
    deadline = perf_counter() + seconds
    traced = True
    while not walls[True] or perf_counter() < deadline:
        traced = not traced
        if in_process:
            tracer.reset()
            if traced:
                tracer.install()
            try:
                walls[traced].append(loop.run_pass(workload.layer_ops()))
            finally:
                tracer.uninstall()
            if traced:
                snaps.append(tracer.snapshot())
            continue
        children = []

        def on_child(op, proc, dt):
            lines = proc.stderr.decode().strip().splitlines() if proc else []
            if not lines or not lines[-1].startswith(SPANS_MARK):
                return          # the op's check has already counted the failure
            snap = json.loads(lines[-1][len(SPANS_MARK):])
            children.append(snap)
            startup.append(dt - snap["spans"]["cli.main"][1])
            per_char.setdefault(op.kind, snap)

        walls[traced].append(loop.run_pass(workload.pass_ops(0, traced=traced),
                                           on_child if traced else None))
        if traced:
            snaps.append(spans.merge(children))
    micro = run_micro(seed)
    return layer_metrics(snaps, micro, walls, startup, per_char)


def layer_metrics(snaps, micro, walls, startup, per_char) -> tuple:
    names = set()
    for s in snaps:
        names.update(s["spans"])
    repeat = all(_counts(s) == _counts(snaps[0]) for s in snaps)
    k = len(snaps)

    def span(name, i):
        return sum(s["spans"].get(name, [0] * 5)[i] for s in snaps) / k

    def edge(parent, child):
        return sum(n for s in snaps for p, c, n in s["edges"]
                   if p == parent and c == child) / k

    def ratio(num, den):
        return num / den if den else 0.0

    m = dict(micro)
    for name in spans.TRACED:
        m[f"{name}.calls"] = (span(name, 0), "count")
        m[f"{name}.self_s"] = (span(name, 2), "s")
    m["degeneration.curve_limit.total_s"] = (span("degeneration.curve_limit", 1), "s")
    for table in ("mul", "inv"):
        for kind in spans.FIELD_KINDS:
            m[f"fields.{table}.calls.{kind}"] = (
                sum(s[table][kind] for s in snaps) / k, "count")
    m["cli.startup_s"] = (statistics.median(startup) if startup else 0.0, "s")
    vw = "degeneration.verify_witness"
    cc = "degeneration.compose_curves"
    kw = "degeneration.known_witness"
    sw = "degeneration.search_witness"
    bases = {
        "degeneration.verify_witness.reject_ratio": (span(vw, 3), span(vw, 0)),
        "degeneration.compose_curves.attempts_per_success": (
            edge(cc, vw) - span(cc, 0), span(cc, 0) - span(cc, 3)),
        "degeneration.known_witness.verify_ratio": (edge(kw, vw), span(kw, 0)),
        "degeneration.search.hit_ratio": (span(sw, 4), span(sw, 0)),
    }
    for name, (num, den) in bases.items():
        m[name] = (ratio(num, den), "ratio")
    overhead = statistics.median(walls[True]) / statistics.median(walls[False])
    m["trace.overhead_ratio"] = (overhead, "ratio")

    lines = [f"traced passes {k}, untraced passes {len(walls[False])}; "
             f"call counts repeat exactly across traced passes: {repeat}",
             f"tracing overhead: traced pass {statistics.median(walls[True]):.4f} s "
             f"against untraced {statistics.median(walls[False]):.4f} s"]
    for name, (num, den) in bases.items():
        lines.append(f"{name} = {num:g} / {den:g}")
    top = sorted(names, key=lambda n: -span(n, 2))[:8]
    lines.append("largest self time per pass: " + ", ".join(
        f"{n} {span(n, 2):.4f} s" for n in top if span(n, 2) > 0))
    for kind, snap in sorted(per_char.items()):
        rec = snap["spans"]
        whole = rec["cli.main"][1]
        cl = rec.get("degeneration.curve_limit", [0, 0.0])[1]
        kw_total = rec.get(kw, [0, 0.0])[1]
        lines.append(f"{kind}: curve_limit with its children {cl:.4f} s = "
                     f"{100 * cl / whole:.1f}% of cli.main {whole:.4f} s "
                     f"(known_witness {kw_total:.4f} s)")
    return m, lines


def _counts(snap) -> tuple:
    return (tuple(sorted((n, r[0], r[3], r[4]) for n, r in snap["spans"].items())),
            tuple(sorted(snap["mul"].items())), tuple(sorted(snap["inv"].items())))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (ROOT / "src" / "nilalg3" / "__init__.py").is_file():
        _fail(f"no nilalg3 source tree under {ROOT / 'src'}")
    if not (ROOT / "tests" / "golden").is_dir():
        _fail(f"no golden outputs under {ROOT / 'tests' / 'golden'}")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    workload = WORKLOADS[args.workload](args.seed)
    loop = Loop(workload.ref_every_s,
                None if args.trace else args.seconds / SETUP_RUNS)
    loop.run(workload.warmup(), timed=False)
    if args.trace:
        metrics, lines = per_layer(workload, loop, args.seconds, args.seed)
    else:
        metrics, lines = end_to_end(workload, loop, args.seconds)

    print(f"nilalg3 benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s; python {platform.python_version()}, "
          f"nproc {os.cpu_count()}")
    failed = len(loop.errors)
    print(f"operations attempted {loop.attempted}, failed {failed}, "
          f"error_rate {failed / loop.attempted:g}")
    for line in lines:
        print(line)
    for error in loop.errors[:10]:
        print(f"WRONG: {error}", file=sys.stderr)
    if metrics is None:
        metrics = {}
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
