"""Self-test of the benchmark against its own declaration in BENCHMARK.json.

Usage (from the repository root):

    python3 bench/selftest.py

For each workload of BENCHMARK.json it runs bench/run.py twice untraced and
once traced, all with seed SEED and --seconds run_seconds.  It checks that
every run exits 0 with a correct, failure-free result; that the metric names
and units printed equal those declared under end_to_end (untraced) and
per_layer (traced); and that each end-to-end metric of the second untraced
run lies within the declared bound of the first, as a share of the first.
Exits 1 on any miss.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}: "
                           f"{proc.stderr[-600:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(result: dict, declared: list, label: str) -> list:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if set(got) != set(want):
        problems.append(f"{label}: missing {sorted(set(want) - set(got))}, "
                        f"undeclared {sorted(set(got) - set(want))}")
    problems += [f"{label}: {n} has unit {got[n]}, declared {want[n]}"
                 for n in set(got) & set(want) if got[n] != want[n]]
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = (run(workload, SEED, seconds, 0) for _ in range(2))
        traced = run(workload, SEED, seconds, 1)
        problems += check_names(first, spec["end_to_end"], f"{workload} trace 0")
        problems += check_names(second, spec["end_to_end"], f"{workload} trace 0")
        problems += check_names(traced, spec["per_layer"], f"{workload} trace 1")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            share = abs(b - a) / a
            verdict = "ok" if share <= metric["bound"] else "OUTSIDE BOUND"
            print(f"{workload:10s} {name:15s} {a:12.5g} {b:12.5g} "
                  f"{100 * share:6.1f}% (bound {100 * metric['bound']:.0f}%) {verdict}")
            if share > metric["bound"]:
                problems.append(f"{workload}: {name} moved {100 * share:.1f}% between runs")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
