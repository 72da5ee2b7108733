"""A/A self-check: do two sets of runs of the same code agree within the bounds?

``python3 -m bench_e2e --selfcheck K`` runs, for every workload, two
interleaved sets (A, B, B, A, ...) of K end-to-end runs on this tree (run
``i`` of A and run ``i`` of B share a seed, another seed for every ``i``)
and two traced runs on one seed. It prints, per end-to-end metric, the
two medians, their relative gap, the spread of all 2K values (distance
between first and third quartile over the median) and the bound from
``BENCHMARK.json``. It exits non-zero when

- a gap, or a spread other than that of ``setup_s``, exceeds its bound;
- a count differs between two runs on one seed (``attempted``,
  ``wire_bytes_per_op`` and the per-layer counts and ratios must repeat
  exactly);
- an op failed, a run was cut short by ``--seconds``, a per-layer metric
  is ``null``, ``trace.coverage_frac`` is under ``COVERAGE_FLOOR`` or a
  layer-dominance assertion is violated.

Its K = 5 output is committed as ``AA_EVIDENCE.md``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from bench_e2e.calibrate import spread
from bench_e2e.cli import ROOT

COVERAGE_FLOOR = 0.90
#: Per-layer metrics that are counts made by the program, not times.
EXACT_LAYER_COUNTS = (
    "optimizer.rounds_per_op",
    "serialize.calls_per_op",
    "socket.frames_per_op",
    "siteserver.requests_per_op",
    "gmdj.tuples_examined_per_op",
    "relalg.compile_calls_per_op",
    "service.hit_ratio",
    "service.refresh_ratio",
)


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> tuple:
    """One benchmark run in a child; returns ``(result, info)``."""
    completed = subprocess.run(
        [
            sys.executable, "-m", "bench_e2e", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].split("info: ", 1)[1])


def check_end_to_end(workload: str, contract: dict, runs: int, first_seed: int, seconds: float) -> list:
    problems = []
    sets = ({}, {})
    for index in range(runs):
        seed = first_seed + index
        pair = {}
        for which in (0, 1) if index % 2 == 0 else (1, 0):
            result, info = run_once(workload, seed, seconds)
            pair[which] = result
            if not result["correct"]:
                problems.append(f"{workload}: seed {seed} had failed ops")
            if info["capped"]:
                problems.append(f"{workload}: seed {seed} was cut short by --seconds")
            for name, metric in result["metrics"].items():
                sets[which].setdefault(name, []).append(metric["value"])
        counts = [
            (pair[which]["attempted"], pair[which]["metrics"]["wire_bytes_per_op"]["value"])
            for which in (0, 1)
        ]
        if counts[0] != counts[1]:
            problems.append(
                f"{workload}: seed {seed}: (attempted, wire_bytes_per_op) "
                f"{counts[0]} != {counts[1]}"
            )
    print(f"## {workload}\n")
    print("| metric | median A | median B | gap | spread | bound | |")
    print("|---|---|---|---|---|---|---|")
    for metric in contract["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = sets[0][name], sets[1][name]
        gap = abs(statistics.median(b) - statistics.median(a)) / statistics.median(a)
        wide = spread(a + b)
        ok = gap <= bound and (name == "setup_s" or wide <= bound)
        if not ok:
            problems.append(f"{workload}/{name}: gap {gap:.4f}, spread {wide:.4f}")
        print(
            f"| {name} | {statistics.median(a):.6g} | {statistics.median(b):.6g} "
            f"| {gap:.4f} | {wide:.4f} | {bound} | {'ok' if ok else 'FAIL'} |"
        )
    return problems


def check_traced(workload: str, seed: int, seconds: float) -> list:
    problems = []
    pair = [run_once(workload, seed, seconds, trace=1) for _which in (0, 1)]
    for result, info in pair:
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        lost = sorted(name for name, value in metrics.items() if value is None)
        if lost:
            problems.append(f"{workload}: traced run has null metrics: {lost}")
        if not result["correct"] or info["capped"]:
            problems.append(f"{workload}: traced run had failed ops or was cut short")
        if not info["dominance_ok"]:
            problems.append(f"{workload}: layer dominance violated")
        if (metrics["trace.coverage_frac"] or 0.0) < COVERAGE_FLOOR:
            problems.append(
                f"{workload}: trace.coverage_frac {metrics['trace.coverage_frac']}"
            )
        print(
            f"\ntraced run: coverage {metrics['trace.coverage_frac']:.4f}, overhead "
            f"{metrics['trace.overhead_frac']:.4f}, dominant share "
            f"{info['dominance_share']:.3f}, layer dominance ok: {info['dominance_ok']}"
        )
    first, second = (result["metrics"] for result, _info in pair)
    for name in EXACT_LAYER_COUNTS:
        if first[name]["value"] != second[name]["value"]:
            problems.append(
                f"{workload}: {name} {first[name]['value']} != {second[name]['value']}"
            )
    print()
    return problems


def main(runs: int, first_seed: int, seconds: float) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    problems = []
    sys.stdout.reconfigure(line_buffering=True)  # a table as each workload ends
    print(f"# A/A self-check, K = {runs}, seeds from {first_seed}\n")
    for workload in (entry["name"] for entry in contract["workloads"]):
        problems += check_end_to_end(workload, contract, runs, first_seed, seconds)
        problems += check_traced(workload, first_seed, seconds)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0
