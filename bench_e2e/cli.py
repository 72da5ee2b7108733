"""Command line of the benchmark: ``python3 -m bench_e2e --workload <name> ...``.

The first process only builds a clean environment and re-executes itself
in it: no ``REPRO_*`` variable of the caller reaches the program,
``PYTHONHASHSEED`` is 0 for the runner and every site server it spawns,
and ``PYTHONPATH`` points at this checkout's ``src``. The second process
makes the run's inputs in a short-lived child, measures, prints an
``info`` line and, last, the result line the driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build")
CHILD_ENV = "BENCH_E2E_CHILD"


def clean_environment() -> dict:
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env[CHILD_ENV] = "1"
    return env


def parse(argv):
    from bench_e2e.workloads import BY_NAME

    parser = argparse.ArgumentParser(prog="bench_e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=39.0,
        help="cap on the timed passes; their number is fixed per workload",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="1/50 data, 3 passes (smoke test)"
    )
    parser.add_argument(
        "--selfcheck", type=int, metavar="K", default=0,
        help="A/A: two interleaved sets of K runs per workload must agree",
    )
    args = parser.parse_args(argv)
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required")
    return args


def run(args) -> int:
    from bench_e2e import measure, sessions
    from bench_e2e.prepare import PREPARED
    from bench_e2e.workloads import BY_NAME, QUICK_PASSES, TRACE_PASSES

    workload = BY_NAME[args.workload]
    if args.quick:
        workload = workload.quick()
    directory = os.path.join(SCRATCH, f"bench_e2e-{os.getpid()}")
    os.makedirs(directory)
    # A terminated run still has to stop its site servers: turn SIGTERM
    # into an exception so every ``finally`` below runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        command = [
            sys.executable, "-m", "bench_e2e.prepare", "--workload", workload.name,
            "--seed", str(args.seed), "--dir", directory,
        ] + (["--quick"] if args.quick else [])
        subprocess.run(command, check=True, cwd=ROOT)
        with open(os.path.join(directory, PREPARED), "r", encoding="utf-8") as handle:
            prepared = json.load(handle)
        session = sessions.open_session(workload, args.seed, directory, prepared)
        if args.trace:
            from bench_e2e import tracing

            units = tracing.UNITS
            passes = QUICK_PASSES if args.quick else TRACE_PASSES
            result = tracing.run_traced(session, prepared, passes, args.seconds, directory)
        else:
            units = measure.UNITS
            passes = QUICK_PASSES if args.quick else workload.passes
            result = measure.run_end_to_end(session, prepared, passes, args.seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)  # only when no concurrent run still uses it
        except OSError:
            pass
    for warning in result["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    print("info: " + json.dumps(result["info"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench_e2e: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    if os.environ.get(CHILD_ENV) != "1":
        return subprocess.run(
            [sys.executable, "-m", "bench_e2e", *argv],
            env=clean_environment(),
            cwd=ROOT,
        ).returncode
    args = parse(argv)
    if args.selfcheck:
        from bench_e2e import selfcheck

        return selfcheck.main(args.selfcheck, args.seed, args.seconds)
    return run(args)
