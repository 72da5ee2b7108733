"""Quick-size runs of every workload through the real command line."""

import json
import os
import subprocess
import sys

import pytest

from bench_e2e import calibrate, measure, oracle, prepare, sessions, tracing
from bench_e2e.cli import ROOT, SCRATCH
from bench_e2e.workloads import BY_NAME, QUICK_PASSES, WARMUP_PASSES, WORKLOADS

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


def run_cli(*arguments) -> dict:
    completed = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "--quick", *arguments],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def site_server_processes() -> list:
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().decode("utf-8", "replace")
        except OSError:
            continue
        if "site-server" in command and SCRATCH in command:
            found.append(int(pid))
    return found


def assert_nothing_left_behind():
    assert site_server_processes() == []
    assert not os.path.isdir(SCRATCH) or os.listdir(SCRATCH) == []


def test_benchmark_json_lists_what_the_code_reports():
    assert [w["name"] for w in CONTRACT["workloads"]] == [w.name for w in WORKLOADS]
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == measure.UNITS
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == tracing.UNITS


def test_a_blip_in_one_kernel_sample_moves_no_pass():
    steady = [60.0] * 7
    blip = [60.0, 60.0, 60.0, 95.0, 60.0, 60.0, 60.0]
    assert calibrate.pass_scales(blip) == calibrate.pass_scales(steady) == [1.0] * 6
    slow = [90.0] * 7  # a machine 1.5x slower: every pass is scaled down
    assert calibrate.pass_scales(slow) == [pytest.approx(60.0 / 90.0)] * 6


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_quick_runs_report_every_metric_and_repeat_their_bytes(workload):
    first = run_cli("--workload", workload, "--seed", "5")
    second = run_cli("--workload", workload, "--seed", "5")
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {
            name: metric["unit"] for name, metric in result["metrics"].items()
        } == measure.UNITS
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert (
        first["metrics"]["wire_bytes_per_op"]["value"]
        == second["metrics"]["wire_bytes_per_op"]["value"]
    )
    ops_per_pass = BY_NAME[workload].ops_per_pass
    assert first["attempted"] == second["attempted"] == (
        (WARMUP_PASSES + QUICK_PASSES) * ops_per_pass
    )
    assert_nothing_left_behind()


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_quick_traced_runs_report_every_layer(workload):
    result = run_cli("--workload", workload, "--seed", "5", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} == tracing.UNITS
    assert all(metric["value"] is not None for metric in metrics.values())
    if workload == "service_mixed":
        assert metrics["socket.frames_per_op"]["value"] == 0
        assert metrics["service.hit_ratio"]["value"] > 0
    else:
        assert metrics["socket.frames_per_op"]["value"] > 0
        assert metrics["siteserver.requests_per_op"]["value"] > 0
        assert metrics["gmdj.kernel_ms"]["value"] > 0
    assert_nothing_left_behind()


@pytest.fixture
def quick_floor(tmp_path):
    workload = BY_NAME["round_floor"].quick()
    prepared = prepare.prepare(workload, 5, str(tmp_path))
    return sessions.open_session(workload, 5, str(tmp_path), prepared), prepared


def test_one_corrupted_expectation_is_exactly_one_failed_op(quick_floor):
    session, _prepared = quick_floor
    corrupted = session.workload.statements[1]
    session.expected[corrupted] = "0" * 32
    session.start()
    try:
        outcomes = session.run_pass(0)
    finally:
        session.close()
    assert session.check(0, outcomes) == 1
    assert oracle.checksum(outcomes[0].relation) == session.expected[outcomes[0].op]


def test_a_mid_run_exception_still_stops_the_site_servers(quick_floor):
    session, prepared = quick_floor
    seen = []
    check = session.check

    def failing_check(index, outcomes):
        seen.extend(session.site_pids().values())
        if index >= 3:
            raise RuntimeError("injected")
        return check(index, outcomes)

    session.check = failing_check
    with pytest.raises(RuntimeError, match="injected"):
        measure.run_end_to_end(session, prepared, QUICK_PASSES, 60.0)
    assert seen
    for pid in set(seen):
        assert not os.path.exists(f"/proc/{pid}")


def test_seconds_only_caps_the_fixed_number_of_passes(quick_floor):
    session, _prepared = quick_floor
    session.start()
    try:
        tally = measure.Tally()
        full = measure.run_passes(session, tally, QUICK_PASSES, 60.0, WARMUP_PASSES)
        cut = measure.run_passes(session, tally, QUICK_PASSES, 0.0, WARMUP_PASSES)
    finally:
        session.close()
    assert (len(full.raw_s), full.capped) == (QUICK_PASSES, False)
    assert (len(cut.raw_s), cut.capped) == (1, True)
    assert len(cut.kernel_ms) == len(cut.raw_s) + 1


def test_end_to_end_site_servers_never_load_the_benchmark(quick_floor):
    session, _prepared = quick_floor
    session.start()
    try:
        for pid in session.site_pids().values():
            with open(f"/proc/{pid}/environ", "rb") as handle:
                environ = handle.read().decode("utf-8", "replace")
            # sitehooks/sitecustomize.py is the only way in, and it needs both.
            assert tracing.TRACE_DIR_ENV not in environ
            assert tracing.SITEHOOKS not in environ
    finally:
        session.close()
