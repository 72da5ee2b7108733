"""Fault injection, retry/degradation, and failure-path regressions.

Covers the recovery subsystem end to end: the FaultPlan spec formats and
faulted-channel semantics per fault kind, message/bookkeeper validation,
the evaluator's fail_fast / retry / degrade modes (including the
acceptance scenario: drop + crash-for-two-rounds on one of four sites),
and the executor failure paths (all failed sites reported, no leaked
pools).
"""

from __future__ import annotations

import pytest

from conftest import make_flows
from repro.distributed import OptimizationOptions, SimulatedCluster, execute_query
from repro.distributed import evaluator as evaluator_module
from repro.distributed.evaluator import ExecutionConfig
from repro.distributed.executor import SerialEngine, SocketEngine, create_engine, run_inline
from repro.distributed.recovery import EXCLUDED, RetryPolicy, guard_leg
from repro.distributed.stats import RoundStats, verify_against_network
from repro.errors import (
    FaultSpecError,
    MultiLegError,
    NetworkError,
    PlanError,
    RetryExhaustedError,
    SerializationError,
    SiteUnavailableError,
)
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.net import serialize
from repro.net.channel import Channel, Network
from repro.net.faults import (
    FaultEvent,
    FaultPlan,
    FaultInjector,
    FaultRule,
    corrupt_payload,
)
from repro.net.message import BASE_QUERY, HEADER_BYTES, SUB_RESULT, Message
from repro.obs.tracer import NULL_TRACER
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema
from repro.warehouse.partition import HashPartitioner

# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def test_dsl_parses_rules_and_round_ranges():
    plan = FaultPlan.parse(
        "drop site=site1 round=1 dir=up; crash site=site1 rounds=1-2 times=4"
    )
    assert len(plan) == 2
    drop, crash = plan.rules
    assert (drop.kind, drop.site, drop.rounds, drop.direction, drop.times) == (
        "drop", "site1", (1,), "up", 1
    )
    assert (crash.kind, crash.rounds, crash.times) == ("crash", (1, 2), 4)


def test_json_and_file_specs_roundtrip(tmp_path):
    plan = FaultPlan.parse("delay site=s0 round=2 dir=down delay=0.5; duplicate")
    text = __import__("json").dumps(plan.to_dicts())
    assert FaultPlan.parse(text).rules == plan.rules

    path = tmp_path / "faults.json"
    path.write_text(text, encoding="utf-8")
    assert FaultPlan.load(str(path)).rules == plan.rules
    assert FaultPlan.from_any(str(path)).rules == plan.rules
    assert FaultPlan.from_any("corrupt site=s1").rules == (
        FaultRule("corrupt", site="s1"),
    )


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "explode site=s0",
        "drop round=oops",
        "drop rounds=5-2",
        "drop times=-1",
        "drop site",
        "drop dir=sideways",
        "[{\"site\": \"s0\"}]",
        "[{\"kind\": \"drop\", \"sideways\": 1}]",
    ],
)
def test_malformed_specs_are_rejected(bad):
    with pytest.raises(FaultSpecError):
        FaultPlan.parse(bad)


def test_scatter_is_deterministic_in_seed():
    sites = ("s0", "s1", "s2")
    first = FaultPlan.scatter(sites, seed=7, rounds=4, drop=0.3, corrupt=0.2)
    again = FaultPlan.scatter(sites, seed=7, rounds=4, drop=0.3, corrupt=0.2)
    other = FaultPlan.scatter(sites, seed=8, rounds=4, drop=0.3, corrupt=0.2)
    assert first.rules == again.rules
    assert first.rules != other.rules
    assert all(rule.kind in ("drop", "corrupt") for rule in first.rules)


def test_rule_matching_honours_site_round_direction():
    rule = FaultRule("drop", site="s1", rounds=(1, 2), direction="up")
    assert rule.matches("s1", 1, "up")
    assert not rule.matches("s0", 1, "up")
    assert not rule.matches("s1", 3, "up")
    assert not rule.matches("s1", 1, "down")
    anywhere = FaultRule("corrupt")
    assert anywhere.matches("s9", 17, "down")


# ---------------------------------------------------------------------------
# Faulted-channel semantics per kind
# ---------------------------------------------------------------------------

TINY = Relation(Schema.of(("K", INT)), [(1,), (2,)])


def _channel(spec: str) -> Channel:
    return Channel("s0", faults=FaultPlan.parse(spec))


def _down(round_index: int = 0, payload=None) -> Message:
    return Message(BASE_QUERY, "coordinator", "s0", round_index, payload)


def _up(round_index: int = 0, payload=None) -> Message:
    return Message(SUB_RESULT, "s0", "coordinator", round_index, payload)


def test_drop_charges_bytes_but_never_delivers():
    channel = _channel("drop site=s0 round=0 dir=down times=1")
    message = _down()
    channel.send_to_site(message)
    assert channel.downstream.bytes == message.size_bytes  # lost in flight
    with pytest.raises(NetworkError):
        channel.receive_at_site()
    assert channel.events == [FaultEvent("drop", "s0", 0, "down")]
    # The rule's budget is spent: the next message sails through.
    channel.send_to_site(_down())
    assert channel.receive_at_site().kind == BASE_QUERY


def test_delay_fails_one_receive_then_delivers():
    channel = _channel("delay site=s0 round=0 dir=down")
    channel.send_to_site(_down())
    with pytest.raises(NetworkError, match="delayed in flight"):
        channel.receive_at_site()
    assert channel.receive_at_site().kind == BASE_QUERY


def test_duplicate_copy_is_deduplicated_and_charged_separately():
    channel = _channel("duplicate site=s0 dir=up")
    message = _up(payload=serialize.encode_relation(TINY))
    channel.send_to_coordinator(message)
    assert channel.upstream.bytes == message.size_bytes  # stats see one copy
    assert (
        channel.metrics.counter(
            "net.fault.bytes", kind="duplicate", site="s0"
        ).value
        == message.size_bytes
    )
    assert channel.receive_at_coordinator() is message
    with pytest.raises(NetworkError):  # the copy was silently de-duplicated
        channel.receive_at_coordinator()
    assert channel.metrics.counter("net.fault.deduplicated", site="s0").value == 1


def test_corrupt_payload_fails_decode_loudly():
    channel = _channel("corrupt site=s0 dir=up")
    payload = serialize.encode_relation(TINY)
    channel.send_to_coordinator(_up(payload=payload))
    received = channel.receive_at_coordinator()
    assert received.size_bytes == HEADER_BYTES + len(payload)  # length preserved
    with pytest.raises(SerializationError):
        received.relation()
    assert serialize.decode_relation(corrupt_payload(corrupt_payload(payload)))


def test_corrupt_skips_header_only_messages():
    channel = _channel("corrupt site=s0")
    channel.send_to_site(_down())  # no payload: nothing to corrupt
    assert channel.receive_at_site().kind == BASE_QUERY
    assert channel.events == []


def test_crash_dooms_whole_attempts_until_budget_spent():
    channel = _channel("crash site=s0 rounds=1-1 times=2")
    for _attempt in range(2):
        channel.begin_attempt(1)
        with pytest.raises(SiteUnavailableError):
            channel.send_to_site(_down(1))
        with pytest.raises(SiteUnavailableError):
            channel.receive_at_coordinator()
    channel.begin_attempt(1)  # budget spent: the site is back
    channel.send_to_site(_down(1))
    assert channel.receive_at_site().kind == BASE_QUERY
    assert channel.events == [FaultEvent("crash", "s0", 1, "*")] * 2


def test_network_builds_faulty_channels_and_collects_events():
    plan = FaultPlan.parse("drop site=a round=0 dir=down times=1")
    network = Network(("a", "b"), faults=plan)
    assert isinstance(network.channel("a").policy, FaultInjector)
    network.channel("a").send_to_site(Message(BASE_QUERY, "coordinator", "a", 0))
    network.channel("b").send_to_site(Message(BASE_QUERY, "coordinator", "b", 0))
    assert network.fault_events() == [FaultEvent("drop", "a", 0, "down")]
    assert network.channel("b").receive_at_site().kind == BASE_QUERY


def test_drain_pending_discards_both_directions():
    channel = Channel("s0", faults=FaultPlan.parse("delay site=s0 dir=down"))
    channel.send_to_site(_down())
    channel.send_to_coordinator(_up())
    assert channel.drain_pending() == 2
    with pytest.raises(NetworkError):
        channel.receive_at_site()


# ---------------------------------------------------------------------------
# Message & bookkeeper validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad_round", [-1, True, 1.5, None])
def test_message_rejects_malformed_round_index(bad_round):
    with pytest.raises(SerializationError):
        Message(BASE_QUERY, "coordinator", "s0", bad_round)


def test_message_rejects_bad_payload_and_empty_endpoints():
    with pytest.raises(SerializationError):
        Message(BASE_QUERY, "coordinator", "s0", 0, payload="text")
    with pytest.raises(SerializationError):
        Message(BASE_QUERY, "", "s0", 0)
    with pytest.raises(SerializationError):
        Message(BASE_QUERY, "coordinator", "", 0)


class _ForgedMessage:
    """A duck-typed message whose header lies about its size."""

    kind = SUB_RESULT
    sender = "s0"
    recipient = "coordinator"
    payload = b"abc"
    info: dict = {}

    def __init__(self, round_index=0, size_bytes=HEADER_BYTES + 3):
        self.round_index = round_index
        self.size_bytes = size_bytes


def test_direction_stats_rejects_inconsistent_size():
    channel = Channel("s0", faults=FaultPlan())
    with pytest.raises(NetworkError, match="malformed message"):
        channel.send_to_coordinator(_ForgedMessage(size_bytes=999))
    with pytest.raises(NetworkError, match="malformed message"):
        channel.send_to_coordinator(_ForgedMessage(round_index=-2))
    # Nothing was recorded or queued by the rejected sends.
    assert channel.upstream.bytes == 0
    assert channel.upstream.bytes_in_round(0) == 0
    with pytest.raises(NetworkError):
        channel.receive_at_coordinator()


# ---------------------------------------------------------------------------
# Retry policy unit behaviour
# ---------------------------------------------------------------------------


def test_retry_policy_validation_and_backoff_cap():
    with pytest.raises(ValueError):
        RetryPolicy(mode="panic")
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    policy = RetryPolicy(mode="retry", max_retries=3, backoff_s=0.1)
    assert policy.attempts == 4
    assert policy.backoff_for(0) == pytest.approx(0.1)
    assert policy.backoff_for(2) == pytest.approx(0.4)
    assert policy.backoff_for(50) == pytest.approx(0.1 * 32)  # capped
    assert RetryPolicy(mode="fail_fast").attempts == 1


def never_waits(function):
    """A leg generator that runs ``function`` and never waits."""

    def leg(site_id):
        return function(site_id)
        yield  # unreachable: makes ``leg`` a generator

    return leg


def test_guard_leg_sleeps_backoff_and_heals():
    network = Network(
        ("s0",), faults=FaultPlan.parse("crash site=s0 round=0 times=2")
    )
    round_stats = RoundStats(0, "md")
    sleeps = []

    @never_waits
    def leg(site_id):
        network.channel(site_id).send_to_site(_down())
        return "ok"

    guarded = guard_leg(
        leg,
        policy=RetryPolicy(mode="retry", max_retries=3, backoff_s=0.25),
        network=network,
        round_index=0,
        round_stats=round_stats,
        tracer=NULL_TRACER,
    )
    assert run_inline(guarded("s0"), sleep=sleeps.append) == "ok"
    assert sleeps == [0.25, 0.5]
    assert round_stats.site("s0").retries == 2
    assert network.metrics.counter("net.retry.attempts", site="s0").value == 2


def test_guard_leg_caps_backoff_by_remaining_budget():
    """A backoff larger than the remaining wall-clock budget is capped,
    not treated as exhaustion: the leg spends its whole timeout retrying.

    Regression test for the early-give-up defect where
    ``0 < remaining < backoff`` abandoned the leg with budget left.
    """
    network = Network(
        ("s0",), faults=FaultPlan.parse("crash site=s0 times=0")  # down forever
    )
    round_stats = RoundStats(0, "md")
    now = [0.0]
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        now[0] += seconds

    @never_waits
    def leg(site_id):
        network.channel(site_id).send_to_site(_down())

    guarded = guard_leg(
        leg,
        policy=RetryPolicy(
            mode="retry", max_retries=10_000, backoff_s=0.4, leg_timeout_s=1.0
        ),
        network=network,
        round_index=0,
        round_stats=round_stats,
        tracer=NULL_TRACER,
        clock=lambda: now[0],
    )
    with pytest.raises(RetryExhaustedError) as excinfo:
        run_inline(guarded("s0"), sleep=fake_sleep)
    # Backoffs 0.4 then 0.8-capped-to-0.6 fill the 1.0s budget exactly;
    # the third attempt runs at t=1.0 and only then is the leg exhausted.
    assert sleeps == [pytest.approx(0.4), pytest.approx(0.6)]
    assert excinfo.value.attempts == 3
    assert isinstance(excinfo.value.cause, SiteUnavailableError)


def test_guard_leg_never_sleeps_after_final_attempt():
    """Once the attempt budget is spent the leg raises immediately — a
    trailing backoff sleep would only delay the failure."""
    network = Network(
        ("s0",), faults=FaultPlan.parse("crash site=s0 times=0")
    )
    round_stats = RoundStats(0, "md")
    sleeps = []

    @never_waits
    def leg(site_id):
        network.channel(site_id).send_to_site(_down())

    guarded = guard_leg(
        leg,
        policy=RetryPolicy(mode="retry", max_retries=1, backoff_s=0.25),
        network=network,
        round_index=0,
        round_stats=round_stats,
        tracer=NULL_TRACER,
    )
    with pytest.raises(RetryExhaustedError) as excinfo:
        run_inline(guarded("s0"), sleep=sleeps.append)
    assert excinfo.value.attempts == 2
    # One sleep between the two attempts, none after the final failure.
    assert sleeps == [pytest.approx(0.25)]


def test_guard_leg_does_not_retry_programming_errors():
    network = Network(("s0",))
    calls = []

    @never_waits
    def leg(site_id):
        calls.append(site_id)
        raise ZeroDivisionError("bug, not weather")

    guarded = guard_leg(
        leg,
        policy=RetryPolicy(mode="retry", max_retries=5, backoff_s=0.0),
        network=network,
        round_index=0,
        round_stats=RoundStats(0, "md"),
        tracer=NULL_TRACER,
    )
    with pytest.raises(ZeroDivisionError):
        run_inline(guarded("s0"))
    assert calls == ["s0"]


# ---------------------------------------------------------------------------
# End-to-end: the acceptance scenario
# ---------------------------------------------------------------------------

FLOW = make_flows(count=240, seed=17, routers=8)
KEY = (base.SourceAS == detail.SourceAS) & (base.DestAS == detail.DestAS)

#: drop one sub-result + crash one of four sites for two rounds. ``times``
#: counts doomed leg attempts: 4 = two rounds under degrade's two-attempt
#: budget; retry's six-attempt budget burns through it within round 1.
ACCEPTANCE_SPEC = (
    "drop site=site1 round=1 dir=up times=1; "
    "crash site=site1 rounds=1-2 times=4"
)


def correlated_expression():
    inner = MDStep(
        "Flow",
        [MDBlock([count_star("cnt"), AggSpec("sum", detail.NumBytes, "s")], KEY)],
    )
    outer = MDStep(
        "Flow",
        [MDBlock([count_star("big")], KEY & (detail.NumBytes >= base.s / base.cnt))],
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS", "DestAS"]), [inner, outer])


def run_faulty(
    executor="serial", faults=None, site_count=4, retry_backoff_s=0.0, **config_kwargs
):
    cluster = SimulatedCluster.with_sites(site_count)
    cluster.load_partitioned(
        "Flow", FLOW, HashPartitioner(["SourceAS"], site_count)
    )
    if faults is not None:
        plan = faults if isinstance(faults, FaultPlan) else FaultPlan.parse(faults)
        cluster.install_faults(plan)
    config = ExecutionConfig(
        executor=executor, retry_backoff_s=retry_backoff_s, **config_kwargs
    )
    result = execute_query(
        cluster,
        correlated_expression(),
        options=OptimizationOptions.none(),
        config=config,
    )
    assert verify_against_network(result.stats, cluster.network) == []
    return result


def test_retry_mode_heals_to_bit_identical_result():
    clean = run_faulty()
    retried = run_faulty(
        faults=ACCEPTANCE_SPEC, failure_mode="retry", max_retries=5
    )
    assert retried.relation.rows == clean.relation.rows  # bit-identical
    assert retried.stats.retries == 5
    assert retried.stats.fault_count == 5  # 4 crash attempts + 1 drop
    assert retried.stats.excluded_sites == ()
    assert not retried.stats.degraded


def test_degrade_mode_records_the_excluded_site():
    clean = run_faulty()
    degraded = run_faulty(
        faults=ACCEPTANCE_SPEC, failure_mode="degrade", max_retries=1
    )
    assert degraded.stats.excluded_sites == ((1, "site1"), (2, "site1"))
    assert degraded.stats.degraded
    assert degraded.relation.rows != clean.relation.rows  # under-approximation
    snapshot = degraded.stats.to_dict()
    assert snapshot["excluded_sites"] == [[1, "site1"], [2, "site1"]]
    assert snapshot["failure_mode"] == "degrade"
    assert "EXCLUDED=site1" in degraded.stats.summary()


def test_fail_fast_mode_propagates_the_crash():
    with pytest.raises(SiteUnavailableError):
        run_faulty(faults=ACCEPTANCE_SPEC, failure_mode="fail_fast")


def test_retry_exhaustion_raises_with_site_and_cause():
    with pytest.raises(RetryExhaustedError) as excinfo:
        run_faulty(
            faults="crash site=site2 round=1 times=0",
            failure_mode="retry",
            max_retries=2,
        )
    assert excinfo.value.site_id == "site2"
    assert excinfo.value.attempts == 3


def test_all_sites_excluded_is_a_loud_plan_error():
    with pytest.raises(PlanError, match="every participating site"):
        run_faulty(
            faults="crash round=1 times=0",  # every site, forever
            failure_mode="degrade",
            max_retries=0,
        )


def test_degrade_survives_a_base_round_crash():
    clean = run_faulty()
    degraded = run_faulty(
        faults="crash site=site3 round=0 times=0",
        failure_mode="degrade",
        max_retries=1,
    )
    assert (0, "site3") in degraded.stats.excluded_sites
    assert len(degraded.relation) <= len(clean.relation)


# ---------------------------------------------------------------------------
# Executor failure paths: all failures reported, the engine closed
# ---------------------------------------------------------------------------


def _crash_some_legs(engine, failing):
    @never_waits
    def leg(site_id):
        if site_id in failing:
            raise NetworkError(f"{site_id} went dark")
        return site_id

    return engine.run_legs(tuple(sorted(failing | {"ok1", "ok2"})), leg)


@pytest.mark.parametrize("executor", ["serial", "sockets"])
def test_socket_engine_reports_every_failed_site(executor):
    # The round needs no channel: the legs here never reach one. A failed
    # leg stops none of the others, whichever transport the engine is for.
    engine = (SocketEngine if executor == "sockets" else SerialEngine)()
    try:
        with pytest.raises(MultiLegError) as excinfo:
            _crash_some_legs(engine, failing={"bad1", "bad2"})
        assert excinfo.value.failed_sites == ("bad1", "bad2")
        assert {
            type(error).__name__ for error in excinfo.value.failures.values()
        } == {"NetworkError"}
    finally:
        engine.close()


def test_single_failure_keeps_its_original_exception_type():
    # Every leg runs whatever the others do, so a lone failure re-raises
    # its original exception.
    engine = SerialEngine()
    try:
        with pytest.raises(NetworkError, match="bad1 went dark"):
            _crash_some_legs(engine, failing={"bad1"})
    finally:
        engine.close()


@pytest.mark.parametrize("legs", ["serial", "interleaved"])
def test_evaluator_closes_engine_when_a_leg_crashes(legs, monkeypatch):
    # Two sites crash for good, so both fail in the same round: the legs
    # run one after another under fail_fast, and interleave under retry,
    # where a leg's backoff lets the round's other legs run meanwhile.
    engines = []

    def tracked_engine(executor, network):
        engine = create_engine(executor, network)
        engines.append(engine)
        return engine

    monkeypatch.setattr(evaluator_module, "create_engine", tracked_engine)
    recovery = (
        {"failure_mode": "fail_fast"}
        if legs == "serial"
        else {"failure_mode": "retry", "max_retries": 1, "retry_backoff_s": 0.01}
    )
    with pytest.raises(MultiLegError) as excinfo:
        run_faulty(faults="crash site=site0 times=0; crash site=site2 times=0", **recovery)
    assert excinfo.value.failed_sites == ("site0", "site2")
    failure = SiteUnavailableError if legs == "serial" else RetryExhaustedError
    assert {type(error) for error in excinfo.value.failures.values()} == {failure}
    assert len(engines) == 1 and engines[0]._closed


def test_multi_leg_error_message_lists_sites_and_causes():
    error = MultiLegError({"s2": NetworkError("boom"), "s0": ValueError("bad")})
    assert error.failed_sites == ("s0", "s2")
    assert "s0: ValueError: bad" in str(error)
    assert "s2: NetworkError: boom" in str(error)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_execution_config_validates_recovery_knobs():
    with pytest.raises(PlanError):
        ExecutionConfig(failure_mode="hope")
    with pytest.raises(PlanError):
        ExecutionConfig(max_retries=-1)
    with pytest.raises(PlanError):
        ExecutionConfig(retry_backoff_s=-0.1)
    with pytest.raises(PlanError):
        ExecutionConfig(leg_timeout_s=-1.0)
    policy = ExecutionConfig(
        failure_mode="degrade", max_retries=7, retry_backoff_s=0.0
    ).retry_policy()
    assert (policy.mode, policy.max_retries) == ("degrade", 7)


def test_fault_free_run_records_no_recovery_activity():
    result = run_faulty(failure_mode="retry", max_retries=3)
    assert result.stats.retries == 0
    assert result.stats.fault_count == 0
    assert result.stats.excluded_sites == ()
    assert "recovery" not in result.stats.summary()
