"""Executor equivalence: the ``serial`` and ``sockets`` transports are indistinguishable.

Over sockets the one engine (:mod:`repro.distributed.executor`) runs each
site in a site-server process and a round's legs at the same time; that
must not change *what* is computed, only how fast. For every cluster
size both transports run the same data — ``sockets`` on a
:class:`ProcessCluster` deployed from the simulated cluster ``serial``
runs on — and the final relation must be bit-identical (same rows in
the same order — the per-source accumulator banks make float folds
order-independent), the per-round
per-site byte accounting must match exactly (the Theorem-2 bound is
checked against these numbers), the trace must contain the same span
*set* (order may differ — legs finish when they finish), and the site
operator counters must agree.
"""

import selectors
from collections import Counter

import pytest

from conftest import make_flows
from repro.distributed import OptimizationOptions, SimulatedCluster, execute_query
from repro.distributed.deployment import ProcessCluster
from repro.distributed.evaluator import ExecutionConfig
from repro.distributed.executor import SocketEngine
from repro.distributed.recovery import FAILURE_MODES
from repro.distributed.stats import verify_against_network
from repro.errors import PlanError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.gmdj.operator import SyncSession
from repro.net.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.warehouse.partition import HashPartitioner

EXECUTORS = ("serial", "sockets")
SITE_COUNTS = (1, 4, 8)

FLOW = make_flows(count=240, seed=17, routers=8)
KEY1 = base.SourceAS == detail.SourceAS
KEY2 = (base.SourceAS == detail.SourceAS) & (base.DestAS == detail.DestAS)


def single_step_expression():
    step = MDStep(
        "Flow",
        [
            MDBlock(
                [
                    count_star("cnt"),
                    AggSpec("sum", detail.NumBytes, "total"),
                    AggSpec("avg", detail.NumBytes, "mean"),
                ],
                KEY1,
            )
        ],
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [step])


def correlated_expression():
    inner = MDStep(
        "Flow",
        [MDBlock([count_star("cnt"), AggSpec("sum", detail.NumBytes, "s")], KEY2)],
    )
    outer = MDStep(
        "Flow",
        [MDBlock([count_star("big")], KEY2 & (detail.NumBytes >= base.s / base.cnt))],
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS", "DestAS"]), [inner, outer])


def simulated(site_count):
    cluster = SimulatedCluster.with_sites(site_count)
    cluster.load_partitioned(
        "Flow", FLOW, HashPartitioner(["SourceAS"], site_count)
    )
    return cluster


@pytest.fixture(scope="module")
def site_count(request):
    """Module-scoped, so pytest runs a site count's tests together."""
    return request.param


@pytest.fixture(scope="module")
def clusters(tmp_path_factory):
    """``clusters(site_count)``: ``{executor: cluster}`` over the same
    partitions. One process cluster is kept, the one asked for last."""
    deployed = {}

    def over(site_count):
        if site_count not in deployed:
            for cluster in deployed.values():
                cluster.close()
            deployed.clear()
            root = tmp_path_factory.mktemp(f"sites{site_count}")
            deployed[site_count] = ProcessCluster.from_simulated(
                simulated(site_count), str(root)
            )
        return {"serial": simulated(site_count), "sockets": deployed[site_count]}

    yield over
    for cluster in deployed.values():
        cluster.close()


def run(expression, cluster, executor, options=None):
    tracer = Tracer()
    metrics = MetricsRegistry()
    cluster.reset_network(metrics)
    config = ExecutionConfig(executor=executor)
    result = execute_query(
        cluster, expression, options, config=config, tracer=tracer, metrics=metrics
    )
    assert verify_against_network(result.stats, cluster.network) == []
    return result, tracer, metrics


def observable_state(result, tracer, metrics):
    """Everything an executor must not change, in comparable form."""
    round_bytes = [
        (
            round_stats.index,
            round_stats.kind,
            tuple(
                sorted(
                    (site_id, site.bytes_down, site.bytes_up, site.tuples_up)
                    for site_id, site in round_stats.sites.items()
                )
            ),
        )
        for round_stats in result.stats.rounds
    ]
    span_set = Counter(
        (span.name, span.kind, span.attributes.get("site"))
        for span in tracer.spans
    )
    counters = {
        name: metrics.value_of(name)
        for name in ("gmdj.tuples_examined", "gmdj.tuples_emitted")
    }
    return result.relation.rows, round_bytes, span_set, counters


@pytest.mark.parametrize("site_count", SITE_COUNTS, indirect=True)
@pytest.mark.parametrize(
    "make_expression", [single_step_expression, correlated_expression]
)
def test_executors_are_observationally_identical(clusters, site_count, make_expression):
    over = clusters(site_count)
    rows, round_bytes, span_set, counters = observable_state(
        *run(make_expression(), over["serial"], "serial")
    )
    o_rows, o_bytes, o_spans, o_counters = observable_state(
        *run(make_expression(), over["sockets"], "sockets")
    )
    assert o_rows == rows, "result rows differ"
    assert o_bytes == round_bytes, "byte accounting differs"
    assert o_spans == span_set, "trace span set differs"
    assert o_counters == counters, "operator counters differ"


@pytest.mark.parametrize("executor", EXECUTORS)
def test_one_absorb_per_answering_source_per_round(clusters, executor, monkeypatch):
    """Each site's answer to a streaming round is one relation, folded
    once: ``bench_e2e`` counts ``coordinator.sync_rows_per_s`` from the
    relations handed to ``SyncSession.absorb``."""
    absorbed = []  # (session, source, rows); holding the session keeps it apart
    original = SyncSession.absorb

    def recording(self, h, source="", positions=None):
        absorbed.append((self, source, len(h)))
        original(self, h, source, positions)

    monkeypatch.setattr(SyncSession, "absorb", recording)
    cluster = clusters(4)[executor]
    result, _tracer, _metrics = run(
        correlated_expression(), cluster, executor, OptimizationOptions.none()
    )
    streaming = [stats for stats in result.stats.rounds if stats.kind != "base"]
    sessions = []
    for session, _source, _rows in absorbed:
        if not any(session is seen for seen in sessions):
            sessions.append(session)
    assert len(sessions) == len(streaming) == 2
    for session, round_stats in zip(sessions, streaming):
        sources = [source for seen, source, _rows in absorbed if seen is session]
        assert sorted(sources) == sorted(round_stats.sites) == sorted(cluster.site_ids)
    assert sum(rows for _session, _source, rows in absorbed) == result.stats.tuples_up_md()


#: Per in-process run: its recovery, its fault plan, and the order the
#: sites' answers to round 1 are absorbed in. A retry's backoff lets the
#: round's other legs run meanwhile, so the retried site comes last.
IN_PROCESS_RUNS = {
    "fail_fast": ({}, None, ["site0", "site1", "site2", "site3"]),
    "retry": (
        {"failure_mode": "retry", "retry_backoff_s": 0.001},
        "crash site=site1 round=1 times=1",
        ["site0", "site2", "site3", "site1"],
    ),
    "degrade": (
        {"failure_mode": "degrade", "max_retries": 0},
        "crash site=site1 round=1 times=0",
        ["site0", "site2", "site3"],
    ),
}


def test_only_socket_legs_build_a_selector_and_memory_legs_run_in_site_order(
    clusters, monkeypatch
):
    """A round over in-memory channels never waits on a socket, so it
    builds no selector, and its legs run one after another in site order;
    a round over sockets builds exactly one."""
    built = []
    original = selectors.DefaultSelector

    def counted():
        built.append(1)
        return original()

    absorbed = []  # (session, source)
    absorb = SyncSession.absorb

    def recording(self, h, source="", positions=None):
        absorbed.append((self, source))
        absorb(self, h, source, positions)

    monkeypatch.setattr(selectors, "DefaultSelector", counted)
    monkeypatch.setattr(SyncSession, "absorb", recording)
    over = clusters(4)
    for name, (recovery, faults, order) in IN_PROCESS_RUNS.items():
        cluster = simulated(4)
        if faults is not None:
            cluster.install_faults(FaultPlan.parse(faults))
        absorbed.clear()
        execute_query(
            cluster, correlated_expression(), OptimizationOptions.none(),
            config=ExecutionConfig(**recovery),
        )
        assert built == [], name
        first = absorbed[0][0]
        assert [source for session, source in absorbed if session is first] == order, name
    result, _tracer, _metrics = run(
        correlated_expression(), over["sockets"], "sockets", OptimizationOptions.none()
    )
    assert len(built) == len(result.stats.rounds) == 3


@pytest.mark.parametrize("failure_mode", FAILURE_MODES)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_transport_mismatch_is_refused_before_any_leg(clusters, executor, failure_mode):
    """``serial`` over socket channels, ``sockets`` over in-memory ones:
    one PlanError before a leg starts, in every failure mode. A
    configuration mistake is no transient fault to retry or degrade."""
    cluster = clusters(4)["sockets" if executor == "serial" else "serial"]
    cluster.reset_network(MetricsRegistry())
    with pytest.raises(PlanError, match="process cluster"):
        execute_query(
            cluster, single_step_expression(),
            config=ExecutionConfig(executor=executor, failure_mode=failure_mode),
        )
    assert cluster.network.bytes_by_direction() == (0, 0)
    if executor == "serial":
        totals = cluster.network.socket_totals()
        assert (totals["payload_down"], totals["payload_up"]) == (0, 0)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_stats_record_the_executor(clusters, executor):
    result, _tracer, _metrics = run(
        single_step_expression(), clusters(1)[executor], executor
    )
    assert result.stats.executor == executor
    assert result.stats.wall_time_s() > 0.0
    assert result.respects_theorem2()


def test_unknown_executor_is_rejected():
    with pytest.raises(PlanError):
        ExecutionConfig(executor="fibers")
    with pytest.raises(PlanError):
        ExecutionConfig(executor='threads')
    with pytest.raises(TypeError):
        ExecutionConfig(max_workers=1)


def test_sockets_over_a_simulated_cluster_is_refused_before_any_leg(monkeypatch):
    """One PlanError, raised before a leg starts, not one failure per site."""
    legs = []
    monkeypatch.setattr(SocketEngine, "run_legs", lambda *args: legs.append(args))
    with pytest.raises(PlanError, match="process cluster"):
        execute_query(
            simulated(4), single_step_expression(),
            config=ExecutionConfig(executor="sockets"),
        )
    assert legs == []
