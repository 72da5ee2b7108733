"""Executor equivalence: the ``serial`` and ``sockets`` engines are indistinguishable.

The sockets engine (:mod:`repro.distributed.executor`) runs each site in
a site-server process and its legs at the same time; it must not change
*what* is computed, only how fast. For every cluster size both engines
run the same data — ``sockets`` on a :class:`ProcessCluster` deployed
from the simulated cluster ``serial`` runs on — and the final relation
must be bit-identical (same rows in the same order — the per-source
accumulator banks make float folds order-independent), the per-round
per-site byte accounting must match exactly (the Theorem-2 bound is
checked against these numbers), the trace must contain the same span
*set* (order may differ — legs finish when they finish), and the site
operator counters must agree.
"""

from collections import Counter

import pytest

from conftest import make_flows
from repro.distributed import SimulatedCluster, execute_query
from repro.distributed.deployment import ProcessCluster
from repro.distributed.evaluator import ExecutionConfig
from repro.distributed.executor import SocketEngine
from repro.distributed.stats import verify_against_network
from repro.errors import PlanError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
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


def run(expression, cluster, executor, row_block_size=0):
    tracer = Tracer()
    metrics = MetricsRegistry()
    cluster.reset_network(metrics)
    config = ExecutionConfig(executor=executor, row_block_size=row_block_size)
    result = execute_query(
        cluster, expression, config=config, tracer=tracer, metrics=metrics
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
def test_row_blocking_composes_with_executors(clusters, executor):
    """Blocked shipping (streaming absorb) stays equivalent in parallel."""
    cluster = clusters(4)[executor]
    whole, _tracer, _metrics = run(single_step_expression(), cluster, executor)
    blocked, _tracer, _metrics = run(
        single_step_expression(), cluster, executor, row_block_size=3
    )
    assert blocked.relation.rows == whole.relation.rows
    # Blocking moves more header bytes, never fewer payload tuples.
    assert blocked.stats.tuples_up == whole.stats.tuples_up
    assert blocked.stats.bytes_total >= whole.stats.bytes_total


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
