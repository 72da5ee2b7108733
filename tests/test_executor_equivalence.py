"""Executor equivalence: the in-process engines serial / threads are indistinguishable.

The parallel engines (:mod:`repro.distributed.executor`) must not change
*what* is computed, only how fast: for every cluster size and executor
the final relation must be bit-identical (same rows in the same order —
the per-source accumulator banks make float folds order-independent),
the per-round per-site byte accounting must match exactly (the Theorem-2
bound is checked against these numbers), and the trace must contain the
same span *set* (order may differ — legs finish when they finish).
"""

from collections import Counter

import pytest

from conftest import make_flows
from repro.distributed import SimulatedCluster, execute_query
from repro.distributed.evaluator import ExecutionConfig
from repro.distributed.stats import verify_against_network
from repro.errors import PlanError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.warehouse.partition import HashPartitioner

EXECUTORS = ("serial", "threads")
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


def run(expression, site_count, executor, row_block_size=0):
    cluster = SimulatedCluster.with_sites(site_count)
    cluster.load_partitioned(
        "Flow", FLOW, HashPartitioner(["SourceAS"], site_count)
    )
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


@pytest.mark.parametrize("site_count", SITE_COUNTS)
@pytest.mark.parametrize(
    "make_expression", [single_step_expression, correlated_expression]
)
def test_executors_are_observationally_identical(site_count, make_expression):
    expression = make_expression()
    rows, round_bytes, span_set, counters = observable_state(
        *run(expression, site_count, "serial")
    )
    for executor in EXECUTORS[1:]:
        o_rows, o_bytes, o_spans, o_counters = observable_state(
            *run(make_expression(), site_count, executor)
        )
        assert o_rows == rows, f"{executor}: result rows differ"
        assert o_bytes == round_bytes, f"{executor}: byte accounting differs"
        assert o_spans == span_set, f"{executor}: trace span set differs"
        assert o_counters == counters, f"{executor}: operator counters differ"


@pytest.mark.parametrize("executor", EXECUTORS)
def test_row_blocking_composes_with_executors(executor):
    """Blocked shipping (streaming absorb) stays equivalent in parallel."""
    whole, _tracer, _metrics = run(single_step_expression(), 4, executor)
    blocked, _tracer, _metrics = run(
        single_step_expression(), 4, executor, row_block_size=3
    )
    assert blocked.relation.rows == whole.relation.rows
    # Blocking moves more header bytes, never fewer payload tuples.
    assert blocked.stats.tuples_up == whole.stats.tuples_up
    assert blocked.stats.bytes_total >= whole.stats.bytes_total


@pytest.mark.parametrize("executor", EXECUTORS)
def test_stats_record_the_executor(executor):
    result, _tracer, _metrics = run(single_step_expression(), 1, executor)
    assert result.stats.executor == executor
    assert result.stats.wall_time_s() > 0.0
    assert result.respects_theorem2()


def test_unknown_executor_is_rejected():
    with pytest.raises(PlanError):
        ExecutionConfig(executor="fibers")
    with pytest.raises(PlanError):
        ExecutionConfig(max_workers=-1)
