"""The scan against its row oracle: the differential contract.

The GMDJ scan (numpy vector kernels) must be *bit-identical* to the row
oracle of ``tests/oracle/`` — same rows in the same order, float folds
included — on every query family the repo reproduces (cube,
multifeature, unpivot), and while the recovery machinery is retrying
faulty legs.
"""

import contextlib

import pytest

from conftest import make_flows
from oracle import row_scan
from oracle.accumulate import ComponentAccumulator
from repro.distributed import OptimizationOptions, SimulatedCluster, execute_query
from repro.distributed.evaluator import ExecutionConfig
from repro.distributed.stats import verify_against_network
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.net import serialize
from repro.net.channel import DirectionStats
from repro.net.faults import FaultPlan
from repro.obs import Tracer
from repro.queries import (
    Feature,
    combine_lattice_results,
    combine_marginals,
    cube_lattice_queries,
    grand_total_expression,
    marginal_queries,
    multifeature_query,
)
from repro.queries.sql import parse_olap_statement
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.warehouse.partition import HashPartitioner

AGGS = [count_star("cnt"), AggSpec("sum", detail.NumBytes, "total")]


def build_cluster(site_count=3, faults=None):
    cluster = SimulatedCluster.with_sites(site_count)
    cluster.load_partitioned(
        "Flow",
        make_flows(count=300, seed=23, routers=site_count),
        HashPartitioner(["SourceAS"], site_count),
    )
    if faults is not None:
        cluster.install_faults(FaultPlan.parse(faults))
    return cluster


def config_for(**kwargs):
    kwargs.setdefault("retry_backoff_s", 0.0)
    return ExecutionConfig(**kwargs)


def run_expression(expression, config, cluster=None, **cluster_kwargs):
    cluster = cluster or build_cluster(**cluster_kwargs)
    result = execute_query(
        cluster, expression, OptimizationOptions.all(), config=config
    )
    assert verify_against_network(result.stats, cluster.network) == []
    return result


def cube_rows(config):
    """The full cube lattice + grand total, evaluated distributed."""
    cluster = build_cluster()
    results = {}
    for subset, expression in cube_lattice_queries(
        "Flow", ["SourceAS", "DestAS"], AGGS
    ):
        results[subset] = run_expression(expression, config, cluster).relation
        cluster.reset_network()
    total = run_expression(
        grand_total_expression("Flow", AGGS), config, cluster
    ).relation
    grand_total = total.project([spec.output for spec in AGGS])
    cube = combine_lattice_results(
        ["SourceAS", "DestAS"], AGGS, results, grand_total
    )
    return cube.rows


def multifeature_rows(config):
    """A two-feature cascade whose second feature correlates on the first."""
    expression = multifeature_query(
        "Flow",
        ["SourceAS"],
        [
            Feature([AggSpec("min", detail.NumBytes, "lo"), count_star("cnt")]),
            Feature(
                [AggSpec("sum", detail.NumBytes, "near_lo")],
                when=detail.NumBytes <= base.lo * 2.0,
            ),
        ],
    )
    return run_expression(expression, config).relation.rows


def unpivot_rows(config):
    """Marginals over both AS attributes, stacked."""
    cluster = build_cluster()
    attributes = ["SourceAS", "DestAS"]
    results = {}
    for attribute, expression in marginal_queries("Flow", attributes, AGGS):
        results[attribute] = run_expression(expression, config, cluster).relation
        cluster.reset_network()
    return combine_marginals(attributes, AGGS, results).rows


FAMILIES = {
    "cube": cube_rows,
    "multifeature": multifeature_rows,
    "unpivot": unpivot_rows,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_columnar_bit_identical_per_family(family):
    run = FAMILIES[family]
    with row_scan():
        oracle = run(config_for())
    assert run(config_for()) == oracle  # bit-identical, order included


def test_columnar_engine_survives_fault_retry_bit_identical():
    expression = multifeature_query(
        "Flow",
        ["SourceAS"],
        [Feature([count_star("cnt"), AggSpec("sum", detail.NumBytes, "total")])],
    )
    with row_scan():
        clean = run_expression(expression, config_for()).relation.rows
    faults = "drop site=site1 round=1 dir=up times=1"
    for scan in (row_scan, contextlib.nullcontext):
        cluster = build_cluster(faults=faults)
        with scan():
            retried = run_expression(
                expression,
                config_for(failure_mode="retry", max_retries=3),
                cluster,
            )
        assert retried.relation.rows == clean
        assert retried.stats.retries >= 1


def fine_groups_cluster():
    """``bench_e2e``'s S5 in small: groups on two attributes the data is not
    partitioned by, ``AVG``, then ``COUNT(*) WHERE x >= m`` — two rounds that
    each ship the whole base structure to both sites."""
    cluster = SimulatedCluster.with_sites(2)
    cluster.load_partitioned(
        "Flow", make_flows(count=300, seed=23, routers=2),
        HashPartitioner(["RouterId"], 2),
    )
    statement = parse_olap_statement(
        "SELECT SourceAS, DestAS, COUNT(*) AS cnt, AVG(NumBytes) AS m FROM Flow "
        "GROUP BY SourceAS, DestAS THEN SELECT COUNT(*) AS above WHERE NumBytes >= m"
    )
    return cluster, statement.expression


def test_each_shipped_block_is_encoded_once(monkeypatch):
    """Each shipped block is encoded once, watched or not: a tracer changes
    neither what is encoded nor what is shipped."""
    encodes, shipped = [], []
    encode, record = serialize.encode_relation, DirectionStats.record

    def counting_encode(relation):
        payload = encode(relation)
        encodes.append(payload[4])
        return payload

    def counting_record(self, message):
        shipped.append(message.payload is not None)
        return record(self, message)

    monkeypatch.setattr(serialize, "encode_relation", counting_encode)
    monkeypatch.setattr(DirectionStats, "record", counting_record)

    def run(tracer):
        cluster, expression = fine_groups_cluster()
        encodes.clear()
        shipped.clear()
        return execute_query(
            cluster, expression, OptimizationOptions.all(),
            config=ExecutionConfig(), tracer=tracer,
        ).stats

    stats = run(None)
    blocks = sum(shipped)
    assert blocks >= 6  # 2 sites x (base up, X down + H up, X down + H up)
    assert encodes == [3] * blocks  # format v3, the only one
    untraced = stats.to_dict()
    assert all("codec" not in record for record in untraced["rounds"])
    assert "wire codec" not in stats.summary()

    traced = run(Tracer())
    assert sum(shipped) == blocks
    assert encodes == [3] * blocks
    assert traced.bytes_total == stats.bytes_total
    snapshot = traced.to_dict()
    assert all("codec" not in record for record in snapshot["rounds"])
    assert "wire codec" not in traced.summary()


def test_unknown_engine_and_codec_are_rejected():
    with pytest.raises(TypeError):  # one scan: there is no engine to name
        ExecutionConfig(engine="row")
    with pytest.raises(TypeError):  # one wire format: no codec to name
        ExecutionConfig(wire_codec="parquet")


def test_default_path_builds_no_accumulator_objects(monkeypatch):
    """Aggregate state is component columns end to end.

    ``sync_heavy``'s shape — two non-partition grouping attributes, ``AVG``,
    then a correlated ``COUNT(*)``, so neither round is site-local and both
    go through ``SyncSession``. The row oracle still scans with one
    accumulator per (group, aggregate): the oracle is still the oracle.
    """
    key = (base.DestAS == detail.DestAS) & (base.RouterId == detail.RouterId)
    expression = GMDJExpression(
        DistinctBase("Flow", ["DestAS", "RouterId"]),
        [
            MDStep(
                "Flow",
                [MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], key)],
            ),
            MDStep(
                "Flow", [MDBlock([count_star("above")], key & (detail.NumBytes >= base.m))]
            ),
        ],
    )
    built = []
    original = ComponentAccumulator.__init__

    def counting(self, function):
        built.append(function)
        original(self, function)

    monkeypatch.setattr(ComponentAccumulator, "__init__", counting)
    columnar = run_expression(expression, config_for())
    assert columnar.stats.md_round_count() == 2  # no round was site-local
    assert built == []
    with row_scan():
        row = run_expression(expression, config_for())
    assert built
    assert row.relation.rows == columnar.relation.rows


# The benchmark's statements, spelled here so the suite does not import it:
# scan_heavy runs S1, sync_heavy S5, round_floor S1-S4 with the optimizer off,
# service_mixed the Flow statements (the FlowSmall one with a new literal
# every time).
S1_TO_S5 = (
    "SELECT NationKey, COUNT(*) AS cnt, AVG(Price) AS m FROM TPCR "
    "GROUP BY NationKey THEN SELECT COUNT(*) AS above WHERE Price >= m",
    "SELECT NationKey, OrderYear, COUNT(*) AS cnt, SUM(Price) AS revenue, "
    "MAX(Price) AS top FROM TPCR GROUP BY NationKey, OrderYear",
    "SELECT RegionKey, COUNT(*) AS cnt, SUM(Quantity) AS qty FROM TPCR GROUP BY RegionKey",
    "SELECT OrderMonth, COUNT(*) AS cnt, AVG(Quantity) AS q FROM TPCR "
    "GROUP BY OrderMonth THEN SELECT COUNT(*) AS above WHERE Quantity >= q",
    "SELECT PartKey, SuppKey, COUNT(*) AS cnt, AVG(Price) AS m FROM TPCR "
    "GROUP BY PartKey, SuppKey THEN SELECT COUNT(*) AS above WHERE Price >= m",
)
SERVICE_STATEMENTS = (
    "SELECT SourceAS, COUNT(*) AS cnt, SUM(NumPackets) AS packets FROM Flow GROUP BY SourceAS",
    "SELECT DestAS, COUNT(*) AS cnt, MAX(NumPackets) AS biggest FROM Flow GROUP BY DestAS",
    "SELECT RouterId, COUNT(*) AS flows, MIN(StartTime) AS first_seen FROM Flow GROUP BY RouterId",
    "SELECT SourceAS, DestAS, COUNT(*) AS cnt, SUM(NumBytes) AS volume "
    "FROM Flow GROUP BY SourceAS, DestAS",
    "SELECT SourceAS, COUNT(*) AS cnt, SUM(NumBytes) AS volume "
    "FROM FlowSmall WHERE StartTime >= 40000 GROUP BY SourceAS",
)


def test_benchmark_statements_never_leave_the_vector_path(monkeypatch):
    """Every scan of every benchmark statement is a vector kernel: no
    accumulator object is built, and the answers are the row oracle's,
    value for value."""
    from repro.data.flows import FlowConfig, generate_flows, router_partitioner
    from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner
    from repro.service import QueryService

    tpcr = SimulatedCluster.with_sites(2)
    tpcr.load_partitioned(
        "TPCR", generate_tpcr(TPCRConfig(scale=0.0005, seed=7)), nation_partitioner(2)
    )
    config = FlowConfig(flow_count=600, router_count=2)

    def answers():
        flows = SimulatedCluster.with_sites(2)  # appended to below: one per run
        for table in ("Flow", "FlowSmall"):
            flows.load_partitioned(table, generate_flows(config), router_partitioner(config))
        out = []
        for options in (OptimizationOptions.all(), OptimizationOptions.none()):
            for sql in S1_TO_S5:
                out.append(execute_query(
                    tpcr, parse_olap_statement(sql).expression, options,
                    config=ExecutionConfig(),
                ).relation)
        with QueryService(flows, ExecutionConfig()) as service:
            out.extend(service.submit(sql).relation for sql in SERVICE_STATEMENTS)
            delta = generate_flows(FlowConfig(flow_count=40, router_count=2, seed=5))
            service.append("Flow", dict(zip(flows.site_ids, router_partitioner(config).split(delta))))
            out.extend(service.submit(sql).relation for sql in SERVICE_STATEMENTS[:4])
        return [[repr(value) for value in row] for relation in out for row in relation.rows]

    with row_scan():
        expected = answers()

    def no_accumulators(self, function):
        raise AssertionError(f"an accumulator for {function.name}")

    monkeypatch.setattr(ComponentAccumulator, "__init__", no_accumulators)
    assert answers() == expected
