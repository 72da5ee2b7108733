"""Row/columnar engine equivalence: the differential-oracle contract.

The columnar engine (vectorized batch kernels, ``--engine columnar``)
must be *bit-identical* to the row engine — same rows in the same order,
float folds included — on every query family the repo reproduces (cube,
multifeature, unpivot), under every executor, under both wire codecs,
and while the recovery machinery is retrying faulty legs. The row engine
is never removed: it is the oracle these tests diff against.
"""

import pytest

from conftest import make_flows
from repro.distributed import OptimizationOptions, SimulatedCluster, execute_query
from repro.distributed.evaluator import ExecutionConfig
from repro.distributed.executor import SiteRequest
from repro.distributed.stats import verify_against_network
from repro.errors import PlanError
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
from repro.relalg.aggregates import AggSpec, ComponentAccumulator, count_star
from repro.relalg.engine import DEFAULT_ENGINE, active_engine, use_engine
from repro.relalg.expressions import base, detail
from repro.warehouse.partition import HashPartitioner

EXECUTORS = ("serial", "threads", "processes")
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


def config_for(engine, executor="serial", wire_codec="row", **kwargs):
    kwargs.setdefault("retry_backoff_s", 0.0)
    return ExecutionConfig(
        executor=executor, engine=engine, wire_codec=wire_codec, **kwargs
    )


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
@pytest.mark.parametrize("executor", EXECUTORS)
def test_columnar_bit_identical_per_family_and_executor(family, executor):
    run = FAMILIES[family]
    oracle = run(config_for("row", executor="serial"))
    columnar = run(config_for("columnar", executor=executor))
    assert columnar == oracle  # bit-identical, order included


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_column_codec_does_not_change_any_family(family):
    run = FAMILIES[family]
    oracle = run(config_for("row", wire_codec="row"))
    for engine in ("row", "columnar"):
        assert run(config_for(engine, wire_codec="column")) == oracle


@pytest.mark.parametrize("executor", ("serial", "threads"))
def test_columnar_engine_survives_fault_retry_bit_identical(executor):
    expression = multifeature_query(
        "Flow",
        ["SourceAS"],
        [Feature([count_star("cnt"), AggSpec("sum", detail.NumBytes, "total")])],
    )
    clean = run_expression(
        expression, config_for("row", executor="serial")
    ).relation.rows
    faults = "drop site=site1 round=1 dir=up times=1"
    for engine in ("row", "columnar"):
        for codec in ("row", "column"):
            cluster = build_cluster(faults=faults)
            retried = run_expression(
                expression,
                config_for(
                    engine,
                    executor=executor,
                    wire_codec=codec,
                    failure_mode="retry",
                    max_retries=3,
                ),
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

    def counting_encode(relation, codec=serialize.DEFAULT_CODEC):
        encodes.append(codec)
        return encode(relation, codec)

    def counting_record(self, message):
        shipped.append(message.payload is not None)
        return record(self, message)

    monkeypatch.setattr(serialize, "encode_relation", counting_encode)
    monkeypatch.setattr(DirectionStats, "record", counting_record)
    monkeypatch.delenv("REPRO_CODEC", raising=False)

    def run(tracer):
        cluster, expression = fine_groups_cluster()
        encodes.clear()
        shipped.clear()
        return execute_query(
            cluster, expression, OptimizationOptions.all(),
            config=ExecutionConfig(), tracer=tracer,
        ).stats

    stats = run(None)
    assert stats.wire_codec == serialize.DEFAULT_CODEC == "column"
    blocks = sum(shipped)
    assert blocks >= 6  # 2 sites x (base up, X down + H up, X down + H up)
    assert encodes == ["column"] * blocks
    untraced = stats.to_dict()
    assert all("codec" not in record for record in untraced["rounds"])
    assert "wire codec" not in stats.summary()

    traced = run(Tracer())
    assert sum(shipped) == blocks
    assert encodes == ["column"] * blocks
    assert traced.bytes_total == stats.bytes_total
    snapshot = traced.to_dict()
    assert snapshot["wire_codec"] == "column"
    assert all("codec" not in record for record in snapshot["rounds"])
    assert "wire codec" not in traced.summary()


def test_row_codec_stats_stay_unchanged():
    expression = multifeature_query("Flow", ["SourceAS"], [Feature(AGGS)])
    snapshot = run_expression(
        expression, config_for("row", wire_codec="row")
    ).stats.to_dict()
    assert snapshot["wire_codec"] == "row"
    assert all("codec" not in record for record in snapshot["rounds"])


def test_unknown_engine_and_codec_are_rejected():
    with pytest.raises(PlanError):
        ExecutionConfig(engine="gpu")
    with pytest.raises(PlanError):
        ExecutionConfig(wire_codec="parquet")


def test_use_engine_restores_previous_engine():
    ambient = active_engine()  # honours $REPRO_ENGINE, defaults to "columnar"
    with use_engine("columnar"):
        assert active_engine() == "columnar"
        with use_engine("row"):
            assert active_engine() == "row"
        assert active_engine() == "columnar"
    assert active_engine() == ambient


def test_one_default_engine_and_the_environment_overrides_it(monkeypatch):
    def request(**fields):
        return SiteRequest(kind="base", site_id="site0", round_number=0, **fields)

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert DEFAULT_ENGINE == "columnar"
    assert ExecutionConfig().engine == DEFAULT_ENGINE
    assert request().engine == DEFAULT_ENGINE
    assert active_engine() == DEFAULT_ENGINE
    assert "engine" not in request(engine=ExecutionConfig().engine).control()

    monkeypatch.setenv("REPRO_ENGINE", "row")
    assert ExecutionConfig().engine == "row"
    assert active_engine() == "row"
    # The site hears what the coordinator's environment chose: the REQ body
    # leaves a field out when it equals the constant, not the environment.
    assert request(engine=ExecutionConfig().engine).control()["engine"] == "row"


def test_default_path_builds_no_accumulator_objects(monkeypatch):
    """Aggregate state is component columns end to end under the default engine.

    ``sync_heavy``'s shape — two non-partition grouping attributes, ``AVG``,
    then a correlated ``COUNT(*)``, so neither round is site-local and both
    go through ``SyncSession``. The row engine still scans with one
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
    columnar = run_expression(expression, config_for(DEFAULT_ENGINE))
    assert columnar.stats.md_round_count() == 2  # no round was site-local
    assert built == []
    row = run_expression(expression, config_for("row"))
    assert built
    assert row.relation.rows == columnar.relation.rows
