"""Tests for distribution-knowledge harvesting (Section 4.1's refinement).

An attribute that is NOT a partition attribute can still drive
distribution-aware group reduction when each of its values occurs at only
a few sites: harvesting records the observed per-site value sets as φᵢ.
"""

import random

import pytest

from conftest import assert_relations_equal
from repro.distributed import OptimizationOptions, SimulatedCluster, execute_query
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.compiler import compile_predicate
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, Schema

SCHEMA = Schema.of(("Region", INT), ("Sensor", INT), ("Value", FLOAT))


def make_skewed(count=300, seed=7):
    """Sensor values cluster by region, but a few leak across regions —
    Sensor is NOT a partition attribute, yet each value touches at most
    two of four sites."""
    rng = random.Random(seed)
    rows = []
    for _index in range(count):
        region = rng.randrange(0, 4)
        if rng.random() < 0.9:
            sensor = region * 100 + rng.randrange(0, 20)
        else:
            sensor = ((region + 1) % 4) * 100 + rng.randrange(0, 20)
        rows.append((region, sensor, float(rng.randrange(1, 100))))
    return Relation(SCHEMA, rows)


DATA = make_skewed()


def sensor_query():
    step = MDStep(
        "T",
        [
            MDBlock(
                [count_star("cnt"), AggSpec("avg", detail.Value, "m")],
                base.Sensor == detail.Sensor,
            )
        ],
    )
    return GMDJExpression(DistinctBase("T", ["Sensor"]), [step])


def build_cluster():
    from repro.warehouse.partition import ValueListPartitioner

    cluster = SimulatedCluster.with_sites(4)
    cluster.load_partitioned(
        "T", DATA, ValueListPartitioner.spread("Region", range(4), 4)
    )
    return cluster


AWARE = OptimizationOptions(
    coalescing=False,
    sync_reduction=False,
    aware_group_reduction=True,
    independent_group_reduction=False,
    site_pruning=False,
)


class TestHarvesting:
    def test_returns_predicate_count(self):
        cluster = build_cluster()
        added = cluster.harvest_value_predicates("T", ["Sensor"])
        assert added == 4  # one per site

    def test_skips_oversized_value_sets(self):
        cluster = build_cluster()
        added = cluster.harvest_value_predicates("T", ["Sensor"], max_values=2)
        assert added == 0

    def test_unknown_attribute_raises(self):
        cluster = build_cluster()
        from repro.errors import UnknownAttributeError

        with pytest.raises(UnknownAttributeError):
            cluster.harvest_value_predicates("T", ["Ghost"])

    def test_harvested_phi_is_truthful(self):
        cluster = build_cluster()
        cluster.harvest_value_predicates("T", ["Sensor"])
        from repro.relalg.expressions import DETAIL_VAR

        for site_id in cluster.site_ids:
            phi = cluster.catalog.phi("T", site_id)
            assert phi is not None
            predicate = compile_predicate(phi, {DETAIL_VAR: SCHEMA}, (DETAIL_VAR,))
            for row in cluster.site(site_id).warehouse.table("T").rows:
                assert predicate(row)

    def test_strengthens_existing_phi(self):
        cluster = build_cluster()
        before = cluster.catalog.phi("T", "site0")
        assert before is not None  # Region predicate from the partitioner
        cluster.harvest_value_predicates("T", ["Sensor"])
        after = cluster.catalog.phi("T", "site0")
        assert after is not before


class TestHarvestedAwareReduction:
    def test_reduces_traffic_and_stays_correct(self):
        cluster = build_cluster()
        expression = sensor_query()
        reference = expression.evaluate_centralized(cluster.conceptual_tables())

        plain = execute_query(cluster, expression, AWARE)
        assert_relations_equal(reference, plain.relation)
        # Without harvesting, phi only covers Region: no filter derivable
        # for a Sensor-grouped query, so the full X ships everywhere.
        baseline_down = plain.stats.tuples_down

        cluster.harvest_value_predicates("T", ["Sensor"])
        cluster.reset_network()
        harvested = execute_query(cluster, expression, AWARE)
        assert_relations_equal(reference, harvested.relation)
        assert harvested.stats.tuples_down < baseline_down

    def test_values_spanning_sites_ship_to_each(self):
        cluster = build_cluster()
        cluster.harvest_value_predicates("T", ["Sensor"])
        expression = sensor_query()
        result = execute_query(cluster, expression, AWARE)
        # Each group ships to every site holding its value: total down
        # tuples is the sum of per-site distinct sensors.
        expected = sum(
            len(
                cluster.site(site_id)
                .warehouse.table("T")
                .distinct_project(["Sensor"])
            )
            for site_id in cluster.site_ids
        )
        assert result.stats.tuples_down == expected
