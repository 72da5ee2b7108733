"""Unit tests for the benchmark harness."""

import pytest

from conftest import same_rows

from repro.bench.harness import (
    ShapeCheckError,
    format_table,
    growth_exponent,
    run_arm,
    run_arms,
    scaleup_cluster,
    speedup_cluster,
)
from repro.bench.figures import NO_OPTS, ALL_OPTS, correlated_query, HIGH_CARDINALITY_KEY
from repro.data.tpcr import TPCRConfig, generate_tpcr
from repro.net.costmodel import FREE

TPCR = generate_tpcr(TPCRConfig(scale=0.0002, seed=3))


class TestClusterBuilders:
    def test_speedup_cluster_structure(self):
        cluster = speedup_cluster(TPCR, participating=3, total_sites=8)
        assert cluster.site_count == 3
        assert cluster.catalog.is_registered("TPCR")
        # Each participating site holds one original 1/8 partition.
        held = sum(
            cluster.site(site_id).warehouse.row_count("TPCR")
            for site_id in cluster.site_ids
        )
        assert 0 < held < len(TPCR)
        # FDs registered: CustName is a partition attribute.
        assert cluster.catalog.is_partition_attribute("TPCR", "CustName")

    def test_speedup_participating_data_grows(self):
        sizes = []
        for sites in (1, 4, 8):
            cluster = speedup_cluster(TPCR, sites, 8)
            sizes.append(
                sum(
                    cluster.site(site_id).warehouse.row_count("TPCR")
                    for site_id in cluster.site_ids
                )
            )
        assert sizes[0] < sizes[1] < sizes[2]
        assert sizes[2] == len(TPCR)

    def test_speedup_validates_range(self):
        with pytest.raises(ShapeCheckError):
            speedup_cluster(TPCR, 0)
        with pytest.raises(ShapeCheckError):
            speedup_cluster(TPCR, 9, 8)

    def test_scaleup_cluster(self):
        cluster = scaleup_cluster(TPCRConfig(scale=0.0002, seed=3), sites=4)
        assert cluster.site_count == 4
        assert same_rows(cluster.conceptual_table("TPCR"), TPCR)


class TestRunArms:
    def test_measurements_populated(self):
        cluster = speedup_cluster(TPCR, 2, 8)
        measurements = run_arms(
            cluster,
            correlated_query(HIGH_CARDINALITY_KEY),
            {"none": NO_OPTS, "all": ALL_OPTS},
            model=FREE,
        )
        assert set(measurements) == {"none", "all"}
        for measurement in measurements.values():
            assert measurement.matches_reference
            assert measurement.theorem2_ok
            assert measurement.bytes_total > 0
            assert measurement.result_rows > 0
        assert measurements["all"].bytes_total < measurements["none"].bytes_total
        assert (
            measurements["all"].synchronizations
            < measurements["none"].synchronizations
        )

    def test_run_arm_without_reference_check(self):
        cluster = speedup_cluster(TPCR, 2, 8)
        measurement = run_arm(
            cluster, correlated_query(HIGH_CARDINALITY_KEY), "solo", NO_OPTS
        )
        assert measurement.arm == "solo"


class TestHelpers:
    def test_growth_exponent_linear(self):
        xs = [1, 2, 4, 8]
        assert growth_exponent(xs, [3 * x for x in xs]) == pytest.approx(1.0)

    def test_growth_exponent_quadratic(self):
        xs = [1, 2, 4, 8]
        assert growth_exponent(xs, [x * x for x in xs]) == pytest.approx(2.0)

    def test_growth_exponent_needs_points(self):
        with pytest.raises(ShapeCheckError):
            growth_exponent([1], [1])

    def test_format_table(self):
        text = format_table(["a", "bee"], [["1", "2"], ["30", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "bee" in lines[0]
