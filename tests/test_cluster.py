"""Unit tests for the simulated cluster wiring."""

import pytest

from conftest import make_flows, same_rows
from repro.distributed.cluster import SimulatedCluster, default_site_ids
from repro.errors import WarehouseError
from repro.warehouse.partition import RoundRobinPartitioner, ValueListPartitioner

FLOW = make_flows(count=80, seed=4)


class TestConstruction:
    def test_with_sites(self):
        cluster = SimulatedCluster.with_sites(3)
        assert cluster.site_count == 3
        assert cluster.site_ids == ("site0", "site1", "site2")
        assert cluster.network.site_ids == cluster.site_ids

    def test_default_site_ids(self):
        assert default_site_ids(2) == ("site0", "site1")

    def test_needs_sites(self):
        with pytest.raises(WarehouseError):
            SimulatedCluster([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(WarehouseError):
            SimulatedCluster(["a", "a"])


class TestLoading:
    def test_load_partitioned_distributes_and_registers(self):
        cluster = SimulatedCluster.with_sites(4)
        partitioner = ValueListPartitioner.spread("SourceAS", range(16), 4)
        cluster.load_partitioned("Flow", FLOW, partitioner)
        total = sum(
            cluster.site(site_id).warehouse.row_count("Flow")
            for site_id in cluster.site_ids
        )
        assert total == len(FLOW)
        assert cluster.catalog.is_registered("Flow")
        assert cluster.catalog.partition_attributes("Flow") == ("SourceAS",)

    def test_load_partitioned_site_count_mismatch(self):
        cluster = SimulatedCluster.with_sites(4)
        with pytest.raises(WarehouseError):
            cluster.load_partitioned("Flow", FLOW, RoundRobinPartitioner(3))

    def test_load_partitioned_subset_of_sites(self):
        cluster = SimulatedCluster.with_sites(4)
        cluster.load_partitioned(
            "Flow", FLOW, RoundRobinPartitioner(2), participating=["site0", "site1"]
        )
        assert cluster.catalog.sites("Flow") == ("site0", "site1")
        assert not cluster.site("site2").warehouse.has_table("Flow")

    def test_load_manual(self):
        cluster = SimulatedCluster.with_sites(2)
        halves = RoundRobinPartitioner(2).split(FLOW)
        cluster.load_manual(
            "Flow",
            {"site0": halves[0], "site1": halves[1]},
            partition_attrs=(),
        )
        assert same_rows(cluster.conceptual_table("Flow"), FLOW)

    def test_load_manual_unknown_site(self):
        cluster = SimulatedCluster.with_sites(1)
        with pytest.raises(WarehouseError):
            cluster.load_manual("Flow", {"ghost": FLOW})


class TestViews:
    def test_conceptual_table_is_union(self):
        cluster = SimulatedCluster.with_sites(3)
        cluster.load_partitioned("Flow", FLOW, RoundRobinPartitioner(3))
        assert same_rows(cluster.conceptual_table("Flow"), FLOW)

    def test_conceptual_table_missing(self):
        cluster = SimulatedCluster.with_sites(1)
        with pytest.raises(WarehouseError):
            cluster.conceptual_table("Nope")

    def test_conceptual_tables_collects_all(self):
        cluster = SimulatedCluster.with_sites(2)
        cluster.load_partitioned("Flow", FLOW, RoundRobinPartitioner(2))
        tables = cluster.conceptual_tables()
        assert set(tables) == {"Flow"}

    def test_unknown_site_lookup(self):
        with pytest.raises(WarehouseError):
            SimulatedCluster.with_sites(1).site("siteX")

    def test_reset_network_clears_counters(self):
        cluster = SimulatedCluster.with_sites(1)
        from repro.net.message import BASE_QUERY, Message

        cluster.network.channel("site0").send_to_site(
            Message(BASE_QUERY, "coordinator", "site0", 0)
        )
        assert cluster.network.total_bytes() > 0
        cluster.reset_network()
        assert cluster.network.total_bytes() == 0
