"""The simulated distributed data warehouse: sites + coordinator + network.

:class:`SimulatedCluster` wires together everything the evaluator needs:
one :class:`~repro.distributed.site.SkallaSite` per site (each with its
own :class:`~repro.warehouse.storage.LocalWarehouse`), a
:class:`~repro.net.channel.Network` of coordinator<->site channels, and a
:class:`~repro.warehouse.catalog.DistributionCatalog` describing the data
placement.

The conceptual fact relation is the union of the site partitions
(Section 3.1); :meth:`SimulatedCluster.conceptual_table` materializes it
for centralized reference evaluation in tests and benchmarks.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.errors import WarehouseError
from repro.distributed.site import SkallaSite
from repro.net.channel import Network
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.relalg.operators import union_all
from repro.relalg.relation import Relation
from repro.warehouse.catalog import DistributionCatalog
from repro.warehouse.partition import Partitioner
from repro.warehouse.storage import LocalWarehouse


def default_site_ids(site_count: int) -> tuple:
    return tuple(f"site{index}" for index in range(site_count))


class SimulatedCluster:
    """A coordinator plus ``n`` Skalla sites, all in-process."""

    def __init__(self, site_ids: Sequence[str]):
        site_ids = tuple(site_ids)
        if not site_ids:
            raise WarehouseError("a cluster needs at least one site")
        if len(set(site_ids)) != len(site_ids):
            raise WarehouseError(f"duplicate site ids in {site_ids}")
        self.site_ids = site_ids
        self.sites = {
            site_id: SkallaSite(site_id, LocalWarehouse(site_id))
            for site_id in site_ids
        }
        self.catalog = DistributionCatalog()
        #: The active fault-injection plan (``None`` = perfect network);
        #: installed via :meth:`install_faults` and re-applied on every
        #: :meth:`reset_network`.
        self.fault_plan = None
        self.network = Network(site_ids)
        #: Span tracer for per-site evaluation; the evaluator installs a
        #: live one per traced run (default: record nothing).
        self.tracer = NULL_TRACER

    @classmethod
    def with_sites(cls, site_count: int) -> "SimulatedCluster":
        return cls(default_site_ids(site_count))

    # -- data loading --------------------------------------------------------------

    def load_partitioned(
        self,
        table_name: str,
        relation: Relation,
        partitioner: Partitioner,
        participating: Optional[Sequence[str]] = None,
    ) -> None:
        """Split ``relation`` across sites and register the distribution.

        ``participating`` selects the subset of sites that hold this table
        (defaults to all); the partitioner's ``site_count`` must match.
        """
        site_ids = tuple(participating) if participating else self.site_ids
        if partitioner.site_count != len(site_ids):
            raise WarehouseError(
                f"partitioner expects {partitioner.site_count} sites, "
                f"{len(site_ids)} participating"
            )
        partitions = partitioner.split(relation)
        for site_id, partition in zip(site_ids, partitions):
            self.sites[site_id].warehouse.register(table_name, partition)
        self.catalog.register_partitioner(
            table_name, partitioner, site_ids, relation.schema
        )

    def load_manual(
        self,
        table_name: str,
        partitions: Mapping[str, Relation],
        phi_by_site: Optional[Mapping[str, object]] = None,
        partition_attrs: Sequence[str] = (),
    ) -> None:
        """Load explicit per-site partitions with hand-written catalog facts."""
        for site_id, partition in partitions.items():
            if site_id not in self.sites:
                raise WarehouseError(f"unknown site {site_id!r}")
            self.sites[site_id].warehouse.register(table_name, partition)
        self.catalog.register(
            table_name,
            tuple(partitions),
            phi_by_site=phi_by_site,
            partition_attrs=partition_attrs,
        )

    # -- views -------------------------------------------------------------------------

    def site(self, site_id: str) -> SkallaSite:
        try:
            return self.sites[site_id]
        except KeyError:
            raise WarehouseError(f"unknown site {site_id!r}") from None

    def conceptual_table(self, table_name: str) -> Relation:
        """The conceptual fact relation: union of all site partitions.

        For replicated tables every site holds the same full copy, so the
        conceptual relation is any one replica, not the n-fold union.
        """
        pieces = [
            site.warehouse.table(table_name)
            for site in self.sites.values()
            if site.warehouse.has_table(table_name)
        ]
        if not pieces:
            raise WarehouseError(f"no site holds table {table_name!r}")
        if self.catalog.is_registered(table_name) and self.catalog.is_replicated(
            table_name
        ):
            return pieces[0]
        return union_all(pieces)

    def conceptual_tables(self) -> dict:
        """All conceptual tables, for centralized reference evaluation."""
        names = set()
        for site in self.sites.values():
            names.update(site.warehouse.table_names())
        return {name: self.conceptual_table(name) for name in sorted(names)}

    def append(self, table_name: str, deltas: Mapping[str, Relation]) -> dict:
        """Append each site's rows (site id -> relation) to the site's append
        log of a table; returns ``{site_id: new_version}``."""
        versions = {}
        for site_id, delta in deltas.items():
            warehouse = self.site(site_id).warehouse
            warehouse.append(table_name, delta)
            versions[site_id] = warehouse.version(table_name)
        return versions

    def load_replicated(self, table_name: str, relation: Relation) -> None:
        """Install a full copy of ``relation`` at every site.

        The warehouse idiom for small dimension tables: queries over a
        replicated detail relation run at a single site (the optimizer
        knows every replica is complete).
        """
        for site in self.sites.values():
            site.warehouse.register(table_name, relation)
        self.catalog.register(table_name, self.site_ids, replicated=True)

    def harvest_value_predicates(
        self, table_name: str, attributes: Sequence[str], max_values: int = 10_000
    ) -> int:
        """Strengthen the catalog's φᵢ from observed per-site value sets.

        Implements Section 4.1's "a given value might occur at only a few
        sites" refinement: even without a partitioning scheme covering
        ``attributes``, the observed value sets make distribution-aware
        group reduction applicable. Returns the number of predicates added.
        """
        partitions = {
            site_id: site.warehouse.table(table_name)
            for site_id, site in self.sites.items()
            if site.warehouse.has_table(table_name)
        }
        return self.catalog.harvest_value_predicates(
            table_name, attributes, partitions, max_values
        )

    def data_versions(self, table_names: Sequence[str]) -> tuple:
        """Per-site data versions of the named tables, as a hashable tuple.

        ``((table, site, version), ...)`` sorted, covering every site
        (version 0 = site does not hold the table). Equal tuples imply
        the named tables' distributed contents are unchanged — the data
        component of the query service's cached plan signature.
        """
        return tuple(
            (table_name, site_id, self.sites[site_id].warehouse.version(table_name))
            for table_name in sorted(set(table_names))
            for site_id in self.site_ids
        )

    def fresh_network(self, metrics: Optional[MetricsRegistry] = None) -> Network:
        """A new, independent channel set over this cluster's sites.

        Unlike :meth:`reset_network` this does **not** replace
        ``self.network`` — concurrent queries each get their own channel
        queues (two queries interleaving sends on one channel would
        consume each other's fragments) while sharing the site
        warehouses. The installed fault plan is applied with fresh firing
        state, same as a reset.
        """
        return Network(self.site_ids, metrics=metrics, faults=self.fault_plan)

    def install_faults(self, plan) -> None:
        """Install a :class:`~repro.net.faults.FaultPlan` (or ``None`` to
        restore a perfect network) and rebuild the channels.

        Because the plan itself is stateless and all firing state lives
        in the fresh channels' :class:`~repro.net.faults.FaultInjector`
        policies, installing (or resetting the network under) the same plan replays
        the identical fault schedule.
        """
        self.fault_plan = plan
        self.reset_network()

    def reset_network(
        self, metrics: Optional[MetricsRegistry] = None, faults=None
    ) -> None:
        """Fresh traffic counters (e.g. between benchmark repetitions).

        Pass a registry to have the new channels account their bytes and
        message counts there (a traced run shares one registry between
        the network and the evaluator). ``faults`` overrides the installed
        fault plan for the new network (and becomes the installed plan);
        when omitted, the currently installed plan is re-applied with
        fresh firing state.
        """
        if faults is not None:
            self.fault_plan = faults
        self.network = Network(self.site_ids, metrics=metrics, faults=self.fault_plan)

    @property
    def site_count(self) -> int:
        return len(self.site_ids)

    def __repr__(self):
        return f"SimulatedCluster({self.site_count} sites)"
