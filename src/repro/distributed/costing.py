"""Plan cost estimation for Egil.

The paper derives traffic analytically in Section 5.2 (the
``(2c + 2n + 1)/(4n + 1)`` formula) from three quantities: the number of
groups |Q|, the number of participating sites n, and the per-site update
fraction c. This module turns that analysis into a reusable estimator:
given per-table statistics (row counts and attribute cardinalities,
registered in a :class:`TableStatistics` store), it predicts the tuples
shipped per round for any plan the optimizer emits — before running it.

Estimation model (tuples; bytes follow with a per-row size estimate):

- base round: every site ships its local distinct groups; with a
  partition attribute among the keys the pieces are disjoint (sum = |Q|),
  otherwise each site may hold up to min(|Q|, rows/site) of them;
- MD round down-leg: per site, |X| without aware reduction, |X|·(site
  selectivity) with declared ship filters, and — observed-distribution
  reduction — exactly what the site sent up the round before;
- MD round up-leg: per site, the shipped fragment size without
  independent reduction, fragment·c with it, where c is the estimated
  fraction of received groups the site updates (1/n for grouping on a
  partition attribute, 1 - (1 - 1/n)^(rows/|Q|) for uncorrelated
  placement — the standard balls-into-bins occupancy estimate);
- merged-base (Proposition 2) rounds ship nothing down and the local
  group count up.

Accuracy is validated in tests against measured traffic on TPC-R
(within a factor well under 2 for the workloads of Section 5). The
estimator deliberately shares no code with the execution-time counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from repro.distributed.mergetree import parse_topology, tree_for
from repro.distributed.plan import Plan
from repro.errors import CatalogError, PlanError
from repro.gmdj.expression import DistinctBase, LiteralBase
from repro.net.costmodel import CostModel, WAN


@dataclass
class TableStatistics:
    """Statistics for one conceptual table."""

    row_count: int
    #: attribute -> number of distinct values (cardinality)
    cardinalities: dict = field(default_factory=dict)

    def cardinality(self, attribute: str) -> Optional[int]:
        return self.cardinalities.get(attribute)


class StatisticsStore:
    """Per-table statistics, gathered or registered by the operator."""

    def __init__(self):
        self._tables: dict = {}

    def register(self, table_name: str, statistics: TableStatistics) -> None:
        self._tables[table_name] = statistics

    def register_from_relation(self, table_name: str, relation) -> None:
        """Scan a relation once and record exact statistics."""
        cardinalities = {
            name: len(set(relation.column(name))) for name in relation.schema.names
        }
        self.register(table_name, TableStatistics(len(relation), cardinalities))

    @classmethod
    def from_cluster(cls, cluster) -> "StatisticsStore":
        """Scan every conceptual table of a cluster into a fresh store.

        Convenient for tests and interactive use; a production deployment
        would maintain these statistics at load time instead of scanning.
        """
        store = cls()
        for table_name, relation in cluster.conceptual_tables().items():
            store.register_from_relation(table_name, relation)
        return store

    def get(self, table_name: str) -> TableStatistics:
        try:
            return self._tables[table_name]
        except KeyError:
            raise CatalogError(
                f"no statistics registered for table {table_name!r}"
            ) from None

    def has(self, table_name: str) -> bool:
        return table_name in self._tables


@dataclass(frozen=True)
class RoundEstimate:
    tuples_down: float
    tuples_up: float

    @property
    def tuples_total(self) -> float:
        return self.tuples_down + self.tuples_up


@dataclass(frozen=True)
class PlanEstimate:
    """Predicted traffic for a whole plan."""

    group_count: float
    base_tuples: float
    rounds: tuple  # RoundEstimate per MD round

    @property
    def tuples_total(self) -> float:
        return self.base_tuples + sum(
            round_estimate.tuples_total for round_estimate in self.rounds
        )

    def bytes_total(self, bytes_per_tuple: float = 20.0) -> float:
        """Rough byte prediction from a per-row wire-size estimate."""
        return self.tuples_total * bytes_per_tuple


def estimate_group_count(plan: Plan, statistics: StatisticsStore) -> float:
    """Estimate |Q|: the size of the base-values relation."""
    source = plan.expression.base_source
    if isinstance(source, LiteralBase):
        return float(len(source.relation))
    if isinstance(source, DistinctBase):
        table_statistics = statistics.get(source.table)
        estimate = 1.0
        for attribute in source.attrs:
            cardinality = table_statistics.cardinality(attribute)
            if cardinality is None:
                # Unknown: assume the attribute does not multiply groups.
                continue
            estimate *= cardinality
        # Never more groups than rows.
        return float(min(estimate, table_statistics.row_count))
    raise CatalogError(f"cannot estimate groups for base source {source!r}")


def _update_fraction(
    group_count: float,
    rows_per_site: float,
    partitioned_on_key: bool,
    site_count: int,
) -> float:
    """The paper's c: fraction of received groups a site updates."""
    if group_count <= 0:
        return 0.0
    if partitioned_on_key:
        return min(1.0, 1.0 / site_count) if site_count else 0.0
    # Occupancy: probability a given group has >= 1 of the site's rows,
    # assuming uniform placement of rows over groups.
    return 1.0 - math.exp(-rows_per_site / group_count)


def estimate_plan(
    plan: Plan,
    statistics: StatisticsStore,
    catalog=None,
) -> PlanEstimate:
    """Predict the tuple traffic of a plan.

    ``catalog`` (a :class:`~repro.warehouse.catalog.DistributionCatalog`)
    improves the estimate when available: partition attributes among the
    grouping keys imply disjoint per-site groups (c = 1/n) and a
    disjoint base round.
    """
    group_count = estimate_group_count(plan, statistics)
    key_attrs = set(plan.expression.key)

    # Base round.
    if plan.base.merged_into_chain or not plan.base.is_distributed:
        base_tuples = 0.0
    else:
        source = plan.expression.base_source
        table_statistics = statistics.get(source.table)
        site_count = len(plan.base.sites)
        rows_per_site = table_statistics.row_count / max(1, site_count)
        partitioned = _keys_cover_partition_attribute(
            catalog, source.table, key_attrs
        )
        if partitioned:
            base_tuples = group_count  # disjoint pieces sum to |Q|
        else:
            per_site = min(group_count, rows_per_site)
            # Each site holds ~occupancy * |Q| distinct groups.
            occupancy = _update_fraction(group_count, rows_per_site, False, site_count)
            base_tuples = min(site_count * group_count * occupancy, site_count * per_site)

    round_estimates = []
    for md_round in plan.rounds:
        detail = md_round.steps[0].detail
        table_statistics = statistics.get(detail)
        site_count = len(md_round.sites)
        rows_per_site = table_statistics.row_count / max(1, site_count)
        partitioned = _keys_cover_partition_attribute(catalog, detail, key_attrs)
        c = _update_fraction(group_count, rows_per_site, partitioned, site_count)

        if md_round.merged_base:
            down = 0.0
            up = (
                group_count
                if partitioned
                else min(site_count * group_count * c, site_count * group_count)
            )
        else:
            per_site_down = group_count
            if any(
                md_round.ship_filters.get(site) is not None for site in md_round.sites
            ):
                # Aware reduction: each site receives only its own share.
                per_site_down = group_count * max(c, 1.0 / max(1, site_count))
            down = site_count * per_site_down
            up = down * c if md_round.independent_reduction else down
            if md_round.observed_reduction and round_estimates:
                # Observed distribution: a site is shipped the groups it
                # answered with the round before — that round's ``up`` —
                # and can answer with no more than it was shipped.
                down = min(down, round_estimates[-1].tuples_up)
                up = min(up, down)
        round_estimates.append(RoundEstimate(down, up))

    return PlanEstimate(group_count, base_tuples, tuple(round_estimates))


def _keys_cover_partition_attribute(catalog, table_name, key_attrs) -> bool:
    if catalog is None or not catalog.is_registered(table_name):
        return False
    return any(
        attribute in key_attrs
        for attribute in catalog.partition_attributes(table_name)
    )


def compare_plans(
    plans: Mapping[str, Plan], statistics: StatisticsStore, catalog=None
) -> list:
    """Rank candidate plans by estimated tuple traffic (ascending)."""
    ranked = [
        (name, estimate_plan(plan, statistics, catalog)) for name, plan in plans.items()
    ]
    ranked.sort(key=lambda pair: pair[1].tuples_total)
    return ranked


# ---------------------------------------------------------------------------
# Per-topology response-time and root-link estimates
# ---------------------------------------------------------------------------

#: Per-row wire-size estimate shared with :meth:`PlanEstimate.bytes_total`.
DEFAULT_BYTES_PER_TUPLE = 20.0


@dataclass(frozen=True)
class TopologyEstimate:
    """Predicted cost of running one plan under one merge topology.

    ``label`` is the execution-facing name (``"flat"``,
    ``"hierarchical:R"``, ``"chain:F"``); ``response_time_s`` is the
    modeled sum-over-rounds critical path under a contended-root-link
    model (the coordinator/root serializes its link traffic; subtrees
    work in parallel); ``root_link_bytes`` is the traffic crossing the
    link into the root — the scarce resource hierarchical merging exists
    to protect (Section 6's multi-tier motivation).
    """

    label: str
    kind: str  # "flat" | "hierarchical" | "chain"
    parameter: int = 0  # region count or fanout; 0 for flat
    response_time_s: float = 0.0
    root_link_bytes: float = 0.0

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "parameter": self.parameter,
            "response_time_s": self.response_time_s,
            "root_link_bytes": self.root_link_bytes,
        }


def _per_round_volumes(plan: Plan, estimate: PlanEstimate):
    """(sites, per_site_down, per_site_up, cap, root_only) tuples per round.

    ``sites`` are the round's participants; ``cap`` is |Q| — the most
    any *merged* stream can carry, since combiners merge sub-results by
    key before forwarding (every grouping key appears at most once per
    merged shipment). ``root_only`` says the per-site down volume holds
    on the root's edges alone (observed-distribution reduction: below a
    combiner every child is shipped what the combiner holds).
    """
    cap = max(1.0, estimate.group_count)
    volumes = []
    if not plan.base.merged_into_chain and plan.base.is_distributed:
        sites = plan.base.sites
        volumes.append((sites, 0.0, estimate.base_tuples / len(sites), cap, False))
    for md_round, round_estimate in zip(plan.rounds, estimate.rounds):
        sites = md_round.sites
        volumes.append(
            (
                sites,
                round_estimate.tuples_down / len(sites),
                round_estimate.tuples_up / len(sites),
                cap,
                md_round.observed_reduction,
            )
        )
    return volumes


def estimate_topology_costs(
    plan: Plan,
    statistics: StatisticsStore,
    catalog=None,
    model: CostModel = WAN,
    region_counts=(2, 4),
    fanouts=(2, 3),
    bytes_per_tuple: float = DEFAULT_BYTES_PER_TUPLE,
) -> tuple:
    """Price the plan under every candidate merge topology.

    Reuses :func:`estimate_plan` for the per-round tuple volumes, then
    walks each candidate's :class:`~repro.distributed.mergetree.MergeTree`
    — the very tree :func:`~repro.distributed.mergetree.tree_for` hands
    the executor — composing them the way the measured
    ``RoundStats.response_time_s`` composes measured bytes:

        cost(node) = 2·latency + Σ child-edge bytes / bandwidth
                     + max over children cost(child)

    A node serializes its children's streams on its one link; subtrees
    work in parallel. An edge carries its subtree's sites' rows, capped
    at |Q| below a merge (a combiner forwards each key once). The flat
    star is the depth-1 case: one round trip, every site's stream on the
    coordinator's link.

    Returns :class:`TopologyEstimate` per candidate, flat first. A
    parameter the site count cannot honour, or one whose tree is just
    the star again, yields no candidate.
    """
    estimate = estimate_plan(plan, statistics, catalog)
    volumes = _per_round_volumes(plan, estimate)

    def price_round(node, sites, down, up, cap, root_only, held=None):
        """(seconds, bytes on ``node``'s own link) for one round below it.

        ``held`` is what ``node`` itself was shipped (None at the root).
        """
        if node.is_leaf:
            return 0.0, 0.0
        link_bytes = slowest_child = 0.0
        for child in node.children:
            below = sum(1 for leaf in child.leaves() if leaf in sites)
            if not below:
                continue
            rows_down, rows_up = below * down, below * up
            if not child.is_leaf:
                rows_down, rows_up = min(rows_down, cap), min(rows_up, cap)
            if root_only and held is not None:
                rows_down = held
            link_bytes += (rows_down + rows_up) * bytes_per_tuple
            slowest_child = max(
                slowest_child,
                price_round(child, sites, down, up, cap, root_only, rows_down)[0],
            )
        return (
            2 * model.latency_s
            + link_bytes / model.bandwidth_bytes_per_s
            + slowest_child,
            link_bytes,
        )

    def price(tree):
        """(response time, root-link bytes) of the whole plan over ``tree``."""
        rounds = [price_round(tree, *volume) for volume in volumes]
        return sum(t for t, _b in rounds), sum(b for _t, b in rounds)

    labels = (
        ["flat"]
        + [f"hierarchical:{count}" for count in region_counts]
        + [f"chain:{fanout}" for fanout in fanouts]
    )
    candidates = []
    for label in labels:
        try:
            tree = tree_for(label, plan.sites)
        except PlanError:
            continue
        if tree.is_star and label != "flat":
            continue
        candidates.append(TopologyEstimate(label, *parse_topology(label), *price(tree)))
    return tuple(candidates)


# ---------------------------------------------------------------------------
# Per-optimization impact (EXPLAIN ANALYZE annotations)
# ---------------------------------------------------------------------------

#: Which :class:`~repro.distributed.optimizer.OptimizationOptions` fields
#: to switch off to ablate each optimization a plan reports via
#: :meth:`~repro.distributed.plan.Plan.applied_optimizations`. Proposition
#: 2 (merged base) has no toggle of its own — it is a consequence of
#: synchronization reduction.
OPTIMIZATION_TOGGLES: Mapping[str, tuple] = {
    "coalescing": ("coalescing",),
    "sync_reduction": ("sync_reduction",),
    "merged_base": ("sync_reduction",),
    "aware_group_reduction": ("aware_group_reduction",),
    "independent_group_reduction": ("independent_group_reduction",),
}


@dataclass(frozen=True)
class OptimizationImpact:
    """One applied optimization, priced by ablation.

    ``estimated_without_tuples`` is the predicted traffic of the plan
    re-planned with this optimization switched off;
    ``estimated_with_tuples`` prices the plan as actually optimized.
    ``measured_tuples`` is the optimized run's *observed* traffic when
    the impact annotates a finished execution (None for pure EXPLAIN).
    """

    name: str
    description: str
    estimated_with_tuples: float
    estimated_without_tuples: float
    measured_tuples: Optional[float] = None

    @property
    def estimated_saving_tuples(self) -> float:
        return self.estimated_without_tuples - self.estimated_with_tuples

    @property
    def measured_saving_tuples(self) -> Optional[float]:
        """Observed traffic vs the unoptimized *estimate* (None untraced)."""
        if self.measured_tuples is None:
            return None
        return self.estimated_without_tuples - self.measured_tuples

    @property
    def saving_fraction(self) -> float:
        """Fraction of the unoptimized estimate saved (measured if known)."""
        if self.estimated_without_tuples <= 0:
            return 0.0
        optimized = (
            self.measured_tuples
            if self.measured_tuples is not None
            else self.estimated_with_tuples
        )
        return max(0.0, 1.0 - optimized / self.estimated_without_tuples)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "estimated_with_tuples": self.estimated_with_tuples,
            "estimated_without_tuples": self.estimated_without_tuples,
            "measured_tuples": self.measured_tuples,
            "estimated_saving_tuples": self.estimated_saving_tuples,
            "measured_saving_tuples": self.measured_saving_tuples,
            "saving_fraction": self.saving_fraction,
        }


def estimate_optimization_impacts(
    expression,
    catalog,
    statistics: StatisticsStore,
    options=None,
    measured_stats=None,
    plan: Optional[Plan] = None,
) -> tuple:
    """Price every optimization the planner applied, by single ablation.

    For each ``(name, description)`` in ``plan.applied_optimizations()``
    the expression is re-planned with that optimization's toggles off and
    both variants priced with :func:`estimate_plan`; the measured traffic
    of the optimized run (``measured_stats.tuples_total``) annotates each
    impact when given. Returns :class:`OptimizationImpact` per applied
    optimization, in plan order.
    """
    from repro.distributed.optimizer import OptimizationOptions, plan_query

    if options is None:
        options = OptimizationOptions.all()
    if plan is None:
        plan = plan_query(expression, catalog, options)
    optimized_estimate = estimate_plan(plan, statistics, catalog).tuples_total
    measured = (
        float(measured_stats.tuples_total) if measured_stats is not None else None
    )
    impacts = []
    for name, description in plan.applied_optimizations():
        toggles = OPTIMIZATION_TOGGLES.get(name)
        if not toggles:
            continue
        ablated_options = replace(options, **{toggle: False for toggle in toggles})
        ablated_plan = plan_query(expression, catalog, ablated_options)
        ablated_estimate = estimate_plan(ablated_plan, statistics, catalog).tuples_total
        impacts.append(
            OptimizationImpact(
                name=name,
                description=description,
                estimated_with_tuples=optimized_estimate,
                estimated_without_tuples=ablated_estimate,
                measured_tuples=measured,
            )
        )
    return tuple(impacts)
