"""Experiment harness shared by all figure reproductions.

Provides the cluster builders matching the paper's experimental setup
(Section 5.1/5.2: TPCR divided among eight sites, a varying number of
which participate; Section 5.3: four sites with growing per-site data)
and the machinery to run one query under several optimization "arms",
verify each arm against centralized evaluation and the Theorem 2 bound,
and tabulate the measurements the figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.data.tpcr import (
    TPCRConfig,
    generate_tpcr,
    nation_partitioner,
    register_tpcr_fds,
)
from repro.distributed import (
    OptimizationOptions,
    SimulatedCluster,
    execute_query,
)
from repro.distributed.evaluator import ExecutionConfig
from repro.errors import ReproError
from repro.gmdj.expression import GMDJExpression
from repro.net.costmodel import CostModel, WAN
from repro.relalg.relation import Relation


class ShapeCheckError(ReproError):
    """An arm's result failed verification against the reference."""


# ---------------------------------------------------------------------------
# Cluster builders matching the paper's setups
# ---------------------------------------------------------------------------


def speedup_cluster(
    tpcr: Relation, participating: int, total_sites: int = 8
) -> SimulatedCluster:
    """Section 5.2 setup: TPCR divided among ``total_sites``; the first
    ``participating`` of them take part in the query.

    The participating sites keep their original 1/``total_sites``
    partitions, so the participating data (and group count) grows
    linearly with ``participating`` — the behaviour behind the paper's
    quadratic traffic growth.
    """
    if not 1 <= participating <= total_sites:
        raise ShapeCheckError(
            f"participating must be in 1..{total_sites}, got {participating}"
        )
    partitioner = nation_partitioner(total_sites)
    partitions = partitioner.split(tpcr)
    cluster = SimulatedCluster.with_sites(participating)
    site_ids = cluster.site_ids
    cluster.load_manual(
        "TPCR",
        {site_id: partitions[index] for index, site_id in enumerate(site_ids)},
        phi_by_site={
            site_id: partitioner.site_predicate(index, tpcr.schema)
            for index, site_id in enumerate(site_ids)
        },
        partition_attrs=partitioner.partition_attributes(),
    )
    register_tpcr_fds(cluster.catalog)
    return cluster


def speedup_cluster_range(
    tpcr: Relation,
    participating: int,
    total_sites: int = 8,
    attribute: str = "CustKey",
) -> SimulatedCluster:
    """Speed-up setup with *range* partitioning on a grouping attribute.

    Used by the aware-group-reduction extension experiment: range
    partitioning yields per-site φᵢ predicates over the grouping
    attribute itself, so the coordinator can derive ship filters
    (Theorem 4) — which the paper notes "would make the curves linear"
    (Section 5.2) but does not measure.
    """
    if not 1 <= participating <= total_sites:
        raise ShapeCheckError(
            f"participating must be in 1..{total_sites}, got {participating}"
        )
    from repro.warehouse.partition import RangePartitioner

    values = sorted(set(tpcr.column(attribute)))
    if len(values) < total_sites:
        raise ShapeCheckError(
            f"{attribute!r} has only {len(values)} values for {total_sites} sites"
        )
    boundaries = [
        values[(index + 1) * len(values) // total_sites - 1]
        for index in range(total_sites - 1)
    ]
    partitioner = RangePartitioner(attribute, boundaries, total_sites)
    partitions = partitioner.split(tpcr)
    cluster = SimulatedCluster.with_sites(participating)
    site_ids = cluster.site_ids
    cluster.load_manual(
        "TPCR",
        {site_id: partitions[index] for index, site_id in enumerate(site_ids)},
        phi_by_site={
            site_id: partitioner.site_predicate(index, tpcr.schema)
            for index, site_id in enumerate(site_ids)
        },
        partition_attrs=partitioner.partition_attributes(),
    )
    return cluster


def scaleup_cluster(config: TPCRConfig, sites: int = 4) -> SimulatedCluster:
    """Section 5.3 setup: a fixed number of sites, data size varied via
    ``config.scale`` (and group count via ``config.fixed_customers``)."""
    tpcr = generate_tpcr(config)
    cluster = SimulatedCluster.with_sites(sites)
    cluster.load_partitioned("TPCR", tpcr, nation_partitioner(sites))
    register_tpcr_fds(cluster.catalog)
    return cluster


# ---------------------------------------------------------------------------
# Arm execution
# ---------------------------------------------------------------------------


@dataclass
class ArmMeasurement:
    """Everything measured for one (query, optimization-arm) execution."""

    arm: str
    total_time_s: float
    site_compute_s: float
    coordinator_compute_s: float
    communication_s: float
    bytes_total: int
    bytes_down: int
    bytes_up: int
    tuples_total: int
    tuples_down: int
    tuples_up: int
    tuples_up_md: int
    md_rounds: int
    synchronizations: int
    result_rows: int
    theorem2_ok: bool
    matches_reference: bool
    plan_notes: tuple = ()
    executor: str = "serial"
    wall_time_s: float = 0.0


def run_arm(
    cluster: SimulatedCluster,
    expression: GMDJExpression,
    arm_name: str,
    options: OptimizationOptions,
    reference: Optional[Relation] = None,
    model: CostModel = WAN,
    config: Optional[ExecutionConfig] = None,
) -> ArmMeasurement:
    """Execute one arm, returning its measurement (reference-checked)."""
    cluster.reset_network()
    result = execute_query(cluster, expression, options, config=config)
    breakdown = result.stats.breakdown(model)
    matches = True
    if reference is not None:
        matches = reference.same_rows_any_order_of_columns(result.relation)
        if not matches:
            raise ShapeCheckError(
                f"arm {arm_name!r} result does not match centralized reference"
            )
    return ArmMeasurement(
        arm=arm_name,
        total_time_s=breakdown["total_s"],
        site_compute_s=breakdown["site_compute_s"],
        coordinator_compute_s=breakdown["coordinator_compute_s"],
        communication_s=breakdown["communication_s"],
        bytes_total=result.stats.bytes_total,
        bytes_down=result.stats.bytes_down,
        bytes_up=result.stats.bytes_up,
        tuples_total=result.stats.tuples_total,
        tuples_down=result.stats.tuples_down,
        tuples_up=result.stats.tuples_up,
        tuples_up_md=result.stats.tuples_up_md(),
        md_rounds=result.stats.md_round_count(),
        synchronizations=result.plan.synchronization_count,
        result_rows=len(result.relation),
        theorem2_ok=result.respects_theorem2(),
        matches_reference=matches,
        plan_notes=result.plan.notes,
        executor=result.stats.executor,
        wall_time_s=result.stats.wall_time_s(),
    )


def run_arms(
    cluster: SimulatedCluster,
    expression: GMDJExpression,
    arms: Mapping[str, OptimizationOptions],
    model: CostModel = WAN,
    check_reference: bool = True,
    config: Optional[ExecutionConfig] = None,
) -> dict:
    """Run every arm of one experiment point; verify all against reference."""
    reference = None
    if check_reference:
        reference = expression.evaluate_centralized(cluster.conceptual_tables())
    return {
        arm_name: run_arm(
            cluster, expression, arm_name, options, reference, model, config
        )
        for arm_name, options in arms.items()
    }


# ---------------------------------------------------------------------------
# Series & tabulation
# ---------------------------------------------------------------------------


@dataclass
class FigureSeries:
    """One experiment's full sweep: x values against per-arm measurements."""

    name: str
    x_label: str
    x_values: list = field(default_factory=list)
    measurements: list = field(default_factory=list)  # list of dict arm -> ArmMeasurement

    def add_point(self, x, arm_measurements: Mapping[str, ArmMeasurement]) -> None:
        self.x_values.append(x)
        self.measurements.append(dict(arm_measurements))

    @property
    def arm_names(self) -> tuple:
        return tuple(self.measurements[0]) if self.measurements else ()

    def column(self, arm: str, attribute: str) -> list:
        return [getattr(point[arm], attribute) for point in self.measurements]

    def table(self, attribute: str, fmt: str = "{:.4f}") -> str:
        """Render one metric as a fixed-width table (x by arm)."""
        headers = [self.x_label, *self.arm_names]
        rows = []
        for x, point in zip(self.x_values, self.measurements):
            cells = [str(x)]
            for arm in self.arm_names:
                value = getattr(point[arm], attribute)
                cells.append(
                    fmt.format(value) if isinstance(value, float) else str(value)
                )
            rows.append(cells)
        return format_table(headers, rows)

    def show(self, attributes: Sequence[tuple] = ()) -> str:
        """Full report: time and traffic tables plus any extra metrics."""
        sections = [f"== {self.name} =="]
        sections.append("query evaluation time (s, modeled comm + measured compute):")
        sections.append(self.table("total_time_s"))
        sections.append("bytes transferred:")
        sections.append(self.table("bytes_total", fmt="{:.0f}"))
        for attribute, label in attributes:
            sections.append(f"{label}:")
            sections.append(self.table(attribute))
        return "\n".join(sections)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(" | ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def growth_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) on log(x): ~1 linear, ~2 quadratic.

    Used by benchmark assertions to verify the paper's shape claims
    without depending on absolute numbers.
    """
    import math

    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pairs) < 2:
        raise ShapeCheckError("need at least two positive points for a growth fit")
    log_x = [math.log(x) for x, _y in pairs]
    log_y = [math.log(y) for _x, y in pairs]
    n = len(pairs)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    numerator = sum((lx - mean_x) * (ly - mean_y) for lx, ly in zip(log_x, log_y))
    denominator = sum((lx - mean_x) ** 2 for lx in log_x)
    if denominator == 0:
        raise ShapeCheckError("degenerate x values in growth fit")
    return numerator / denominator
