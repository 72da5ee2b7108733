"""The paper's four experiments (Figures 2-5), parameterized.

Each ``figure*`` function reproduces one figure of Section 5 as a data
sweep and returns a :class:`~repro.bench.harness.FigureSeries` (plus
figure-specific extras). Scales default to laptop-size; the *shapes* —
which arm wins, growth orders, crossovers — are what reproduce the paper,
not absolute times (the paper ran Daytona on 1999-era distributed
hardware; we run an in-process simulator, see DESIGN.md).

Query roster (Section 5.1: "In each of our test queries, we compute a
COUNT and an AVG aggregate on each GMDJ operator"):

- *group reduction query* — a two-GMDJ correlated-aggregate query
  grouped on the (high-cardinality) partitioned customer attribute; the
  correlation makes it non-coalescable, so both arms run base + 2 MD
  rounds and only the group reduction differs.
- *coalescing query* — two GMDJs whose conditions are independent, so
  they coalesce into a single operator; with the base merged
  (Proposition 2) the coalesced plan is one round of upward-only traffic.
- *synchronization reduction query* — the correlated query again, with
  the sync-reduction arm chaining both GMDJs locally (Corollary 1 via
  the CustName -> NationKey functional dependency) and merging the base.
- *combined reductions query* — three GMDJs (two coalescable + one
  correlated) exercising every optimization at once.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.bench.harness import (
    ArmMeasurement,
    FigureSeries,
    run_arms,
    scaleup_cluster,
    speedup_cluster,
)
from repro.data.tpcr import TPCRConfig, generate_tpcr
from repro.distributed import OptimizationOptions
from repro.gmdj.expression import GMDJExpression
from repro.net.costmodel import CostModel, WAN
from repro.queries.olap import QueryBuilder
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail

HIGH_CARDINALITY_KEY = ["CustName"]  # unique per customer (paper: 100k values)
LOW_CARDINALITY_KEY = ["SuppKey"]  # 2000-4000 values (paper Section 5.1)


# ---------------------------------------------------------------------------
# Query roster
# ---------------------------------------------------------------------------


def correlated_query(keys: Sequence[str]) -> GMDJExpression:
    """COUNT+AVG, then COUNT+AVG over tuples above the group average.

    The stage-2 condition references stage-1 aggregates, so coalescing
    cannot apply — the paper's group-reduction/sync-reduction workload.
    """
    return (
        QueryBuilder("TPCR", keys=list(keys))
        .stage([count_star("cnt1"), AggSpec("avg", detail.Price, "avg1")])
        .stage(
            [count_star("cnt2"), AggSpec("avg", detail.Price, "avg2")],
            extra=detail.Price >= base.avg1,
        )
        .build()
    )


def coalescable_query(keys: Sequence[str]) -> GMDJExpression:
    """Two GMDJs with independent conditions (the coalescing workload)."""
    return (
        QueryBuilder("TPCR", keys=list(keys))
        .stage([count_star("cnt1"), AggSpec("avg", detail.Price, "avg1")])
        .stage(
            [count_star("cnt2"), AggSpec("avg", detail.Quantity, "avg2")],
            extra=detail.Discount >= 0.05,
        )
        .build()
    )


def combined_query(keys: Sequence[str]) -> GMDJExpression:
    """Three GMDJs: two coalescable stages plus a correlated stage."""
    return (
        QueryBuilder("TPCR", keys=list(keys))
        .stage([count_star("cnt1"), AggSpec("avg", detail.Price, "avg1")])
        .stage(
            [count_star("cnt2"), AggSpec("avg", detail.Quantity, "avg2")],
            extra=detail.Discount >= 0.05,
        )
        .stage(
            [count_star("cnt3"), AggSpec("avg", detail.Price, "avg3")],
            extra=detail.Price >= base.avg1,
        )
        .build()
    )


# ---------------------------------------------------------------------------
# Optimization arms
# ---------------------------------------------------------------------------

NO_OPTS = OptimizationOptions.none()
GROUP_REDUCTION_ONLY = OptimizationOptions(
    coalescing=False,
    sync_reduction=False,
    aware_group_reduction=False,
    independent_group_reduction=True,
    site_pruning=False,
)
AWARE_AND_INDEPENDENT = OptimizationOptions(
    coalescing=False,
    sync_reduction=False,
    aware_group_reduction=True,
    independent_group_reduction=True,
    site_pruning=False,
)
COALESCED = OptimizationOptions(
    coalescing=True,
    sync_reduction=True,
    aware_group_reduction=False,
    independent_group_reduction=False,
    site_pruning=False,
)
SYNC_REDUCED = OptimizationOptions(
    coalescing=False,
    sync_reduction=True,
    aware_group_reduction=False,
    independent_group_reduction=False,
    site_pruning=False,
)
ALL_OPTS = OptimizationOptions.all()


# ---------------------------------------------------------------------------
# Figure 2 — group reduction
# ---------------------------------------------------------------------------


@dataclass
class TrafficFormulaPoint:
    """The paper's Figure-2 traffic analysis, checked per site count.

    The paper derives: groups transferred with reduction / without
    = (2c + 2n + 1) / (4n + 1), matching experiment "to within 5%".
    """

    sites: int
    c: float
    predicted_ratio: float
    measured_ratio: float

    @property
    def relative_error(self) -> float:
        return abs(self.measured_ratio - self.predicted_ratio) / self.predicted_ratio


def figure2(
    scale: float = 0.0005,
    participating: Sequence[int] = range(1, 9),
    total_sites: int = 8,
    model: CostModel = WAN,
    keys: Optional[Sequence[str]] = None,
    check_reference: bool = True,
) -> tuple:
    """Group reduction query: time & traffic vs participating sites.

    Returns ``(series, formula_points)``.
    """
    tpcr = generate_tpcr(TPCRConfig(scale=scale))
    keys = list(keys or HIGH_CARDINALITY_KEY)
    series = FigureSeries("Figure 2: group reduction query", "sites")
    formula_points = []
    arms = {
        "no_reduction": NO_OPTS,
        "group_reduction": GROUP_REDUCTION_ONLY,
    }
    for sites in participating:
        cluster = speedup_cluster(tpcr, sites, total_sites)
        expression = correlated_query(keys)
        measurements = run_arms(
            cluster, expression, arms, model, check_reference=check_reference
        )
        series.add_point(sites, measurements)
        formula_points.append(
            _traffic_formula_point(
                sites,
                measurements["no_reduction"],
                measurements["group_reduction"],
            )
        )
    return series, formula_points


def _traffic_formula_point(
    sites: int, unreduced: ArmMeasurement, reduced: ArmMeasurement
) -> TrafficFormulaPoint:
    """Check the paper's traffic analysis for the group reduction query.

    With g groups per site and n sites (so |Q| = ng groups): the base
    round ships ng up; each of the two MD rounds ships n·ng down. Without
    reduction each round ships n·ng back up — total ng(4n + 1). With
    reduction a site returns only the c·g groups it updated — total
    ng(2c + 2n + 1). ``c`` is *measured* from the reduced arm's up-leg
    (per site per round, relative to its g local groups), and the
    predicted ratio is compared against the measured tuple-count ratio.
    """
    groups_total = unreduced.result_rows  # ng
    g = groups_total / sites
    per_site_per_round_up = reduced.tuples_up_md / (reduced.md_rounds * sites)
    c = per_site_per_round_up / g if g else 0.0
    predicted = (2 * c + 2 * sites + 1) / (4 * sites + 1)
    measured = reduced.tuples_total / max(1, unreduced.tuples_total)
    return TrafficFormulaPoint(sites, c, predicted, measured)


def figure2_aware(
    scale: float = 0.0005,
    participating: Sequence[int] = range(1, 9),
    total_sites: int = 8,
    model: CostModel = WAN,
    check_reference: bool = True,
) -> FigureSeries:
    """Extension: coordinator-side (distribution-aware) group reduction.

    Section 5.2 observes that the site-side reduction "solves half of the
    inefficiency ... Distribution-aware (i.e., coordinator side) group
    reduction would make the curves linear" — but the paper does not
    measure it. This experiment does: TPCR is *range*-partitioned on
    CustKey so each site's φᵢ constrains the grouping attribute, the
    optimizer derives per-site ship filters, and the coordinator-to-site
    leg drops from n·|X| to |X| total, making the traffic linear in n.
    """
    from repro.bench.harness import speedup_cluster_range

    tpcr = generate_tpcr(TPCRConfig(scale=scale))
    series = FigureSeries(
        "Figure 2 extension: distribution-aware group reduction", "sites"
    )
    arms = {
        "no_reduction": NO_OPTS,
        "independent_only": GROUP_REDUCTION_ONLY,
        "aware+independent": AWARE_AND_INDEPENDENT,
    }
    for sites in participating:
        cluster = speedup_cluster_range(tpcr, sites, total_sites, "CustKey")
        expression = correlated_query(["CustKey"])
        measurements = run_arms(
            cluster, expression, arms, model, check_reference=check_reference
        )
        series.add_point(sites, measurements)
    return series


# ---------------------------------------------------------------------------
# Figure 3 — coalescing
# ---------------------------------------------------------------------------


def figure3(
    scale: float = 0.0005,
    participating: Sequence[int] = range(1, 9),
    total_sites: int = 8,
    model: CostModel = WAN,
    check_reference: bool = True,
) -> dict:
    """Coalescing query, high- and low-cardinality grouping.

    Returns ``{"high": FigureSeries, "low": FigureSeries}``.
    """
    tpcr = generate_tpcr(TPCRConfig(scale=scale))
    arms = {"non_coalesced": NO_OPTS, "coalesced": COALESCED}
    result = {}
    for label, keys in (("high", HIGH_CARDINALITY_KEY), ("low", LOW_CARDINALITY_KEY)):
        series = FigureSeries(
            f"Figure 3: coalescing query ({label} cardinality)", "sites"
        )
        for sites in participating:
            cluster = speedup_cluster(tpcr, sites, total_sites)
            measurements = run_arms(
                cluster,
                coalescable_query(keys),
                arms,
                model,
                check_reference=check_reference,
            )
            series.add_point(sites, measurements)
        result[label] = series
    return result


# ---------------------------------------------------------------------------
# Figure 4 — synchronization reduction
# ---------------------------------------------------------------------------


def figure4(
    scale: float = 0.0005,
    participating: Sequence[int] = range(1, 9),
    total_sites: int = 8,
    model: CostModel = WAN,
    check_reference: bool = True,
) -> dict:
    """Synchronization reduction (without coalescing), high/low cardinality."""
    tpcr = generate_tpcr(TPCRConfig(scale=scale))
    arms = {"no_sync_reduction": NO_OPTS, "sync_reduction": SYNC_REDUCED}
    result = {}
    for label, keys in (("high", HIGH_CARDINALITY_KEY), ("low", LOW_CARDINALITY_KEY)):
        series = FigureSeries(
            f"Figure 4: synchronization reduction query ({label} cardinality)",
            "sites",
        )
        for sites in participating:
            cluster = speedup_cluster(tpcr, sites, total_sites)
            measurements = run_arms(
                cluster,
                correlated_query(keys),
                arms,
                model,
                check_reference=check_reference,
            )
            series.add_point(sites, measurements)
        result[label] = series
    return result


# ---------------------------------------------------------------------------
# Figure 5 — combined reductions (scale-up)
# ---------------------------------------------------------------------------


def figure5(
    base_scale: float = 0.0005,
    scale_factors: Sequence[int] = (1, 2, 3, 4),
    sites: int = 4,
    model: CostModel = WAN,
    constant_groups: bool = False,
    check_reference: bool = True,
) -> FigureSeries:
    """Combined reductions query: data scale-up at a fixed site count.

    ``constant_groups=True`` runs the paper's second variant where the
    group count stays fixed while the database grows.
    """
    arms = {"no_optimizations": NO_OPTS, "all_optimizations": ALL_OPTS}
    variant = "constant groups" if constant_groups else "groups grow with data"
    series = FigureSeries(
        f"Figure 5: combined reductions scale-up ({variant})", "scale_factor"
    )
    fixed_customers = (
        max(1, int(100_000 * base_scale)) if constant_groups else 0
    )
    for factor in scale_factors:
        config = TPCRConfig(
            scale=base_scale * factor, fixed_customers=fixed_customers
        )
        cluster = scaleup_cluster(config, sites)
        measurements = run_arms(
            cluster,
            combined_query(HIGH_CARDINALITY_KEY),
            arms,
            model,
            check_reference=check_reference,
        )
        series.add_point(factor, measurements)
    return series


def executor_sweep(
    scale: float = 0.002,
    sites: int = 8,
    executors: Sequence[str] = ("serial", "sockets"),
    repetitions: int = 1,
    options: Optional[OptimizationOptions] = None,
) -> dict:
    """Tentpole experiment: one query, one cluster, every execution engine.

    Runs the combined-reductions query on a ``sites``-site scale-up
    cluster once per executor — ``serial`` in this process, ``sockets``
    on site-server processes deployed from the same cluster for the
    sweep and shut down after it — and reports, per engine:

    - ``wall_s`` — measured wall-clock of the round loop (best of
      ``repetitions``, via :meth:`ExecutionStats.wall_time_s`);
    - ``modeled_max_over_sites_s`` — the parallel-model site compute
      time (max over sites per round, summed over rounds). Identical
      across engines by construction, which is what keeps sequential
      runs reproducible for the paper's speed-up figures;
    - ``site_compute_total_s`` — work done across *all* sites (the
      serial engine's wall-clock floor);
    - byte totals and result rows.

    Executor equivalence is asserted, not assumed: result rows must be
    bit-identical and per-round per-site byte accounting must match the
    first executor's exactly (raises
    :class:`~repro.bench.harness.ShapeCheckError` otherwise).
    """
    from repro.bench.harness import ShapeCheckError
    from repro.distributed import execute_query
    from repro.distributed.deployment import ProcessCluster
    from repro.distributed.evaluator import ExecutionConfig

    if repetitions < 1:
        raise ShapeCheckError(f"repetitions must be >= 1, got {repetitions}")
    query = combined_query(HIGH_CARDINALITY_KEY)
    options = options or ALL_OPTS
    report: dict = {"sites": sites, "scale": scale, "executors": {}}
    baseline = None
    for executor in executors:
        config = ExecutionConfig(executor=executor)
        best = None
        with contextlib.ExitStack() as deployed:
            cluster = scaleup_cluster(TPCRConfig(scale=scale), sites)
            if executor == "sockets":
                cluster = deployed.enter_context(
                    ProcessCluster.from_simulated(
                        cluster, tempfile.mkdtemp(prefix="repro-sweep-"),
                        ephemeral=True,
                    )
                )
            for _repetition in range(repetitions):
                cluster.reset_network()
                result = execute_query(cluster, query, options, config=config)
                if best is None or result.stats.wall_time_s() < best.stats.wall_time_s():
                    best = result
        stats = best.stats
        accounting = [
            (round_stats.index, site_id, site.bytes_down, site.bytes_up, site.tuples_up)
            for round_stats in stats.rounds
            for site_id, site in sorted(round_stats.sites.items())
        ]
        if baseline is None:
            baseline = (best.relation.rows, accounting)
        elif best.relation.rows != baseline[0]:
            raise ShapeCheckError(
                f"{executor!r}: result rows differ from {executors[0]!r}"
            )
        elif accounting != baseline[1]:
            raise ShapeCheckError(
                f"{executor!r}: byte accounting differs from {executors[0]!r}"
            )
        report["executors"][executor] = {
            "wall_s": stats.wall_time_s(),
            "modeled_max_over_sites_s": stats.site_compute_s(),
            "site_compute_total_s": stats.site_compute_total_s(),
            "bytes_total": stats.bytes_total,
            "result_rows": len(best.relation),
        }
    reference_name = "serial" if "serial" in report["executors"] else executors[0]
    reference_wall = report["executors"][reference_name]["wall_s"]
    for entry in report["executors"].values():
        entry["speedup_vs_serial"] = (
            reference_wall / entry["wall_s"] if entry["wall_s"] > 0 else 0.0
        )
    return report
