"""``repro.bench`` — the experiment harness and the paper's figures.

:mod:`~repro.bench.harness` builds the paper's experimental setups and
runs optimization "arms" with full verification;
:mod:`~repro.bench.figures` parameterizes the four experiments of
Section 5 (Figures 2-5). The ``benchmarks/`` directory at the
repository root wraps these in pytest-benchmark targets and printable
reports. Performance numbers have one home, ``bench_e2e/`` at the
repository root; nothing here times a run against a pinned baseline.
"""

from repro.bench.figures import (
    ALL_OPTS,
    AWARE_AND_INDEPENDENT,
    COALESCED,
    GROUP_REDUCTION_ONLY,
    HIGH_CARDINALITY_KEY,
    LOW_CARDINALITY_KEY,
    NO_OPTS,
    SYNC_REDUCED,
    TrafficFormulaPoint,
    coalescable_query,
    combined_query,
    correlated_query,
    executor_sweep,
    figure2,
    figure2_aware,
    figure3,
    figure4,
    figure5,
)
from repro.bench.harness import (
    ArmMeasurement,
    FigureSeries,
    format_table,
    growth_exponent,
    run_arm,
    run_arms,
    scaleup_cluster,
    speedup_cluster,
    speedup_cluster_range,
)

__all__ = [
    "ALL_OPTS",
    "ArmMeasurement",
    "AWARE_AND_INDEPENDENT",
    "COALESCED",
    "FigureSeries",
    "GROUP_REDUCTION_ONLY",
    "HIGH_CARDINALITY_KEY",
    "LOW_CARDINALITY_KEY",
    "NO_OPTS",
    "SYNC_REDUCED",
    "TrafficFormulaPoint",
    "coalescable_query",
    "combined_query",
    "correlated_query",
    "executor_sweep",
    "figure2",
    "figure2_aware",
    "figure3",
    "figure4",
    "figure5",
    "format_table",
    "growth_exponent",
    "run_arm",
    "run_arms",
    "scaleup_cluster",
    "speedup_cluster",
    "speedup_cluster_range",
]
