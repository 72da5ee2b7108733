"""The four workloads: what each runs, at what size, and why.

Sizes and pass counts are fixed constants, never detected at run time.
``scan_heavy`` scans 10^6 detail rows; the others were cut from the issue's
targets — statements per pass first, then rows — until the driver's
``4 + 22 x workloads`` runs fit its 3420 s (``bench_e2e/README.md`` has the
budget).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

S1_CORRELATED = (
    "SELECT NationKey, COUNT(*) AS cnt, AVG(Price) AS m FROM TPCR "
    "GROUP BY NationKey THEN SELECT COUNT(*) AS above WHERE Price >= m"
)
S2_CUBE_CELL = (
    "SELECT NationKey, OrderYear, COUNT(*) AS cnt, SUM(Price) AS revenue, "
    "MAX(Price) AS top FROM TPCR GROUP BY NationKey, OrderYear"
)
S3_REGION_ROLLUP = (
    "SELECT RegionKey, COUNT(*) AS cnt, SUM(Quantity) AS qty FROM TPCR "
    "GROUP BY RegionKey"
)
S4_MONTH_MARGINAL = (
    "SELECT OrderMonth, COUNT(*) AS cnt, AVG(Quantity) AS q FROM TPCR "
    "GROUP BY OrderMonth THEN SELECT COUNT(*) AS above WHERE Quantity >= q"
)
S5_FINE_GROUPS = (
    "SELECT PartKey, SuppKey, COUNT(*) AS cnt, AVG(Price) AS m FROM TPCR "
    "GROUP BY PartKey, SuppKey THEN SELECT COUNT(*) AS above WHERE Price >= m"
)

#: Re-submitted after every append: served by ``refresh`` then by ``hit``.
SERVICE_CACHED = (
    "SELECT SourceAS, COUNT(*) AS cnt, SUM(NumPackets) AS packets "
    "FROM Flow GROUP BY SourceAS",
    "SELECT DestAS, COUNT(*) AS cnt, MAX(NumPackets) AS biggest "
    "FROM Flow GROUP BY DestAS",
    "SELECT RouterId, COUNT(*) AS flows, MIN(StartTime) AS first_seen "
    "FROM Flow GROUP BY RouterId",
    "SELECT SourceAS, DestAS, COUNT(*) AS cnt, SUM(NumBytes) AS volume "
    "FROM Flow GROUP BY SourceAS, DestAS",
)
#: Never seen before (the literal changes every pass): always ``fresh``.
SERVICE_FRESH = (
    "SELECT SourceAS, COUNT(*) AS cnt, SUM(NumBytes) AS volume "
    "FROM FlowSmall WHERE StartTime >= {literal} GROUP BY SourceAS"
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "sockets" | "service"
    sites: int
    rows: int  # detail rows of the main table
    statements: tuple = ()  # one pass of a sockets workload, in order
    unoptimised: bool = False  # OptimizationOptions.none()
    passes: int = 40  # timed passes of an end-to-end run
    # service_mixed only:
    small_rows: int = 0  # rows of the static FlowSmall table
    append_rounds: int = 0  # [append; refresh x4; hit x4] repeats per pass
    append_rows: int = 0
    fresh_per_pass: int = 0

    @property
    def ops_per_pass(self) -> int:
        if self.kind == "sockets":
            return len(self.statements)
        return (
            self.append_rounds * (1 + 2 * len(SERVICE_CACHED)) + self.fresh_per_pass
        )

    def quick(self) -> "Workload":
        """1/50 of the data, for the smoke test."""
        return replace(
            self,
            rows=max(200, self.rows // 50),
            small_rows=max(100, self.small_rows // 50) if self.small_rows else 0,
            append_rows=max(10, self.append_rows // 50) if self.append_rows else 0,
        )


WORKLOADS = (
    Workload(
        name="scan_heavy",
        why=(
            "one site GMDJ scan per statement over partition-key groups: the "
            "kernel and relalg engine do >90% of the work, codec and coordinator none"
        ),
        kind="sockets",
        sites=2,
        rows=1_000_000,
        statements=(S1_CORRELATED,),
        # 1.23 s a pass with its kernel sample: 24 take 30 s of the 39 s the
        # driver allows four workloads; 40 would take 49 s.
        passes=24,
    ),
    Workload(
        name="sync_heavy",
        why=(
            "about one group per detail row on non-partition keys: both rounds ship the "
            "whole base structure, so synchronize, codec and socket bytes carry the pass"
        ),
        kind="sockets",
        sites=2,
        rows=10_000,
        statements=(S5_FINE_GROUPS,),
    ),
    Workload(
        name="round_floor",
        why=(
            "tiny data over 4 sites with the optimiser off: what is left is the fixed "
            "cost per op and per synchronised round (parse, plan, frames, dispatch)"
        ),
        kind="sockets",
        sites=4,
        rows=3_000,
        statements=(S1_CORRELATED, S2_CUBE_CELL, S3_REGION_ROLLUP, S4_MONTH_MARGINAL),
        unoptimised=True,
    ),
    Workload(
        name="service_mixed",
        why=(
            "QueryService in-process with appends beside reads: cache lookup, delta "
            "log, incremental refresh and writer-exclusive appends, no transport"
        ),
        kind="service",
        sites=2,
        rows=100_000,
        small_rows=5_000,
        append_rounds=2,
        append_rows=500,
        fresh_per_pass=2,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: Warm-up passes run inside ``setup_s``; caches fill and lazy set-up ends.
WARMUP_PASSES = 2
#: Timed passes of an end-to-end run are ``Workload.passes``: fixed, so counts
#: repeat exactly; at 40, p75 is the highest percentile with ten samples
#: beyond it (``scan_heavy``: 24 passes, six beyond).
#: Timed passes of a traced run, untraced and then traced.
TRACE_PASSES = 5
#: Timed passes of a ``--quick`` run (smoke test).
QUICK_PASSES = 3
#: An op slower than this counts as failed (a hang, not a slow machine).
OP_TIMEOUT_S = 30.0
