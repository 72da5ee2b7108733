"""``repro.distributed`` — the Skalla distributed OLAP runtime.

The coordinator architecture of the paper: an optimizer (Egil) turns a
GMDJ expression into a round-based plan; Alg. GMDJDistribEval executes it
over a simulated cluster of local warehouses, shipping only partial
results (never detail data) and collecting per-round traffic and timing
statistics.
"""

from repro.distributed.cluster import SimulatedCluster, default_site_ids
from repro.distributed.coordinator import Coordinator
from repro.distributed.costing import (
    PlanEstimate,
    StatisticsStore,
    TableStatistics,
    TopologyEstimate,
    compare_plans,
    estimate_plan,
    estimate_topology_costs,
)
from repro.distributed.incremental import IncrementalView, RefreshResult
from repro.distributed.evaluator import (
    DistributedResult,
    ExecutionConfig,
    execute_plan,
    execute_query,
)
from repro.distributed.mergetree import MergeTree, tree_for
from repro.distributed.optimizer import OptimizationOptions, plan_query
from repro.distributed.scheduler import (
    TopologyChoice,
    choose_topology,
    execute_plan_scheduled,
    execute_query_scheduled,
)
from repro.distributed.plan import BaseRound, MDRound, Plan
from repro.distributed.site import SkallaSite
from repro.distributed.stats import (
    ExecutionStats,
    RoundStats,
    SiteRoundStats,
    check_theorem2,
    theorem2_bound,
)

__all__ = [
    "BaseRound",
    "Coordinator",
    "DistributedResult",
    "ExecutionConfig",
    "ExecutionStats",
    "IncrementalView",
    "MDRound",
    "MergeTree",
    "OptimizationOptions",
    "Plan",
    "RefreshResult",
    "PlanEstimate",
    "RoundStats",
    "SimulatedCluster",
    "SiteRoundStats",
    "SkallaSite",
    "StatisticsStore",
    "TableStatistics",
    "TopologyChoice",
    "TopologyEstimate",
    "choose_topology",
    "compare_plans",
    "check_theorem2",
    "default_site_ids",
    "estimate_plan",
    "estimate_topology_costs",
    "execute_plan",
    "execute_plan_scheduled",
    "execute_query",
    "execute_query_scheduled",
    "plan_query",
    "theorem2_bound",
    "tree_for",
]
