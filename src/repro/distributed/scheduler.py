"""Cost-driven merge-topology scheduling.

The paper's Section 6 names alternative architectures — multi-tiered
coordinators and spanning-tree networks — as future work; this repo
models both as one :class:`~repro.distributed.mergetree.MergeTree`. This
module closes the loop: instead of the *caller* hard-coding a topology,
the scheduler prices every candidate tree with the plan's traffic
estimate (:func:`repro.distributed.costing.estimate_topology_costs`) and
executes the cheapest one, so ``execute_plan_scheduled`` is the single
entry point and the topology becomes a planner decision like any other.

Decision inputs, per query:

- the plan's estimated per-round tuple volumes (|Q|, per-site down/up);
- the cost model (latency/bandwidth of the coordinator's links);
- the candidate shapes: flat star, two-level hierarchies (region
  counts), and deeper combiner trees (fanouts).

Objective: minimum estimated response time, ties broken by root-link
bytes (the scarce resource), then by simplicity (flat wins exact ties).

Every topology is result-equivalent for every plan the optimizer emits —
``tests/test_mergetree.py`` proves bit-identical relations — so the
choice is purely a performance decision and can never change an answer.

Dispatch is *label -> tree -> one executor*: the chosen label names a
:class:`~repro.distributed.mergetree.MergeTree`
(:func:`~repro.distributed.mergetree.tree_for`) and
:func:`~repro.distributed.evaluator.execute_plan` walks it, the star
included. The one thing a tree cannot honour is a real transport —
combiners are hosted in the coordinator process, so over sockets a
non-flat tree would move no byte off the root link
(:func:`_pinned_to_flat_reason`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.costing import (
    StatisticsStore,
    TopologyEstimate,
    estimate_topology_costs,
)
from repro.distributed.evaluator import (
    DistributedResult,
    ExecutionConfig,
    execute_plan,
)
from repro.distributed.mergetree import parse_topology, tree_for
from repro.distributed.plan import Plan
from repro.errors import PlanError
from repro.net.costmodel import CostModel, WAN

#: Candidate shape parameters the scheduler prices by default.
DEFAULT_REGION_COUNTS = (2, 4)
DEFAULT_FANOUTS = (2, 3)


@dataclass
class TopologyChoice:
    """The scheduler's decision for one query, with its evidence.

    ``chosen``/``candidates`` carry the estimates the decision was made
    on; ``measured_response_time_s`` and ``measured_root_link_bytes``
    are filled in after execution so ``repro explain --analyze`` can
    report the measured-vs-estimated saving honestly.
    """

    chosen: TopologyEstimate
    candidates: tuple = ()
    reason: str = ""
    model: CostModel = field(default_factory=lambda: WAN)
    measured_response_time_s: Optional[float] = None
    measured_root_link_bytes: Optional[int] = None

    @property
    def topology(self) -> str:
        return self.chosen.label

    @property
    def flat(self) -> TopologyEstimate:
        for candidate in self.candidates:
            if candidate.kind == "flat":
                return candidate
        return self.chosen

    @property
    def estimated_saving_s(self) -> float:
        """Predicted response-time saving vs the flat star."""
        return self.flat.response_time_s - self.chosen.response_time_s

    @property
    def measured_saving_s(self) -> Optional[float]:
        """Measured response time vs the flat *estimate* (None pre-run)."""
        if self.measured_response_time_s is None:
            return None
        return self.flat.response_time_s - self.measured_response_time_s

    def to_dict(self) -> dict:
        return {
            "topology": self.topology,
            "reason": self.reason,
            "chosen": self.chosen.to_dict(),
            "candidates": [candidate.to_dict() for candidate in self.candidates],
            "estimated_saving_s": self.estimated_saving_s,
            "measured_response_time_s": self.measured_response_time_s,
            "measured_saving_s": self.measured_saving_s,
            "measured_root_link_bytes": self.measured_root_link_bytes,
        }


def choose_topology(
    plan: Plan,
    statistics: StatisticsStore,
    catalog=None,
    model: CostModel = WAN,
    allow_non_flat: bool = True,
    region_counts=DEFAULT_REGION_COUNTS,
    fanouts=DEFAULT_FANOUTS,
) -> TopologyChoice:
    """Pick the cheapest merge topology for one plan.

    Ranking key: estimated response time, then root-link bytes, then
    flat-first (an exact tie never buys complexity). With
    ``allow_non_flat=False`` only the flat candidate is priced — used
    when the execution context (a real transport) pins the topology.
    """
    candidates = estimate_topology_costs(
        plan, statistics, catalog, model=model,
        region_counts=region_counts if allow_non_flat else (),
        fanouts=fanouts if allow_non_flat else (),
    )
    ranked = sorted(
        candidates,
        key=lambda candidate: (
            candidate.response_time_s,
            candidate.root_link_bytes,
            0 if candidate.kind == "flat" else 1,
            candidate.label,
        ),
    )
    chosen = ranked[0]
    flat = next(c for c in candidates if c.kind == "flat")
    if chosen.kind == "flat":
        reason = (
            f"flat star is cheapest ({chosen.response_time_s:.4f}s estimated); "
            f"{len(candidates) - 1} alternative(s) priced"
        )
    else:
        reason = (
            f"{chosen.label} saves {flat.response_time_s - chosen.response_time_s:.4f}s "
            f"({flat.response_time_s:.4f}s flat -> {chosen.response_time_s:.4f}s) "
            f"and cuts root-link bytes {flat.root_link_bytes:.0f} -> "
            f"{chosen.root_link_bytes:.0f}"
        )
    return TopologyChoice(
        chosen=chosen, candidates=candidates, reason=reason, model=model
    )


# ---------------------------------------------------------------------------
# Scheduled execution
# ---------------------------------------------------------------------------


def execute_plan_scheduled(
    cluster,
    plan: Plan,
    config: Optional[ExecutionConfig] = None,
    tracer=None,
    metrics=None,
    query_id=None,
    statistics: Optional[StatisticsStore] = None,
    model: CostModel = WAN,
    topology: str = "auto",
) -> DistributedResult:
    """Execute a plan under the scheduler-selected merge topology.

    The topology is an output of cost-based planning rather than a
    caller decision. Returns a
    :class:`~repro.distributed.evaluator.DistributedResult` whose
    ``stats.topology`` names the executed shape, whose ``stats.model``
    is ``model`` (so ``stats.response_time_s()`` reports what the
    planner priced with), and whose ``topology_choice`` carries the full
    decision (candidates, reason, measured-vs-estimated numbers).

    ``topology`` forces a shape (``"flat"``, ``"hierarchical:2"``,
    ``"chain:2"``) or lets the cost model decide (``"auto"``). Shapes
    other than the star need in-process sites; see
    :func:`_pinned_to_flat_reason`, whose answer is recorded in the
    choice's reason (``auto``) or raised (forced).
    """
    config = config or ExecutionConfig()
    pinned_reason = _pinned_to_flat_reason(cluster)

    if statistics is None and isinstance(cluster, SimulatedCluster):
        statistics = StatisticsStore.from_cluster(cluster)

    if topology == "auto":
        if statistics is None:
            choice = _flat_only_choice(
                plan, model, "no statistics available for costing"
            )
        else:
            choice = choose_topology(
                plan, statistics, cluster.catalog, model=model,
                allow_non_flat=pinned_reason is None,
            )
            if pinned_reason is not None:
                choice.reason = f"pinned to flat: {pinned_reason}"
    else:
        kind, parameter = parse_topology(topology)
        candidates = (TopologyEstimate("flat", "flat"),)
        if statistics is not None:
            candidates = estimate_topology_costs(
                plan, statistics, cluster.catalog, model=model,
                region_counts=(parameter,) if kind == "hierarchical" else (),
                fanouts=(parameter,) if kind == "chain" else (),
            )
        chosen = next(
            (c for c in candidates if c.label == topology),
            TopologyEstimate(topology, kind, parameter),
        )
        choice = TopologyChoice(
            chosen=chosen, candidates=candidates,
            reason=f"topology {topology!r} forced by caller", model=model,
        )

    if pinned_reason is not None and choice.chosen.kind != "flat":
        raise PlanError(f"topology {topology!r} unavailable: {pinned_reason}")
    result = execute_plan(
        cluster, plan, config, tracer=tracer, metrics=metrics,
        query_id=query_id, tree=tree_for(choice.chosen.label, plan.sites),
    )
    result.stats.topology = choice.chosen.label
    result.stats.model = model
    choice.measured_response_time_s = result.stats.response_time_s()
    choice.measured_root_link_bytes = result.stats.root_link_bytes
    result.topology_choice = choice
    return result


def execute_query_scheduled(
    cluster,
    expression,
    options=None,
    config: Optional[ExecutionConfig] = None,
    tracer=None,
    metrics=None,
    query_id=None,
    statistics: Optional[StatisticsStore] = None,
    model: CostModel = WAN,
    topology: str = "auto",
) -> DistributedResult:
    """Plan with Egil, then execute under the scheduled topology."""
    from repro.distributed.optimizer import plan_query

    plan = plan_query(expression, cluster.catalog, options)
    return execute_plan_scheduled(
        cluster, plan, config, tracer=tracer, metrics=metrics,
        query_id=query_id, statistics=statistics, model=model,
        topology=topology,
    )


def _pinned_to_flat_reason(cluster) -> Optional[str]:
    """Why this cluster cannot run a non-flat topology.

    Only the transport can: combiners are hosted in the coordinator
    process, so with sites behind a real wire a tree's merged streams
    never leave the root link and the cost model's saving would be
    fiction. Everything else a run can ask for is a property of an edge
    and holds on any tree.
    """
    if not isinstance(cluster, SimulatedCluster):
        return "non-flat merging needs in-process sites (simulated cluster)"
    return None


def _flat_only_choice(plan: Plan, model: CostModel, reason: str) -> TopologyChoice:
    flat = TopologyEstimate("flat", "flat")
    return TopologyChoice(
        chosen=flat, candidates=(flat,),
        reason=f"pinned to flat: {reason}", model=model,
    )
