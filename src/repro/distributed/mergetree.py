"""Merge topology as data: one tree, priced and executed from one object.

The paper's Section 6 names "a multi-tiered coordinator architecture or
spanning-tree networks" as future work. Both are the same mechanism: a
tree whose leaves are Skalla sites, whose root is the query coordinator,
and whose interior nodes are *combiners*. Every node

- ships each child ONE copy of the base-result fragment that child's
  sites can use (the union of their aware-reduction fragments), and
- merges its children's sub-results by key before answering its parent —
  sub-aggregate components combine associatively
  (:func:`repro.gmdj.operator.merge_sub_results`, Theorem 1), so every
  edge below a merge carries at most |Q| rows per round however many
  sites sit beneath it.

The root runs Theorem-1 synchronization on the merged streams exactly as
the star does, which is why every tree shape returns the flat star's
relation for every plan the optimizer emits.

:class:`MergeTree` is the value the cost model prices
(:func:`repro.distributed.costing.estimate_topology_costs`) and
:func:`execute_plan_tree` executes; :func:`tree_for` maps a topology
label to it, so the tree that is priced *is* the tree that runs. The
flat star is the depth-1 tree (:attr:`MergeTree.is_star`); the scheduler
hands that shape to :func:`repro.distributed.evaluator.execute_plan`,
the path that owns engines, recovery and the socket transport.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Optional, Sequence

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.coordinator import Coordinator
from repro.distributed.evaluator import DistributedResult, ExecutionConfig
from repro.distributed.executor import SiteRequest, perform_site_request
from repro.distributed.plan import MDRound, Plan
from repro.distributed.stats import ExecutionStats, RoundStats
from repro.errors import NetworkError, PlanError
from repro.gmdj.expression import LiteralBase
from repro.gmdj.operator import merge_sub_results
from repro.net import message as msg
from repro.net import serialize
from repro.net.channel import Network
from repro.obs.metrics import activate
from repro.obs.tracer import NULL_TRACER
from repro.relalg import compiler
from repro.relalg.engine import use_engine
from repro.relalg.expressions import BASE_VAR
from repro.relalg.operators import union_all
from repro.relalg.relation import Relation

#: Name of every tree's root: the query coordinator.
ROOT_NAME = "coordinator"
#: Name prefix of the interior nodes the builders create; it is also how
#: a combiner's edge shows up among a round's per-site statistics.
COMBINER_PREFIX = "combiner:"


@dataclass(frozen=True)
class MergeTree:
    """A node of the merge tree: a site (leaf) or a merge point."""

    name: str
    children: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_star(self) -> bool:
        """True when every child of this node is a site: the flat star."""
        return not self.is_leaf and all(child.is_leaf for child in self.children)

    def leaves(self) -> tuple:
        if self.is_leaf:
            return (self.name,)
        return tuple(
            itertools.chain.from_iterable(child.leaves() for child in self.children)
        )

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def descendants(self):
        """Every node below this one, parents before their children."""
        for child in self.children:
            yield child
            yield from child.descendants()

    def validate(self) -> None:
        seen = {self.name}
        for node in self.descendants():
            if node.name in seen:
                raise NetworkError(f"duplicate node name {node.name!r} in tree")
            seen.add(node.name)

    # -- builders ---------------------------------------------------------------

    @classmethod
    def flat(cls, site_ids: Sequence[str]) -> "MergeTree":
        """The star: every site a child of the coordinator."""
        site_ids = tuple(site_ids)
        if not site_ids:
            raise NetworkError("a merge tree needs at least one site")
        return cls(ROOT_NAME, tuple(cls(site_id) for site_id in site_ids))

    @classmethod
    def regions(cls, site_ids: Sequence[str], region_count: int) -> "MergeTree":
        """Two levels: sites dealt round-robin into ``region_count`` combiners.

        ``region_count`` must lie in ``1..len(site_ids)`` — fewer would
        build no region at all, more would leave regions empty; either
        is a caller bug (``ValueError``), not a network condition.
        """
        site_ids = tuple(site_ids)
        if not isinstance(region_count, int) or isinstance(region_count, bool):
            raise ValueError(f"region_count must be an int, got {region_count!r}")
        if not 1 <= region_count <= len(site_ids):
            raise ValueError(
                f"region_count must be in 1..{len(site_ids)} "
                f"(one region per site at most), got {region_count}"
            )
        return cls(
            ROOT_NAME,
            tuple(
                cls(
                    f"{COMBINER_PREFIX}{index}",
                    tuple(cls(site_id) for site_id in site_ids[index::region_count]),
                )
                for index in range(region_count)
            ),
        )

    @classmethod
    def fanout(cls, site_ids: Sequence[str], fanout: int) -> "MergeTree":
        """Group nodes ``fanout`` at a time, level by level, up to the root.

        ``fanout`` must be an integer >= 2: a smaller one never shrinks
        a level, so the grouping would not terminate (``ValueError``).
        """
        if not isinstance(fanout, int) or isinstance(fanout, bool):
            raise ValueError(f"fanout must be an int, got {fanout!r}")
        if fanout < 2:
            raise ValueError(
                f"fanout must be at least 2 (a fanout of {fanout} cannot reduce "
                "a level, so the tree would never converge)"
            )
        level = cls.flat(site_ids).children
        names = (f"{COMBINER_PREFIX}{index}" for index in itertools.count())
        while len(level) > fanout:
            groups = [
                level[start : start + fanout]
                for start in range(0, len(level), fanout)
            ]
            level = tuple(
                group[0] if len(group) == 1 else cls(next(names), group)
                for group in groups
            )
        return cls(ROOT_NAME, level)


def parse_topology(label: str) -> tuple:
    """``"flat" | "hierarchical:R" | "chain:F"`` -> ``(kind, parameter)``."""
    if label == "flat":
        return "flat", 0
    kind, _, raw = label.partition(":")
    if kind in ("hierarchical", "chain") and raw.isdigit() and int(raw) > 0:
        return kind, int(raw)
    raise PlanError(
        f"unknown topology {label!r}; expected 'auto', 'flat', "
        "'hierarchical:<regions>' or 'chain:<fanout>'"
    )


def tree_for(label: str, site_ids: Sequence[str]) -> MergeTree:
    """The merge tree a topology label denotes over ``site_ids``."""
    kind, parameter = parse_topology(label)
    try:
        if kind == "hierarchical":
            return MergeTree.regions(site_ids, parameter)
        if kind == "chain":
            return MergeTree.fanout(site_ids, parameter)
        return MergeTree.flat(site_ids)
    except ValueError as error:
        raise PlanError(f"topology {label!r} unavailable: {error}") from error


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute_plan_tree(
    cluster: SimulatedCluster,
    tree: MergeTree,
    plan: Plan,
    config: Optional[ExecutionConfig] = None,
    tracer=None,
    metrics=None,
    query_id=None,
) -> DistributedResult:
    """Run a plan over ``tree``: sites at the leaves, merges inside.

    ``cluster`` supplies the sites (its own star network is not used;
    every tree edge gets a channel of its own, and every relation
    crosses it as an encoded :class:`~repro.net.message.Message`).
    ``config`` contributes the evaluation engine and the wire codec —
    the tree runs its legs inline, one after another, and reports
    ``executor="serial"`` whatever ``config.executor`` says; the contexts
    a tree cannot honour at all are listed in
    :func:`repro.distributed.scheduler._pinned_to_flat_reason`.

    The span tree is ``query → round → combiner.hop`` (one hop per
    interior node per round, enclosing everything below it) with the
    usual ``round.*`` site spans at the leaves; ``metrics`` becomes the
    active registry for the duration.
    """
    if tracer is None:
        tracer = NULL_TRACER
    config = config or ExecutionConfig()
    tree.validate()
    if tree.is_leaf:
        raise NetworkError("the root of a merge tree must merge, not be a site")
    missing = set(plan.sites) - set(tree.leaves())
    if missing:
        raise PlanError(f"merge tree does not cover sites {sorted(missing)}")
    with activate(metrics) if metrics is not None else contextlib.nullcontext():
        return _execute(cluster, tree, plan, config, tracer, metrics, query_id)


def _execute(cluster, tree, plan, config, tracer, metrics, query_id):
    network = Network([node.name for node in tree.descendants()], metrics=metrics)
    network.tracer = tracer
    shape = "flat" if tree.is_star else f"tree:{tree.depth()}"
    stats = ExecutionStats(
        executor="serial", topology=shape, query_id=query_id,
        wire_codec=config.wire_codec,
    )
    coordinator = Coordinator(plan.expression.key, tracer)
    ids = {} if query_id is None else {"query_id": query_id}
    combiners = {
        node.name: tuple(child.name for child in node.children)
        for node in tree.descendants()
        if not node.is_leaf
    }

    def run_round(number, kind, description, sites, md_round, synchronize):
        round_stats = stats.new_round(kind, description)
        round_stats.children = dict(combiners)
        walk = _RoundWalk(
            cluster, tree, plan, config, tracer, network, ids,
            number, round_stats, md_round, frozenset(sites),
        )
        started = time.perf_counter()
        with tracer.span(
            "round", kind="round", index=round_stats.index, round_kind=kind,
            sites=len(sites),
        ) as round_span:
            fragment = coordinator.x if walk.ships_fragment else None
            collected = walk.descend(tree, fragment)
            merge_started = time.perf_counter()
            synchronize(collected)
            round_stats.coordinator_compute_s += time.perf_counter() - merge_started
            round_span.set(
                bytes_down=round_stats.bytes_down,
                bytes_up=round_stats.bytes_up,
                coordinator_compute_s=round_stats.coordinator_compute_s,
            )
        round_stats.wall_s = time.perf_counter() - started

    with use_engine(config.engine), tracer.span(
        "query", kind="query", rounds=len(plan.rounds),
        sites=len(tree.leaves()), topology=shape, **ids,
    ):
        base = plan.base
        if base.merged_into_chain:
            pass
        elif base.is_distributed:
            run_round(
                0, "base", f"distributed over {len(base.sites)} sites",
                base.sites, None, coordinator.sync_base,
            )
        else:
            if not isinstance(base.source, LiteralBase):
                raise PlanError(
                    f"non-distributed base must be literal, got {base.source!r}"
                )
            round_stats = stats.new_round("base", "literal base at coordinator")
            started = time.perf_counter()
            coordinator.set_base(base.source.relation)
            round_stats.coordinator_compute_s += time.perf_counter() - started
            round_stats.wall_s = round_stats.coordinator_compute_s

        for number, md_round in enumerate(plan.rounds, start=1):
            blocks = md_round.all_blocks()
            finish = (
                coordinator.assemble_from_chain
                if md_round.merged_base
                else coordinator.synchronize
            )
            run_round(
                number,
                "chain" if md_round.is_chain else "md",
                f"steps={len(md_round.steps)} sites={len(md_round.sites)}",
                md_round.sites,
                md_round,
                lambda collected: finish(collected, blocks),
            )
    return DistributedResult(coordinator.x, stats, plan)


@dataclass
class _RoundWalk:
    """One round of the plan, walked down the tree and merged back up.

    ``md_round`` is None for the base-values round. Base and merged-base
    (Proposition 2) rounds send only a request header down; ordinary
    rounds ship the base-result fragment, narrowed at every hop to what
    the sites below can use.
    """

    cluster: SimulatedCluster
    tree: MergeTree
    plan: Plan
    config: ExecutionConfig
    tracer: object
    network: Network
    ids: dict  # {"query_id": ...} when the run has one
    number: int
    round_stats: RoundStats
    md_round: Optional[MDRound]
    participating: frozenset

    @property
    def ships_fragment(self) -> bool:
        return self.md_round is not None and not self.md_round.merged_base

    def descend(self, node: MergeTree, fragment: Optional[Relation]) -> list:
        """The sub-results of ``node``'s children, each subtree already merged.

        ``fragment`` is the part of the base-result structure ``node``
        holds this round (None when the round ships none).
        """
        collected = []
        for child in node.children:
            below = [
                site_id
                for site_id in child.leaves()
                if site_id in self.participating
            ]
            if below:
                collected.append(self._leg(node, child, below, fragment))
        return collected

    def _leg(self, node, child, below, fragment) -> Relation:
        """One edge, both ways: ship down, let the child answer, decode."""
        codec = self.config.wire_codec
        edge = self.round_stats.site(child.name)
        channel = self.network.channel(child.name)

        started = time.perf_counter()
        if self.ships_fragment:
            shipped = _restrict(
                fragment, [self.md_round.ship_filter(site_id) for site_id in below]
            )
            down = msg.Message.with_relation(
                msg.SHIP_BASE, node.name, child.name, self.number, shipped,
                codec=codec,
            )
            edge.tuples_down += len(shipped)
            edge.row_equiv_bytes_down += _row_codec_bytes(shipped, down, codec)
        else:
            down = msg.Message(msg.BASE_QUERY, node.name, child.name, self.number)
            edge.row_equiv_bytes_down += down.size_bytes
        self._charge(node, time.perf_counter() - started)
        channel.send_to_site(down)
        edge.bytes_down += down.size_bytes
        received = channel.receive_at_site()

        if child.is_leaf:
            reply = perform_site_request(
                self.cluster.site(child.name),
                self._site_request(child.name, received),
                self.tracer,
            )
            edge.compute_s += reply.compute_s
            up = self._reply(child, node, reply.payloads[0])
            edge.row_equiv_bytes_up += msg.HEADER_BYTES + reply.row_codec_payload_bytes
            edge.tuples_up += reply.rows
        else:
            with self.tracer.span(
                "combiner.hop", kind="relay", node=child.name,
                round=self.round_stats.index, children=len(child.children),
                **self.ids,
            ) as hop:
                started = time.perf_counter()
                held = received.relation() if self.ships_fragment else None
                self._charge(child, time.perf_counter() - started)
                collected = self.descend(child, held)
                started = time.perf_counter()
                merged = self._merge(collected)
                up = self._reply(
                    child, node, serialize.encode_relation(merged, codec)
                )
                self._charge(child, time.perf_counter() - started)
                hop.set(bytes_up=up.size_bytes)
            edge.row_equiv_bytes_up += _row_codec_bytes(merged, up, codec)
            edge.tuples_up += len(merged)
        channel.send_to_coordinator(up)
        edge.bytes_up += up.size_bytes

        started = time.perf_counter()
        answer = channel.receive_at_coordinator().relation()
        self._charge(node, time.perf_counter() - started)
        return answer

    def _site_request(self, site_id: str, received) -> SiteRequest:
        shared = dict(
            site_id=site_id,
            round_number=self.number,
            traced=self.tracer.enabled,
            query_id=self.ids.get("query_id"),
            engine=self.config.engine,
            wire_codec=self.config.wire_codec,
        )
        md_round = self.md_round
        if md_round is None:
            return SiteRequest(kind="base", source=self.plan.base.source, **shared)
        shared.update(
            steps=tuple(md_round.steps), key_attrs=tuple(self.plan.expression.key)
        )
        if md_round.merged_base:
            return SiteRequest(kind="merged", source=self.plan.base.source, **shared)
        return SiteRequest(
            kind="round",
            independent_reduction=md_round.independent_reduction,
            down_payloads=(received.payload,),
            **shared,
        )

    def _reply(self, child, node, payload) -> msg.Message:
        kind = msg.BASE_RESULT if self.md_round is None else msg.SUB_RESULT
        return msg.Message(kind, child.name, node.name, self.number, payload)

    def _merge(self, collected) -> Relation:
        """What a combiner forwards: its children's results, one row per key."""
        combined = union_all(collected)
        if self.md_round is None:
            return combined.distinct()
        return merge_sub_results(
            combined, self.plan.expression.key, self.md_round.all_blocks()
        )

    def _charge(self, node, seconds: float) -> None:
        """Book compute time to the node that spent it."""
        if node is self.tree:
            self.round_stats.coordinator_compute_s += seconds
        else:
            self.round_stats.site(node.name).compute_s += seconds


def _restrict(fragment: Relation, ship_filters) -> Relation:
    """The rows of ``fragment`` some site below can use (aware reduction)."""
    if any(ship_filter is None for ship_filter in ship_filters):
        return fragment
    predicate = compiler.compile_predicate(
        reduce(or_, ship_filters), {BASE_VAR: fragment.schema}, (BASE_VAR,)
    )
    return fragment.select_fn(predicate)


def _row_codec_bytes(relation: Relation, message, codec: str) -> int:
    """What ``message`` weighs under the row codec — measured, as the star does."""
    if codec == "row":
        return message.size_bytes
    return msg.HEADER_BYTES + serialize.wire_size(relation)
