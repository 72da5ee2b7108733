"""Alg. GMDJDistribEval: executing a plan over a merge tree.

This is the mediator of Fig. 1 in the paper. It drives the plan round by
round — ship the X fragment down, sites evaluate, ship Hᵢ up,
synchronize by Theorem 1 — over a
:class:`~repro.distributed.mergetree.MergeTree`: the paper's star is the
depth-1 tree, its Section 6 multi-tiered coordinator the same round with
a merge at interior nodes. One :class:`_RoundWalk` serves both, and one
edge function serves every parent -> child edge of every round kind, so
what a run is configured with (leg engine, retry/degrade, speculation,
row blocking, fault plan) is a property of an edge, not
of a shape. Every relation moves as encoded bytes over the edge's
channel, so traffic numbers are real wire sizes.

Attribution rules for the measured times:

- a site is charged for decoding its incoming fragment, evaluating the
  GMDJ step(s), and encoding its sub-result;
- a parent (the coordinator, or a combiner) is charged for
  producing/encoding its children's fragments and decoding their
  replies, a combiner also for its merge, the coordinator for the
  Theorem-1 synchronization;
- communication *time* is not measured (everything is in-process) — it
  is modeled from the measured bytes by the cost model in
  ``repro.distributed.stats``.

Tracing: pass a live :class:`~repro.obs.tracer.Tracer` to record the
span tree ``query → round → round.{encode,evaluate,decode,merge}`` (with
one ``combiner.hop`` around everything below an interior node), and a
:class:`~repro.obs.metrics.MetricsRegistry` to capture the GMDJ operator
counters for the run. Both default to no-ops, so the untraced hot path
pays nothing beyond a handful of no-op calls per round.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.coordinator import Coordinator
from repro.distributed.executor import (
    EXECUTORS,
    SiteRequest,
    create_engine,
    row_blocks,
)
from repro.distributed.mergetree import MergeTree
from repro.distributed.optimizer import OptimizationOptions, plan_query
from repro.distributed.plan import Plan
from repro.distributed.recovery import (
    EXCLUDED,
    FAIL_FAST,
    FAILURE_MODES,
    RetryPolicy,
    SpeculationController,
    guard_leg,
)
from repro.distributed.stats import ExecutionStats, check_theorem2
from repro.errors import NetworkError, PlanError, ReproError
from repro.gmdj.expression import GMDJExpression, LiteralBase
from repro.gmdj.operator import merge_sub_results
from repro.net import message as msg
from repro.net import serialize
from repro.net.channel import Channel
from repro.net.costmodel import CostModel
from repro.obs.metrics import MetricsRegistry, activate
from repro.obs.tracer import NULL_TRACER
from repro.relalg.relation import Relation


#: The :class:`ExecutionConfig` fields no run can take a negative of.
_NON_NEGATIVE = (
    "row_block_size", "max_workers", "max_retries", "retry_backoff_s",
    "leg_timeout_s", "speculation_slack_s",
)


@dataclass(frozen=True)
class ExecutionConfig:
    """Runtime knobs of Alg. GMDJDistribEval.

    ``row_block_size`` enables *row blocking* (mentioned among the
    classical optimizations in Section 4): relations are shipped as a
    sequence of blocks of at most that many rows, each block its own
    message. More messages means more header bytes, but the coordinator
    synchronizes each arriving block immediately (Section 3.2's
    streaming merge), which in a real deployment overlaps transfer with
    merge work. ``0`` — the default and the *only* "unlimited" sentinel
    — ships each relation whole, one message per relation; ``None`` is
    rejected.

    ``executor`` picks the site-execution engine
    (:mod:`repro.distributed.executor`): ``"serial"`` runs the per-site
    legs one after another, ``"threads"`` fans them out on a thread
    pool, ``"sockets"`` asks ``repro site-server`` processes over TCP.
    All three executors produce bit-identical results, byte counts and
    trace span sets. ``max_workers`` caps the pool size; ``0`` sizes it
    automatically (one thread per site).

    The ``executor`` default honours the ``REPRO_EXECUTOR`` environment
    variable (used by the CI executor matrix to run the whole test suite
    under each engine); an explicit value always wins.

    ``failure_mode`` selects how the coordinator reacts when a site leg
    fails with a transport/codec error (see
    :mod:`repro.distributed.recovery`): ``"fail_fast"`` propagates the
    first failure, ``"retry"`` re-runs the leg with exponential backoff
    (``retry_backoff_s`` base, doubling, capped) up to ``max_retries``
    re-runs and at most ``leg_timeout_s`` wall-clock per leg (0 = no
    clock budget), and ``"degrade"`` spends the same budget but then
    completes the round *without* the site, recording the exclusion in
    the run's :class:`~repro.distributed.stats.ExecutionStats`.
    """

    row_block_size: int = 0  # 0 = unlimited (one message per relation)
    executor: str = field(
        default_factory=lambda: os.environ.get("REPRO_EXECUTOR", "serial")
    )
    max_workers: int = 0
    failure_mode: str = FAIL_FAST
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    leg_timeout_s: float = 0.0  # 0 = no per-leg wall-clock budget
    #: Speculative straggler re-execution. Once at least half a round's
    #: legs have completed, a deadline arms at ``median completion *
    #: speculation_factor + speculation_slack_s``; a leg still in flight
    #: past it is abandoned and re-run (first result wins), spending at
    #: most ``recovery.SPECULATION_MAX_BACKUPS`` backups per round.
    #: Abandonment needs a transport that can give up mid-wait, so it only
    #: fires under the socket transport; the controller itself is harmless
    #: (and inert) elsewhere.
    speculation: bool = False
    speculation_factor: float = 3.0
    speculation_slack_s: float = 0.05

    def __post_init__(self):
        if self.row_block_size is None:
            raise PlanError(
                "row_block_size must be an int; use 0 (not None) to ship "
                "each relation whole"
            )
        for name in _NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise PlanError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.executor not in EXECUTORS:
            raise PlanError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {', '.join(EXECUTORS)}"
            )
        if self.failure_mode not in FAILURE_MODES:
            raise PlanError(
                f"unknown failure mode {self.failure_mode!r}; "
                f"expected one of {', '.join(FAILURE_MODES)}"
            )
        if self.speculation_factor < 1.0:
            raise PlanError(
                f"speculation_factor must be >= 1.0, got {self.speculation_factor}"
            )

    def speculation_controller(self, site_count: int):
        """A fresh per-round controller, or None when speculation is off."""
        if not self.speculation or site_count < 1:
            return None
        return SpeculationController(
            site_count,
            factor=self.speculation_factor,
            slack_s=self.speculation_slack_s,
        )

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy.from_config(self)

    def blocks_of(self, relation: Relation) -> list:
        """Split a relation into shipping blocks per this config."""
        return row_blocks(relation, self.row_block_size)


@dataclass
class DistributedResult:
    """The answer relation plus everything measured while computing it."""

    relation: Relation
    stats: ExecutionStats
    plan: Plan
    #: Set by the topology scheduler
    #: (:func:`repro.distributed.scheduler.execute_plan_scheduled`): the
    #: :class:`~repro.distributed.scheduler.TopologyChoice` that picked
    #: this run's merge topology. None for directly-executed plans.
    topology_choice: object = None
    #: A single-GMDJ plan's H, one row per group: the key attributes and the
    #: merged sub-aggregate components an ``IncrementalView`` starts from.
    sub_results: Optional[Relation] = None

    def respects_theorem2(self) -> bool:
        """Check the Theorem 2 traffic bound against observed tuple counts."""
        base_sites, round_sites = self.plan.participating_site_counts()
        return check_theorem2(
            self.stats, len(self.relation), base_sites, round_sites
        )

    def response_time_s(self, model: Optional[CostModel] = None) -> float:
        return self.stats.response_time_s(model)


def execute_plan(
    cluster: SimulatedCluster,
    plan: Plan,
    config: Optional[ExecutionConfig] = None,
    tracer=None,
    metrics: Optional[MetricsRegistry] = None,
    engine=None,
    network=None,
    query_id=None,
    tree: Optional[MergeTree] = None,
) -> DistributedResult:
    """Run a plan over the cluster and return result + statistics.

    ``tree`` is the merge topology: sites at the leaves, the coordinator
    at the root, combiners (hosted in this process) in between. ``None``
    is the flat star over the cluster's sites. Whatever the shape, every
    round is one :class:`_RoundWalk` and every edge gets the same
    treatment, so engines, recovery, speculation and row blocking hold
    for any tree. The other arguments are :func:`open_run`'s.
    """
    with open_run(
        cluster, plan, config, tracer, metrics, engine, network, query_id, tree
    ) as walk:
        coordinator, stats = walk.coordinator, walk.stats
        with walk.tracer.span(
            "query", kind="query", rounds=len(plan.rounds),
            sites=cluster.site_count, **walk.ids,
        ):
            base = plan.base
            if base.merged_into_chain:
                pass  # Proposition 2: round 1 derives B0 at the sites
            elif base.is_distributed:
                walk.round(
                    0, None, base.sites, "base",
                    f"distributed over {len(base.sites)} sites",
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
                walk.round(
                    number, md_round, md_round.sites,
                    "chain" if md_round.is_chain else "md",
                    f"steps={len(md_round.steps)} sites={len(md_round.sites)}",
                )
    h = coordinator.session.sub_results() if len(plan.expression.steps) == 1 else None
    return DistributedResult(coordinator.x, stats, plan, sub_results=h)


@contextlib.contextmanager
def open_run(
    cluster, plan, config=None, tracer=None, metrics=None, engine=None,
    network=None, query_id=None, tree=None,
) -> Iterator["_RoundWalk"]:
    """The :class:`_RoundWalk` of one run — a plan's, or an incremental
    refresh's — set up and torn down; ``tree`` is :func:`execute_plan`'s.

    ``tracer`` (default: the shared no-op tracer) records the run's span
    tree; ``metrics`` (optional) becomes the active registry for the
    duration, so operator counters land next to the run's channel
    counters.

    ``engine``/``network`` support concurrent callers (the query
    service): an externally supplied engine is shared across calls and
    *not* closed here, and a supplied network replaces ``cluster.network``
    for this run only — its channels carry this run's fragments, its
    fault events feed this run's stats, and the cluster's own
    tracer/network state is left untouched (two runs mutating
    ``cluster.tracer`` concurrently would cross their span trees).

    ``query_id`` (optional) tags the run for per-query trace filtering:
    it lands on the root ``query`` span, on every site-worker and
    combiner span, and on the walk's
    :class:`~repro.distributed.stats.ExecutionStats`. On the way out the
    run's faults and transport land on those stats, and a deployed
    cluster's flight recorder notes the run.
    """
    if tracer is None:
        tracer = NULL_TRACER
    config = config or ExecutionConfig()
    if tree is None:
        tree = MergeTree.flat(cluster.site_ids)
    tree.validate()
    if tree.is_leaf:
        raise NetworkError("the root of a merge tree must merge, not be a site")
    missing = set(plan.sites) - set(tree.leaves())
    if missing:
        raise PlanError(f"merge tree does not cover sites {sorted(missing)}")
    watching = activate(metrics) if metrics is not None else contextlib.nullcontext()
    stats = ExecutionStats(
        executor=config.executor,
        topology="flat" if tree.is_star else f"tree:{tree.depth()}",
        failure_mode=config.failure_mode,
        query_id=query_id,
    )
    owns_cluster_state = network is None
    if network is None:
        network = cluster.network
    if owns_cluster_state:
        previous_tracer = cluster.tracer
        previous_network_tracer = network.tracer
        cluster.tracer = tracer
    network.tracer = tracer
    # Socket transport: estimate per-site clock offsets up front (a few
    # PING exchanges per site) so shipped site spans replay onto this
    # process's clock. Memory-transport networks have no sync_clocks and
    # need none — everything already shares one clock.
    sync_clocks = getattr(network, "sync_clocks", None)
    if tracer.enabled and sync_clocks is not None:
        try:
            stats.record_clocks(sync_clocks())
        except ReproError:
            pass
    external_engine = engine
    try:
        if engine is None:
            engine = create_engine(
                config.executor, cluster.sites, tracer, config.max_workers,
                network=network,
            )
        with watching:
            yield _RoundWalk(
                tree, plan, config, tracer, network, engine,
                Coordinator(plan.expression.key, tracer), stats, query_id,
            )
    finally:
        if owns_cluster_state:
            cluster.tracer = previous_tracer
            network.tracer = previous_network_tracer
        stats.record_faults(network.fault_events())
        stats.record_transport(network)
        # Deployed clusters keep a coordinator-side flight recorder; a
        # crash after this point still has the query's spans in the ring.
        flight = getattr(cluster, "flight", None)
        if flight is not None:
            flight.record_event(
                "query",
                rounds=len(stats.rounds),
                bytes_total=stats.bytes_total,
                faults=len(stats.faults),
                # The trace schema has no null query_id: unnumbered, no key.
                **({} if query_id is None else {"query_id": query_id}),
            )
            if tracer.enabled:
                flight.record_spans(tracer.finished())
        if engine is not None and engine is not external_engine:
            engine.close()


class _RoundWalk:
    """Alg. GMDJDistribEval's round, walked down the merge tree and merged
    back up. One walk serves a run; :meth:`round` takes its rounds in turn.

    Base and merged-base (Proposition 2) rounds send only a request
    header down; ordinary rounds ship the base-result fragment, narrowed
    at every hop to what the sites below can use (their ¬ψᵢ), and at the
    root's edges of an ``observed_reduction`` round also to the groups
    the sites below answered with in the round before.
    """

    def __init__(
        self, tree, plan, config, tracer, network, engine, coordinator, stats,
        query_id,
    ):
        self.tree = tree
        self.plan = plan
        self.config = config
        self.tracer = tracer
        self.network = network
        self.engine = engine
        self.coordinator = coordinator
        self.stats = stats
        self.ids = {} if query_id is None else {"query_id": query_id}
        #: Combiner name -> child names: the shape below the root.
        self.combiners = {
            node.name: tuple(child.name for child in node.children)
            for node in tree.descendants()
            if not node.is_leaf
        }
        # A combiner's edge is an in-memory channel owned by this run; a
        # site's edge is always the network's own channel.
        self.channels = {
            name: Channel(name, network.metrics) for name in self.combiners
        }
        #: The sites that answered the round before (not excluded from it).
        self.answered: frozenset = frozenset()
        self._lock = threading.Lock()

    def round(self, number, md_round, sites, kind, description, held=None, since=None, grows=None):
        """Walk one round from the root and synchronize what comes back.

        ``md_round`` is None for the base-values round; ``sites`` are the
        round's participants — a subtree holding none sits the round out.
        The round's wall time and span cover its setup as well, so the
        coordinator's per-round bookkeeping is attributed to the round.

        Given ``held``, the round *collects* (an incremental refresh's):
        ``held`` ships whole down every edge, ``since`` and ``grows`` go on
        the site requests, and the answers come back by child name, X
        untouched. Every round returns its answers (a streaming round's
        are placeholders).
        """
        coordinator = self.coordinator
        collects = held is not None
        started = time.perf_counter()
        round_stats = self.stats.new_round(kind, description)
        with self.tracer.span(
            "round", kind="round", index=round_stats.index, round_kind=kind,
            sites=len(sites),
        ) as round_span:
            round_stats.children = dict(self.combiners)
            self.number, self.md_round, self.round_stats = number, md_round, round_stats
            self.since, self.grows = since or {}, grows
            self.ships_fragment = md_round is not None and not md_round.merged_base
            # The round after this one narrows by what this one's fold observes.
            observes = (
                number < len(self.plan.rounds)
                and self.plan.rounds[number].observed_reduction
            )
            participating = set(sites)
            #: Node name -> the round's sites at or beneath that node.
            self.below = {
                node.name: [
                    site_id for site_id in node.leaves() if site_id in participating
                ]
                for node in self.tree.descendants()
            }
            # Pre-create the edges' stats in tree order so reporting order
            # does not depend on leg completion order.
            for name, below in self.below.items():
                if below:
                    round_stats.site(name)
            # Section 3.2's streaming merge: the root folds each arriving
            # block into the session. Base and merged-base rounds must see
            # every fragment before X exists, so they collect instead.
            self.session = None
            if self.ships_fragment and not collects:
                self.session = coordinator.begin_sync(
                    md_round.all_blocks(), observes=observes
                )
                held = coordinator.x
            answers = self.descend(self.tree, held, round_span)
            collected = list(answers.values())
            if len(round_stats.excluded) == len(sites) and not collects:
                raise PlanError(
                    f"round {number}: every participating site was excluded "
                    f"({', '.join(round_stats.excluded)}); nothing to synchronize"
                )
            merge_started = time.perf_counter()
            if collects:
                pass  # the caller folds what came back
            elif md_round is None:
                coordinator.sync_base(collected)
            elif md_round.merged_base:
                coordinator.assemble_from_chain(
                    collected, md_round.all_blocks(),
                    sources=list(answers) if observes else None,
                )
            else:
                coordinator.commit_sync(
                    self.session, excluded=tuple(round_stats.excluded)
                )
            self._charge(self.tree, time.perf_counter() - merge_started)
            round_span.set(
                bytes_down=round_stats.bytes_down,
                bytes_up=round_stats.bytes_up,
                coordinator_compute_s=round_stats.coordinator_compute_s,
            )
            if round_stats.excluded:
                round_span.set(excluded=",".join(round_stats.excluded))
        self.answered = participating.difference(round_stats.excluded)
        round_stats.wall_s = time.perf_counter() - started
        return answers

    def descend(self, node: MergeTree, held: Optional[Relation], span) -> dict:
        """What ``node``'s children answer, by child name, each subtree
        already merged.

        ``held`` is the part of the base-result structure ``node`` holds
        this round (None when the round ships none). Answers come back in
        child order whatever order the legs finish in, minus the edges
        ``degrade`` excluded; the root of a streaming round has absorbed
        them already and gets placeholders.

        Combiner children run on the calling thread and only site legs go
        through the engine, so no leg ever waits on another leg of the
        same bounded pool.
        """
        active = {
            child.name: child for child in node.children if self.below[child.name]
        }
        answers = {
            name: self._edge(node, child, held)
            for name, child in active.items()
            if not child.is_leaf
        }
        legs = [name for name, child in active.items() if child.is_leaf]
        if legs:
            guarded = guard_leg(
                lambda site_id: self._edge(node, active[site_id], held),
                policy=self.config.retry_policy(),
                network=self.network,
                round_index=self.number,
                round_stats=self.round_stats,
                tracer=self.tracer,
                session=self.session if node is self.tree else None,
                speculation=self.config.speculation_controller(len(legs)),
            )
            answers.update(zip(legs, self.engine.run_legs(legs, guarded, span)))
        return {
            name: answers[name] for name in active if answers[name] is not EXCLUDED
        }

    def _edge(self, node: MergeTree, child: MergeTree, held: Optional[Relation]):
        """One parent -> child edge, both ways: ship down, let the child
        answer (a site evaluates, a combiner recurses and merges), take
        the reply in at the parent."""
        config, number, name = self.config, self.number, child.name
        # Parent-side work is the coordinator's at the root, a relay's below.
        kind = "coordinator" if node is self.tree else "relay"
        edge = self.round_stats.site(name)
        channel = (
            self.network.channel(name) if child.is_leaf else self.channels[name]
        )
        # Consume any injected straggler delay for this attempt, before
        # anything is sent. The rule budget ("times") is spent here, so a
        # speculative backup re-run of the same leg gets 0 and races the
        # sleeping original. In-memory combiner channels never straggle.
        compute_delay_s = channel.next_straggle(number)

        if self.ships_fragment:
            started = time.perf_counter()
            with self.tracer.span("round.encode", kind=kind, site=name) as encode_span:
                fragment = self.coordinator.fragment_for_site(
                    *map(self.md_round.ship_filter, self.below[name]),
                    held=held,
                    positions=self._observed_positions(node, name),
                )
                down = [
                    msg.Message.with_relation(
                        msg.SHIP_BASE, node.name, name, number, block
                    )
                    for block in config.blocks_of(fragment)
                ]
                encode_span.set(
                    rows=len(fragment),
                    messages=len(down),
                    bytes=sum(shipment.size_bytes for shipment in down),
                )
            self._charge(node, time.perf_counter() - started)
            tuples_down = len(fragment)
        else:
            # Base values / Proposition 2: no shipment down beyond the
            # request header.
            down = [msg.Message(msg.BASE_QUERY, node.name, name, number)]
            tuples_down = 0
        for shipment in down:
            channel.send_to_site(shipment)
            edge.bytes_down += shipment.size_bytes
        edge.tuples_down += tuples_down

        if child.is_leaf:
            # Whoever hosts the site plays its end of the channel: the
            # engine in process, the site's server over TCP.
            reply = self.engine.evaluate(
                self._site_request(name, compute_delay_s), channel
            )
            edge.compute_s += reply.compute_s
            payloads = reply.payloads
            tuples_up = reply.rows
        else:
            # This process hosts the combiner, so it plays the child end.
            received = channel.take_at_site()
            with self.tracer.span(
                "combiner.hop", kind="relay", node=name,
                round=self.round_stats.index, children=len(child.children),
                **self.ids,
            ) as hop:
                started = time.perf_counter()
                held_below = (
                    Relation.union_all(*(shipment.relation() for shipment in received))
                    if self.ships_fragment
                    else None
                )
                self._charge(child, time.perf_counter() - started)
                collected = list(self.descend(child, held_below, hop).values())
                if not collected:
                    return EXCLUDED  # every site below was
                started = time.perf_counter()
                merged = self._merge(collected)
                blocks = config.blocks_of(merged)
                payloads = [serialize.encode_relation(block) for block in blocks]
                self._charge(child, time.perf_counter() - started)
                hop.set(bytes_up=_message_bytes(payloads))
            reply_kind = msg.BASE_RESULT if self.md_round is None else msg.SUB_RESULT
            for payload in payloads:
                channel.send_to_coordinator(
                    msg.Message(reply_kind, name, node.name, number, payload)
                )
            tuples_up = len(merged)
        # RoundStats keeps its own tally of what came up, from the reply.
        edge.bytes_up += _message_bytes(payloads)
        edge.tuples_up += tuples_up

        absorbs = self.session is not None and node is self.tree
        answer = []
        started = time.perf_counter()
        with self.tracer.span("round.decode", kind=kind, site=name):
            for _payload in payloads:
                block = channel.receive_at_coordinator().relation()
                if absorbs:
                    # Streaming merge: each block synchronizes on arrival.
                    self.session.absorb(block, source=name)
                else:
                    answer.append(block)
        self._charge(node, time.perf_counter() - started)
        return Relation.union_all(*answer) if answer else None

    def _observed_positions(self, node: MergeTree, name: str):
        """Which rows of X the root ships down edge ``name`` in an
        ``observed_reduction`` round, or None for all of them.

        Only the root narrows (it is who folded the round before), and
        only an edge whose every site answered that round: a site that was
        excluded from it, or sat it out, was observed touching nothing
        without having been asked. The set is read from the committed
        fold, by name — every attempt at the edge, a speculative backup
        included, is cut the same fragment.
        """
        if (
            node is self.tree
            and self.md_round.observed_reduction
            and self.answered.issuperset(self.below[name])
        ):
            return self.coordinator.touched_by(name)
        return None

    def _site_request(self, site_id, compute_delay_s) -> SiteRequest:
        shared = dict(
            site_id=site_id,
            round_number=self.number,
            traced=self.tracer.enabled,
            query_id=self.ids.get("query_id"),
            compute_delay_s=compute_delay_s,
        )
        md_round = self.md_round
        if md_round is None:
            return SiteRequest(kind="base", source=self.plan.base.source, **shared)
        shared.update(
            steps=tuple(md_round.steps),
            key_attrs=tuple(self.plan.expression.key),
            row_block_size=self.config.row_block_size,
        )
        if md_round.merged_base:
            return SiteRequest(kind="merged", source=self.plan.base.source, **shared)
        return SiteRequest(
            kind="round",
            independent_reduction=md_round.independent_reduction,
            since=self.since.get(site_id, 0),
            source=self.grows,
            **shared,
        )

    def _merge(self, collected) -> Relation:
        """What a combiner forwards: its children's results, one row per key."""
        combined = Relation.union_all(*collected)
        if self.md_round is None:
            return combined.distinct()
        return merge_sub_results(
            combined, self.plan.expression.key, self.md_round.all_blocks()
        )

    def _charge(self, node, seconds: float) -> None:
        """Book compute time to the node that spent it."""
        with self._lock:  # legs of one parent finish on different threads
            if node is self.tree:
                self.round_stats.coordinator_compute_s += seconds
            else:
                self.round_stats.site(node.name).compute_s += seconds


def _message_bytes(payloads) -> int:
    """What ``payloads`` weigh as messages, one header each."""
    return sum(len(payload) + msg.HEADER_BYTES for payload in payloads)


def execute_query(
    cluster: SimulatedCluster,
    expression: GMDJExpression,
    options: Optional[OptimizationOptions] = None,
    config: Optional[ExecutionConfig] = None,
    tracer=None,
    metrics: Optional[MetricsRegistry] = None,
    engine=None,
    network=None,
    query_id=None,
) -> DistributedResult:
    """Plan and execute a GMDJ expression in one call."""
    plan = plan_query(expression, cluster.catalog, options)
    return execute_plan(
        cluster, plan, config, tracer=tracer, metrics=metrics,
        engine=engine, network=network, query_id=query_id,
    )
