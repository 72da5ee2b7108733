"""Alg. GMDJDistribEval: executing a plan over a merge tree.

This is the mediator of Fig. 1 in the paper. It drives the plan round by
round — ship the X fragment down, sites evaluate, ship Hᵢ up,
synchronize by Theorem 1 — over a
:class:`~repro.distributed.mergetree.MergeTree`: the paper's star is the
depth-1 tree, its Section 6 multi-tiered coordinator the same round with
a merge at interior nodes. One :class:`_RoundWalk` serves both, and one
edge function serves every parent -> child edge of every round kind, so
what a run is configured with (leg engine, retry/degrade, speculation,
fault plan) is a property of an edge, not of a shape. Every relation
moves as one encoded block over the edge's channel, so traffic numbers
are real wire sizes.

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
import time
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.coordinator import Coordinator
from repro.distributed.executor import (
    EXECUTORS,
    SiteRequest,
    create_engine,
    encode_answer,
    message_bytes,
    run_inline,
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
from repro.errors import NetworkError, PlanError, ReproError, StateMismatch
from repro.gmdj.blocks import block_output_attributes
from repro.gmdj.expression import GMDJExpression, LiteralBase
from repro.gmdj.operator import merge_addressed, merge_sub_results
from repro.net import message as msg
from repro.net import serialize
from repro.net.channel import Channel
from repro.net.costmodel import CostModel
from repro.obs.metrics import MetricsRegistry, activate, active_registry
from repro.obs.tracer import NULL_TRACER
from repro.relalg.compiler import VECTORIZED_COMPONENT_KINDS
from repro.relalg.expressions import BASE_VAR
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Attribute, Schema


#: The :class:`ExecutionConfig` fields no run can take a negative of.
_NON_NEGATIVE = (
    "max_retries", "retry_backoff_s", "leg_timeout_s", "speculation_slack_s",
)


@dataclass(frozen=True)
class ExecutionConfig:
    """Runtime knobs of Alg. GMDJDistribEval. Every relation on a leg
    ships whole, one message per relation in each direction.

    ``executor`` picks the site-execution engine
    (:mod:`repro.distributed.executor`, whose docstring says how each
    runs a round's legs): ``"serial"`` (the default) plays the sites in
    this process, ``"sockets"`` asks ``repro site-server`` processes over
    TCP and runs only against a deployed process cluster. Both executors
    produce bit-identical results, byte counts and trace span sets.

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

    executor: str = "serial"
    failure_mode: str = FAIL_FAST
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    leg_timeout_s: float = 0.0  # 0 = no per-leg wall-clock budget
    #: Speculative straggler re-execution. Once at least half a round's
    #: legs have completed, a deadline arms at ``median completion *
    #: speculation_factor + speculation_slack_s``; a leg still waiting for
    #: its reply past it is abandoned and re-run (first result wins),
    #: spending at most ``recovery.SPECULATION_MAX_BACKUPS`` backups per
    #: round. Only the sockets engine has legs waiting at once, so it only
    #: fires there; the controller is inert under the serial engine.
    speculation: bool = False
    speculation_factor: float = 3.0
    speculation_slack_s: float = 0.05

    def __post_init__(self):
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
    treatment, so engines, recovery and speculation hold for any tree.
    The other arguments are :func:`open_run`'s.
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
                round_stats = stats.new_round(0, "base", "literal base at coordinator")
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
            engine = create_engine(config.executor, cluster.sites, tracer, network)
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
    header down and are answered keyed; ordinary rounds ship the
    base-result fragment, narrowed at every hop to what the sites below
    can use (their ¬ψᵢ), and at the root's edges of an
    ``observed_reduction`` round also to the groups the sites below
    answered with in the round before, projected to the fields the round
    reads. They are answered by row address: each reply row names the
    fragment row it answers (``serialize.decode_reply``), which the
    parent maps to the row it holds — unless the round grows the base,
    whose new groups are no fragment rows.

    Such a root edge to a site ships *positionally*: its rows come in the
    site's own answer order, so K stays behind at the site, which kept it
    (``SkallaSite.remember_answer``), and the fragment names that answer
    by digest (``serialize.answer_digest``). The keyed fragment stays the
    logical one the reply is read against, and ships when the site has
    lost the answer (:class:`~repro.errors.StateMismatch`): on the same
    leg, both shipments counted. A later attempt of the leg (a retry, a
    speculative backup) ships keyed at once: the first took the answer.

    Such a fragment is also *sparse* where that ships fewer bytes: the
    round before's outputs ship only at the rows more than one source
    answered (``Coordinator.shared_rows``). At every other row X holds
    the one answering site's own sub-aggregates, folded and finalized,
    which the site kept and finalizes itself (``SkallaSite.rejoin``).
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
        #: Site -> the digest of its answer to the round before, when the
        #: site kept that answer's keys (the round after observes).
        self.answers_kept: dict = {}
        self._keeping: dict = {}  # the same, filled by the round walking
        #: The outputs of the round before that a site can finalize from
        #: its own answer: all of them when every component is a built-in
        #: kind, whose fold over one source is what X holds.
        self.derivable: frozenset = frozenset()
        #: Per row of X, whether more than one source answered it in the
        #: round before; ``None`` when no fragment ships positionally.
        self.shared = None

    def round(self, number, md_round, sites, kind, description, held=None, since=None, grows=None):
        """Walk one round from the root and synchronize what comes back.

        ``md_round`` is None for the base-values round; ``sites`` are the
        round's participants — a subtree holding none sits the round out.
        The round's wall time and span cover its setup as well, so the
        coordinator's per-round bookkeeping is attributed to the round.

        Given ``held``, the round *collects* (an incremental refresh's):
        ``held`` ships whole down every edge, ``since`` and ``grows`` go on
        the site requests, and the answers come back by child name, keyed,
        X untouched. Every round returns its answers (a streaming round's
        are placeholders).
        """
        coordinator = self.coordinator
        collects = held is not None
        started = time.perf_counter()
        round_stats = self.stats.new_round(number, kind, description)
        with self.tracer.span(
            "round", kind="round", index=round_stats.index, round_kind=kind,
            sites=len(sites),
        ) as round_span:
            round_stats.children = dict(self.combiners)
            self.number, self.md_round, self.round_stats = number, md_round, round_stats
            self.since, self.grows = since or {}, grows
            self.ships_fragment = md_round is not None and not md_round.merged_base
            # A shipped round is answered by row address, unless it grows the
            # base: its new groups are no rows of the fragment.
            self.addressed = self.ships_fragment and grows is None
            self.fields = self._read_fields() if self.ships_fragment else frozenset()
            self.sub_names = [
                attribute.name
                for block in (md_round.all_blocks() if md_round is not None else ())
                for attribute in block.sub_attributes()
            ]
            self._whole = {}  # (held, fields) -> the fragment of all of held, its payload
            self._keeping = {}
            # The round after this one narrows by what this one's fold observes.
            self.observes = observes = (
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
            # answer into the session. Base and merged-base rounds must see
            # every fragment before X exists, so they collect instead.
            self.session = None
            self.shared = None
            if self.ships_fragment and not collects:
                if self.answers_kept and self.derivable:
                    self.shared = coordinator.shared_rows()
                self.session = coordinator.begin_sync(
                    md_round.all_blocks(), observes=observes
                )
                held = coordinator.x
            answers = self.descend(self.tree, held)
            if collects and self.addressed:
                answers = {
                    name: _with_keys(held, self.plan.expression.key, *answer)
                    for name, answer in answers.items()
                }
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
        self.answers_kept = self._keeping
        self.derivable = _derivable(md_round)
        round_stats.wall_s = time.perf_counter() - started
        return answers

    def descend(self, node: MergeTree, held: Optional[Relation]) -> dict:
        """What ``node``'s children answer, by child name, each subtree
        already merged.

        ``held`` is the part of the base-result structure ``node`` holds
        this round (None when the round ships none). Answers come back in
        child order whatever order the legs finish in, minus the edges
        ``degrade`` excluded; the root of a streaming round has absorbed
        them already and gets placeholders.

        Combiner children run first, each straight through (its own sites'
        legs are a round of their own on the engine); then the engine runs
        the site legs.
        """
        active = {
            child.name: child for child in node.children if self.below[child.name]
        }
        answers = {
            name: run_inline(self._edge(node, child, held))
            for name, child in active.items()
            if not child.is_leaf
        }
        legs = [name for name, child in active.items() if child.is_leaf]
        if legs:
            speculation = self.config.speculation_controller(len(legs))
            guarded = guard_leg(
                lambda site_id: self._edge(node, active[site_id], held),
                policy=self.config.retry_policy(),
                network=self.network,
                round_index=self.number,
                round_stats=self.round_stats,
                tracer=self.tracer,
                session=self.session if node is self.tree else None,
                speculation=speculation,
            )
            answers.update(zip(legs, self.engine.run_legs(legs, guarded, speculation)))
        return {
            name: answers[name] for name in active if answers[name] is not EXCLUDED
        }

    def _edge(self, node: MergeTree, child: MergeTree, held: Optional[Relation]):
        """One parent -> child edge, both ways: ship down, let the child
        answer (a site evaluates, a combiner recurses and merges), take
        the reply in at the parent. A leg generator (see
        :mod:`repro.distributed.executor`): a site's turn yields while the
        site computes; no span is open across it."""
        number, name = self.number, child.name
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
        lose_state = channel.next_state_loss(number)

        positional = False
        if self.ships_fragment:
            started = time.perf_counter()
            with self.tracer.span("round.encode", kind=kind, site=name) as encode_span:
                fragment, kept, payload, positional, shared = self._fragment(
                    node, child, held
                )
                if positional:
                    encode_span.set(positional=True)
                if shared is not None:
                    encode_span.set(shared_rows=shared)
                down = self._shipment(node.name, name, payload, encode_span, len(fragment))
            self._charge(node, time.perf_counter() - started)
            tuples_down = len(fragment)
        else:
            # Base values / Proposition 2: no shipment down beyond the
            # request header.
            down = msg.Message(msg.BASE_QUERY, node.name, name, number)
            tuples_down = 0
        self._ship(channel, edge, down, tuples_down)

        if child.is_leaf:
            # Whoever hosts the site plays its end of the channel: the
            # engine in process, the site's server over TCP.
            request = self._site_request(
                name, compute_delay_s, lose_state, keep_answer=node is self.tree
            )
            try:
                reply = yield from self.engine.evaluate(request, channel)
            except StateMismatch:
                if not positional:
                    raise
                down = self._resend_keyed(node, name, channel, edge, fragment)
                reply = yield from self.engine.evaluate(
                    replace(request, compute_delay_s=0.0, lose_state=False), channel
                )
            edge.compute_s += reply.compute_s
            payload = reply.payload
            tuples_up = reply.rows
        else:
            # This process hosts the combiner, so it plays the child end.
            (received,) = channel.take_at_site()
            with self.tracer.span(
                "combiner.hop", kind="relay", node=name,
                round=self.round_stats.index, children=len(child.children),
                **self.ids,
            ) as hop:
                started = time.perf_counter()
                held_below = received.relation() if self.ships_fragment else None
                self._charge(child, time.perf_counter() - started)
                collected = list(self.descend(child, held_below).values())
                if not collected:
                    return EXCLUDED  # every site below was
                started = time.perf_counter()
                merged = self._merge(collected)
                if self.addressed:
                    # Answered by the rows of the combiner's own fragment.
                    merged, positions = merged
                    keys = serialize.carried_keys(
                        self.plan.expression.key, held_below.schema.names
                    )
                    payload = encode_answer(
                        _with_keys(held_below, keys, merged, positions),
                        len(keys), positions,
                    )
                else:
                    payload = encode_answer(merged)
                self._charge(child, time.perf_counter() - started)
                hop.set(bytes_up=message_bytes(payload))
            reply_kind = msg.BASE_RESULT if self.md_round is None else msg.SUB_RESULT
            channel.send_to_coordinator(
                msg.Message(reply_kind, name, node.name, number, payload)
            )
            tuples_up = len(merged)
        # RoundStats keeps its own tally of what came up, from the reply.
        edge.bytes_up += message_bytes(payload)
        edge.tuples_up += tuples_up

        # Streaming merge: the root of an ordinary round absorbs the answer
        # on arrival.
        absorbs = self.session is not None and node is self.tree
        positions = None
        started = time.perf_counter()
        with self.tracer.span("round.decode", kind=kind, site=name):
            message = channel.receive_at_coordinator()
            if self.addressed:
                # Only a fragment that carried K can be answered keyed.
                key = serialize.carried_keys(self.plan.expression.key, fragment.schema.names)
                answer, rows = serialize.decode_reply(message.payload, key, len(fragment))
                if rows is None:
                    answer, rows = _keyed_rows(fragment, answer, key)
                # The rows this node holds that it shipped as the rows answered.
                positions = rows if kept is None else kept[rows]
            else:
                answer = message.relation()
            if absorbs:
                self.session.absorb(answer, source=name, positions=positions)
            if self.observes and child.is_leaf and node is self.tree:
                self._keep(name, fragment if self.addressed else answer, down, message.payload)
        self._charge(node, time.perf_counter() - started)
        if absorbs:
            return None
        if self.addressed:
            return answer.project(self.sub_names), positions
        return answer

    def _shipment(self, parent, name, payload, span, rows) -> msg.Message:
        """The message carrying ``payload`` down edge ``name``, as the
        encode ``span`` records it."""
        down = msg.Message(msg.SHIP_BASE, parent, name, self.number, payload)
        span.set(rows=rows, bytes=down.size_bytes)
        return down

    def _ship(self, channel, edge, down: msg.Message, tuples: int) -> None:
        channel.send_to_site(down)
        edge.bytes_down += down.size_bytes
        edge.tuples_down += tuples

    def _resend_keyed(self, node, name, channel, edge, fragment) -> msg.Message:
        """A miss: the site keeps no answer the positional fragment names,
        so the keyed ``fragment`` follows on the same leg. Returns the
        message shipped."""
        active_registry().counter("site.round_state_misses").inc()
        started = time.perf_counter()
        with self.tracer.span(
            "round.encode", kind="coordinator", site=name, resend=True
        ) as encode_span:
            keyed = serialize.encode_relation(fragment)
            down = self._shipment(node.name, name, keyed, encode_span, len(fragment))
        self._charge(node, time.perf_counter() - started)
        self._ship(channel, edge, down, len(fragment))
        return down

    def _keep(self, name, keyed_by, down, answered) -> None:
        """Note the digest of site ``name``'s answer for the round after,
        which ships against it, when the site kept the answer's keys: the
        ones ``keyed_by`` (its answer's or fragment's schema) carries."""
        if self.md_round is None or not serialize.positional_keys(
            keyed_by.schema, self.plan.expression.key
        ):
            return
        self._keeping[name] = serialize.answer_digest(
            () if down.payload is None else (down.payload,), (answered,)
        )

    def _read_fields(self) -> frozenset:
        """The fields of X the round's sites read: its conditions' and
        aggregate inputs' base fields, and K when the answer is keyed."""
        fields = set() if self.addressed else set(self.plan.expression.key)
        for block in self.md_round.all_blocks():
            fields |= block.condition.attrs(BASE_VAR)
            for spec in block.aggregates:
                if spec.input_expr is not None:
                    fields |= spec.input_expr.attrs(BASE_VAR)
        return frozenset(fields)

    def _fragment(self, node: MergeTree, child: MergeTree, held: Relation) -> tuple:
        """``(fragment, kept, payload, positional, shared)`` shipped down
        the edge to ``child``: :meth:`Coordinator.fragment_for_site`'s
        fragment and kept rows of ``held``, and the payload that ships it.

        The fragment carries the fields the round reads, and a combiner's
        also those its sites' ship filters read. When it is all of ``held``
        — nothing observed narrows it and some site below needs every row —
        it is projected and encoded once per round for every edge that
        ships it. ``positional``: the payload leaves K out, positionally
        against the answer the site gave in the round before
        (:meth:`_positional`); ``shared``: how many rows carry the round
        before's outputs when the fragment is sparse, else ``None``.
        """
        name = child.name
        filters = [self.md_round.ship_filter(site_id) for site_id in self.below[name]]
        positions = self._observed_positions(node, name)
        wanted = set(self.fields)
        if not child.is_leaf:
            for ship_filter in filters:
                if ship_filter is not None:
                    wanted |= ship_filter.attrs(BASE_VAR)
        # At least one attribute: a zero-attribute relation ships a bounded
        # row count.
        fields = tuple(field for field in held.schema.names if field in wanted)
        fields = fields or held.schema.names[:1]
        coordinator = self.coordinator
        if positions is not None or all(ship_filter is not None for ship_filter in filters):
            fragment, kept = coordinator.fragment_for_site(
                *filters, held=held, positions=positions, fields=fields
            )
            # Once: a later attempt of this leg (a retry, a backup) finds
            # the answer taken at the site, so it ships keyed.
            digest = self.answers_kept.pop(name, None)
            if digest is not None and positions is not None and len(kept) == len(positions):
                positional = self._positional(fragment, kept, digest)
                if positional is not None:
                    payload, shared = positional
                    return fragment, kept, payload, True, shared
            return fragment, kept, serialize.encode_relation(fragment), False, None
        whole = self._whole.get((held, fields))
        if whole is None:
            fragment, _kept = coordinator.fragment_for_site(None, held=held, fields=fields)
            whole = self._whole[held, fields] = (
                fragment, serialize.encode_relation(fragment),
            )
        return whole[0], None, whole[1], False, None

    def _positional(self, fragment: Relation, kept: np.ndarray, digest: bytes):
        """``(payload, shared)``: ``fragment`` without K, positional
        against the answer ``digest`` names — ``fragment``'s rows, the rows
        ``kept`` of X, in its order — and sparse where that is smaller
        (:meth:`_sparse`); or None when that could be larger than the keyed
        fragment, or there is nothing else and more rows than a
        zero-attribute relation may count."""
        key = serialize.carried_keys(self.plan.expression.key, fragment.schema.names)
        rest = fragment.project(
            [name for name in fragment.schema.names if name not in key]
        )
        if (not len(rest.schema) and len(fragment) > serialize.MAX_ZERO_ATTRIBUTE_ROWS) or (
            # K's share of the keyed fragment must outweigh the digest.
            serialize.key_bytes_at_least(fragment.schema, key, len(fragment))
            <= serialize.POSITIONAL_PREFIX_BYTES
        ):
            return None
        sparse = self._sparse(rest, kept, digest)
        if sparse is not None:
            return sparse
        return serialize.encode_positional(rest, digest), None

    def _sparse(self, rest: Relation, kept: np.ndarray, digest: bytes):
        """``(payload, shared rows)``: ``rest`` (the fragment without
        K, the rows ``kept`` of X) positional, with the round before's
        outputs left out but at the rows more than one source answered,
        which it carries by row address (``serialize.encode_positional``);
        or None when no output of the round before is left to the site, or
        that could ship more bytes.

        It costs the shared rows' block and its length, and saves at least
        what those columns add to ``rest``
        (``serialize.column_bytes_at_least``): the outputs are the last
        columns of X, so leaving them out moves no back-reference."""
        names = rest.schema.names
        derived = tuple(name for name in names if name in self.derivable)
        if self.shared is None or not len(rest) or not derived:
            return None
        if names[-len(derived):] != derived:
            return None
        dense = rest.project(names[: -len(derived)])
        if not len(dense.schema) and len(rest) > serialize.MAX_ZERO_ATTRIBUTE_ROWS:
            return None
        rows = np.flatnonzero(self.shared[kept])
        values = rest.project(derived).gather(rows)
        schema = Schema([*values.schema.attributes, Attribute(serialize.ADDRESS, INT)])
        shared = serialize.encode_reply(
            Relation.of_columns(schema, [*values.held(), rows], len(rows)), 0
        )
        # The shared rows' block and its varint length, seven bits a byte.
        cost = len(shared) + (len(shared).bit_length() + 6) // 7
        if serialize.column_bytes_at_least(rest, derived) <= cost:
            return None
        return serialize.encode_positional(dense, digest, shared), len(rows)

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

    def _site_request(self, site_id, compute_delay_s, lose_state, keep_answer) -> SiteRequest:
        shared = dict(
            site_id=site_id,
            round_number=self.number,
            traced=self.tracer.enabled,
            query_id=self.ids.get("query_id"),
            compute_delay_s=compute_delay_s,
            lose_state=lose_state,
        )
        md_round = self.md_round
        if md_round is None:
            return SiteRequest(kind="base", source=self.plan.base.source, **shared)
        shared.update(
            steps=tuple(md_round.steps),
            key_attrs=tuple(self.plan.expression.key),
            keep_answer=keep_answer and self.observes,
        )
        if md_round.merged_base:
            return SiteRequest(kind="merged", source=self.plan.base.source, **shared)
        return SiteRequest(
            kind="round",
            independent_reduction=md_round.independent_reduction,
            observed=self.observes,
            since=self.since.get(site_id, 0),
            source=self.grows,
            **shared,
        )

    def _merge(self, collected):
        """What a combiner forwards: its children's results, one row per key
        — or per address of its fragment, as ``(subs, positions)``."""
        if self.addressed:
            return merge_addressed(collected, self.md_round.all_blocks())
        combined = Relation.union_all(*collected)
        if self.md_round is None:
            return combined.distinct_project(combined.schema.names)
        return merge_sub_results(
            combined, self.plan.expression.key, self.md_round.all_blocks()
        )

    def _charge(self, node, seconds: float) -> None:
        """Book compute time to the node that spent it."""
        if node is self.tree:
            self.round_stats.coordinator_compute_s += seconds
        else:
            self.round_stats.site(node.name).compute_s += seconds


def _derivable(md_round) -> frozenset:
    """The names of ``md_round``'s outputs a site finalizes from its own
    answer where it alone answered a group: all of them when every
    aggregate's components are built-in kinds, whose fold of one value is
    the same whatever other sources fold beside it; none otherwise."""
    if md_round is None:
        return frozenset()
    blocks = md_round.all_blocks()
    if not VECTORIZED_COMPONENT_KINDS.issuperset(
        component.kind
        for block in blocks
        for spec in block.aggregates
        for component in spec.state_components()
    ):
        return frozenset()
    return frozenset(attribute.name for attribute in block_output_attributes(blocks))


def _with_keys(held, keys, subs, positions) -> Relation:
    """``subs``, whose rows answer the rows ``positions`` of ``held``, with
    those rows' ``keys`` attributes in front."""
    attributes = [*held.schema.project(keys).attributes, *subs.schema.attributes]
    columns = held.take(held.schema.positions(keys), positions)
    columns += subs.held()
    return Relation.of_columns(Schema(attributes), columns, len(positions))


def _keyed_rows(fragment: Relation, block: Relation, keys) -> tuple:
    """``(block, rows)``: a keyed answer's rows that are rows of the
    ``fragment`` shipped, and which rows those are."""
    matcher = fragment.matcher(fragment.schema.positions(keys))
    held = block.held()
    found = matcher.find([held[p] for p in block.schema.positions(keys)], len(block))
    rows, matched = matcher.pairs(found)
    if rows is not None:
        block = block.gather(rows)
    return block, np.asarray(matched, dtype=np.int64)


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
