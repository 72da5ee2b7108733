"""Alg. GMDJDistribEval: executing a plan on a simulated cluster.

This is the mediator of Fig. 1 in the paper. It drives the plan round by
round, moving every relation as encoded bytes over the per-site channels
(so traffic numbers are real wire sizes), timing site and coordinator
computation separately, and synchronizing via the coordinator.

Attribution rules for the measured times:

- a site is charged for decoding its incoming fragment, evaluating the
  GMDJ step(s), and encoding its sub-result;
- the coordinator is charged for producing/encoding the per-site
  fragments, decoding the sub-results, and the Theorem-1 merge;
- communication *time* is not measured (everything is in-process) — it
  is modeled from the measured bytes by the cost model in
  ``repro.distributed.stats``.

Tracing: pass a live :class:`~repro.obs.tracer.Tracer` to record the
span tree ``query → round → round.{encode,evaluate,decode,merge}``, and
a :class:`~repro.obs.metrics.MetricsRegistry` to capture the GMDJ
operator counters for the run. Both default to no-ops, so the untraced
hot path pays nothing beyond a handful of no-op calls per round.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.coordinator import Coordinator
from repro.distributed.executor import EXECUTORS, SiteRequest, create_engine
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
from repro.errors import PlanError, ReproError
from repro.gmdj.expression import GMDJExpression, LiteralBase
from repro.net import message as msg
from repro.net import serialize
from repro.net.costmodel import CostModel
from repro.obs.metrics import MetricsRegistry, activate
from repro.obs.tracer import NULL_TRACER
from repro.relalg.engine import ENGINES, use_engine
from repro.relalg.relation import Relation


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
    pool, ``"processes"`` additionally dispatches the site compute to
    forked workers (real multi-core parallelism). All three produce
    bit-identical results, byte counts and trace span sets.
    ``max_workers`` caps the pool size; ``0`` sizes it automatically
    (one thread per site; one process per CPU up to the site count).

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
    #: Evaluation engine (``row | columnar``): ``columnar`` runs GMDJ and
    #: relational kernels batch-at-a-time over column vectors, with the
    #: row engine as differential oracle (bit-identical results). Honours
    #: ``REPRO_ENGINE`` like ``executor`` honours ``REPRO_EXECUTOR``.
    engine: str = field(
        default_factory=lambda: os.environ.get("REPRO_ENGINE", "row")
    )
    #: Wire codec for shipped relations (``row | column``): ``column``
    #: ships dictionary/delta column blocks (smaller), and byte stats
    #: then carry the measured saving vs. the row codec. Honours
    #: ``REPRO_CODEC``.
    wire_codec: str = field(
        default_factory=lambda: os.environ.get("REPRO_CODEC", "row")
    )
    #: Speculative straggler re-execution. Once at least half a round's
    #: legs have completed, a deadline arms at ``median completion *
    #: speculation_factor + speculation_slack_s``; a leg still in flight
    #: past it is abandoned and re-run (first result wins), spending at
    #: most ``speculation_max_backups`` backups per round. Abandonment
    #: needs a transport that can give up mid-wait, so it only fires
    #: under the socket transport; the controller itself is harmless (and
    #: inert) elsewhere.
    speculation: bool = False
    speculation_factor: float = 3.0
    speculation_slack_s: float = 0.05
    speculation_max_backups: int = 1

    def __post_init__(self):
        if self.row_block_size is None:
            raise PlanError(
                "row_block_size must be an int; use 0 (not None) to ship "
                "each relation whole"
            )
        if self.row_block_size < 0:
            raise PlanError(
                f"row_block_size must be >= 0, got {self.row_block_size}"
            )
        if self.executor not in EXECUTORS:
            raise PlanError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {', '.join(EXECUTORS)}"
            )
        if self.max_workers < 0:
            raise PlanError(f"max_workers must be >= 0, got {self.max_workers}")
        if self.failure_mode not in FAILURE_MODES:
            raise PlanError(
                f"unknown failure mode {self.failure_mode!r}; "
                f"expected one of {', '.join(FAILURE_MODES)}"
            )
        if self.max_retries < 0:
            raise PlanError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_s < 0:
            raise PlanError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.leg_timeout_s < 0:
            raise PlanError(
                f"leg_timeout_s must be >= 0, got {self.leg_timeout_s}"
            )
        if self.engine not in ENGINES:
            raise PlanError(
                f"unknown engine {self.engine!r}; "
                f"expected one of {', '.join(ENGINES)}"
            )
        if self.wire_codec not in serialize.CODECS:
            raise PlanError(
                f"unknown wire codec {self.wire_codec!r}; "
                f"expected one of {', '.join(serialize.CODECS)}"
            )
        if self.speculation_factor < 1.0:
            raise PlanError(
                f"speculation_factor must be >= 1.0, got {self.speculation_factor}"
            )
        if self.speculation_slack_s < 0:
            raise PlanError(
                f"speculation_slack_s must be >= 0, got {self.speculation_slack_s}"
            )
        if self.speculation_max_backups < 0:
            raise PlanError(
                "speculation_max_backups must be >= 0, "
                f"got {self.speculation_max_backups}"
            )

    def speculation_controller(self, site_count: int):
        """A fresh per-round controller, or None when speculation is off."""
        if not self.speculation or site_count < 1:
            return None
        return SpeculationController(
            site_count,
            factor=self.speculation_factor,
            slack_s=self.speculation_slack_s,
            max_backups=self.speculation_max_backups,
        )

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy.from_config(self)

    def blocks_of(self, relation: Relation):
        """Split a relation into shipping blocks per this config."""
        size = self.row_block_size
        if not size or len(relation) <= size:
            return [relation]
        return [
            Relation(relation.schema, relation.rows[start : start + size])
            for start in range(0, len(relation), size)
        ] or [relation]


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
) -> DistributedResult:
    """Run a plan over the cluster and return result + statistics.

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
    it lands on the root ``query`` span, on every site-worker span, and
    on the returned :class:`~repro.distributed.stats.ExecutionStats`.
    """
    if tracer is None:
        tracer = NULL_TRACER
    if metrics is not None:
        with activate(metrics):
            return _execute_plan_traced(
                cluster, plan, config, tracer, engine, network, query_id
            )
    return _execute_plan_traced(cluster, plan, config, tracer, engine, network, query_id)


def _execute_plan_traced(
    cluster, plan, config, tracer, external_engine=None, network=None, query_id=None
) -> DistributedResult:
    config = config or ExecutionConfig()
    policy = config.retry_policy()
    stats = ExecutionStats(
        executor=config.executor,
        failure_mode=config.failure_mode,
        query_id=query_id,
        wire_codec=config.wire_codec,
    )
    coordinator = Coordinator(plan.expression.key, tracer)
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
    engine = external_engine
    try:
        if engine is None:
            engine = create_engine(
                config.executor, cluster.sites, tracer, config.max_workers,
                network=network,
            )
        query_attrs = {"rounds": len(plan.rounds), "sites": cluster.site_count}
        if query_id is not None:
            query_attrs["query_id"] = query_id
        # Coordinator-side relational work (fragment slicing, streaming
        # merges) honours the configured engine; sites receive the engine
        # name on their requests because context vars do not cross thread
        # pools or forked workers.
        with use_engine(config.engine), tracer.span(
            "query", kind="query", **query_attrs
        ):
            _evaluate_base(
                cluster, plan, coordinator, stats, config, tracer, engine,
                policy, network, query_id,
            )
            for round_number, md_round in enumerate(plan.rounds, start=1):
                round_stats = stats.new_round(
                    "chain" if md_round.is_chain else "md",
                    f"steps={len(md_round.steps)} sites={len(md_round.sites)}",
                )
                round_started = time.perf_counter()
                with tracer.span(
                    "round",
                    kind="round",
                    index=round_stats.index,
                    round_kind=round_stats.kind,
                    sites=len(md_round.sites),
                ) as round_span:
                    _evaluate_round(
                        cluster,
                        plan,
                        coordinator,
                        config,
                        tracer,
                        engine,
                        md_round,
                        round_number,
                        round_stats,
                        round_span,
                        policy,
                        network,
                        query_id,
                    )
                    round_span.set(
                        bytes_down=round_stats.bytes_down,
                        bytes_up=round_stats.bytes_up,
                        coordinator_compute_s=round_stats.coordinator_compute_s,
                    )
                    if round_stats.excluded:
                        round_span.set(excluded=",".join(round_stats.excluded))
                round_stats.wall_s = time.perf_counter() - round_started
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
                query_id=query_id,
                rounds=len(stats.rounds),
                bytes_total=stats.bytes_total,
                faults=len(stats.faults),
            )
            if tracer.enabled:
                flight.record_spans(tracer.finished())
        if engine is not None and engine is not external_engine:
            engine.close()
    return DistributedResult(coordinator.x, stats, plan)


def _evaluate_round(
    cluster,
    plan,
    coordinator,
    config,
    tracer,
    engine,
    md_round,
    round_number,
    round_stats,
    round_span=None,
    policy=None,
    network=None,
    query_id=None,
) -> None:
    """One MD/chain round: fan out, evaluate, stream sub-results back.

    The per-site work is expressed as one *leg* and handed to the
    engine, which runs legs inline, on threads, or with forked site
    workers. Streaming synchronization (Section 3.2): for ordinary
    rounds the coordinator absorbs each sub-result fragment as it
    arrives — under parallel engines that is completion order, which the
    session's per-source banks make order-insensitive. Merged-base
    rounds must see all fragments to discover the base, so they collect
    (reassembled in site order for determinism).
    """
    if network is None:
        network = cluster.network
    blocks = md_round.all_blocks()
    session = None if md_round.merged_base else coordinator.begin_sync(blocks)
    coordinator_lock = threading.Lock()
    # Pre-create per-site stats in site order so reporting order does not
    # depend on leg completion order.
    for site_id in md_round.sites:
        round_stats.site(site_id)

    def leg(site_id):
        channel = network.channel(site_id)
        site_stats = round_stats.site(site_id)
        # Consume any injected straggler delay for this attempt. The rule
        # budget ("times") is spent here, so a speculative backup re-run
        # of the same leg gets 0 and races the sleeping original.
        compute_delay_s = channel.next_straggle(round_number)

        if md_round.merged_base:
            # Proposition 2: no shipment down beyond the request header.
            request_message = msg.Message(
                msg.BASE_QUERY, "coordinator", site_id, round_number
            )
            channel.send_to_site(request_message)
            site_stats.bytes_down += request_message.size_bytes
            site_stats.row_equiv_bytes_down += request_message.size_bytes
            channel.receive_at_site()
            request = SiteRequest(
                kind="merged",
                site_id=site_id,
                round_number=round_number,
                steps=tuple(md_round.steps),
                key_attrs=tuple(plan.expression.key),
                source=plan.base.source,
                row_block_size=config.row_block_size,
                traced=tracer.enabled,
                query_id=query_id,
                engine=config.engine,
                wire_codec=config.wire_codec,
                compute_delay_s=compute_delay_s,
            )
        else:
            started = time.perf_counter()
            with tracer.span(
                "round.encode", kind="coordinator", site=site_id
            ) as encode_span:
                fragment = coordinator.fragment_for_site(
                    md_round.ship_filter(site_id)
                )
                fragment_blocks = list(config.blocks_of(fragment))
                down_blocks = [
                    msg.Message.with_relation(
                        msg.SHIP_BASE, "coordinator", site_id, round_number,
                        block, codec=config.wire_codec,
                    )
                    for block in fragment_blocks
                ]
                if config.wire_codec == "row":
                    row_equiv_down = sum(
                        shipment.size_bytes for shipment in down_blocks
                    )
                else:
                    # Measure (not estimate) what the row codec would have
                    # shipped for the same blocks, so codec savings in the
                    # stats are grounded in actual encodings.
                    row_equiv_down = sum(
                        serialize.wire_size(block) + msg.HEADER_BYTES
                        for block in fragment_blocks
                    )
                encode_span.set(
                    rows=len(fragment),
                    messages=len(down_blocks),
                    bytes=sum(shipment.size_bytes for shipment in down_blocks),
                )
            elapsed = time.perf_counter() - started
            with coordinator_lock:
                round_stats.coordinator_compute_s += elapsed
            for shipment in down_blocks:
                channel.send_to_site(shipment)
                site_stats.bytes_down += shipment.size_bytes
            site_stats.row_equiv_bytes_down += row_equiv_down
            site_stats.tuples_down += len(fragment)
            down_payloads = tuple(
                channel.receive_at_site().payload for _ in down_blocks
            )
            request = SiteRequest(
                kind="round",
                site_id=site_id,
                round_number=round_number,
                steps=tuple(md_round.steps),
                key_attrs=tuple(plan.expression.key),
                independent_reduction=md_round.independent_reduction,
                row_block_size=config.row_block_size,
                down_payloads=down_payloads,
                traced=tracer.enabled,
                query_id=query_id,
                engine=config.engine,
                wire_codec=config.wire_codec,
                compute_delay_s=compute_delay_s,
            )

        reply = engine.evaluate(request, channel=channel)
        site_stats.compute_s += reply.compute_s
        up_blocks = [
            msg.Message(msg.SUB_RESULT, site_id, "coordinator", round_number, payload)
            for payload in reply.payloads
        ]
        for reply_message in up_blocks:
            channel.send_to_coordinator(reply_message)
            site_stats.bytes_up += reply_message.size_bytes
        site_stats.row_equiv_bytes_up += (
            reply.row_codec_payload_bytes + msg.HEADER_BYTES * len(reply.payloads)
        )
        site_stats.tuples_up += reply.rows

        started = time.perf_counter()
        collected = None
        with tracer.span("round.decode", kind="coordinator", site=site_id):
            for _reply in up_blocks:
                received_h = channel.receive_at_coordinator().relation()
                if session is None:
                    collected = (
                        received_h
                        if collected is None
                        else collected.union_all(received_h)
                    )
                else:
                    # Streaming merge: each block synchronizes on arrival.
                    session.absorb(received_h, source=site_id)
        elapsed = time.perf_counter() - started
        with coordinator_lock:
            round_stats.coordinator_compute_s += elapsed
        return collected

    if policy is None:
        policy = RetryPolicy()
    guarded = guard_leg(
        leg,
        policy=policy,
        network=network,
        round_index=round_number,
        round_stats=round_stats,
        tracer=tracer,
        session=session,
        speculation=config.speculation_controller(len(md_round.sites)),
    )
    results = engine.run_legs(md_round.sites, guarded, round_span)
    results = [result for result in results if result is not EXCLUDED]
    if round_stats.excluded and len(round_stats.excluded) == len(md_round.sites):
        raise PlanError(
            f"round {round_number}: every participating site was excluded "
            f"({', '.join(round_stats.excluded)}); no sub-results to merge"
        )

    started = time.perf_counter()
    if md_round.merged_base:
        coordinator.assemble_from_chain(results, blocks)
    else:
        coordinator.commit_sync(session, excluded=tuple(round_stats.excluded))
    round_stats.coordinator_compute_s += time.perf_counter() - started


def _evaluate_base(
    cluster,
    plan,
    coordinator,
    stats,
    config=None,
    tracer=NULL_TRACER,
    engine=None,
    policy=None,
    network=None,
    query_id=None,
) -> None:
    if config is None:
        config = ExecutionConfig()
    if network is None:
        network = cluster.network
    base = plan.base
    if base.merged_into_chain:
        return
    if not base.is_distributed:
        if not isinstance(base.source, LiteralBase):
            raise PlanError(
                f"non-distributed base must be literal, got {base.source!r}"
            )
        started = time.perf_counter()
        coordinator.set_base(base.source.relation)
        round_stats = stats.new_round("base", "literal base at coordinator")
        round_stats.coordinator_compute_s += time.perf_counter() - started
        round_stats.wall_s = round_stats.coordinator_compute_s
        return

    if engine is None:
        engine = create_engine("serial", cluster.sites, tracer)
    round_stats = stats.new_round("base", f"distributed over {len(base.sites)} sites")
    round_started = time.perf_counter()
    coordinator_lock = threading.Lock()
    with tracer.span(
        "round", kind="round", index=round_stats.index, round_kind="base",
        sites=len(base.sites),
    ) as round_span:
        for site_id in base.sites:
            round_stats.site(site_id)

        def leg(site_id):
            channel = network.channel(site_id)
            site_stats = round_stats.site(site_id)
            compute_delay_s = channel.next_straggle(0)

            request_message = msg.Message(msg.BASE_QUERY, "coordinator", site_id, 0)
            channel.send_to_site(request_message)
            site_stats.bytes_down += request_message.size_bytes
            site_stats.row_equiv_bytes_down += request_message.size_bytes
            channel.receive_at_site()

            reply = engine.evaluate(
                SiteRequest(
                    kind="base",
                    site_id=site_id,
                    round_number=0,
                    source=base.source,
                    traced=tracer.enabled,
                    query_id=query_id,
                    engine=config.engine,
                    wire_codec=config.wire_codec,
                    compute_delay_s=compute_delay_s,
                ),
                channel=channel,
            )
            site_stats.compute_s += reply.compute_s
            reply_message = msg.Message(
                msg.BASE_RESULT, site_id, "coordinator", 0, reply.payloads[0]
            )
            channel.send_to_coordinator(reply_message)
            site_stats.bytes_up += reply_message.size_bytes
            site_stats.row_equiv_bytes_up += (
                reply.row_codec_payload_bytes + msg.HEADER_BYTES
            )
            site_stats.tuples_up += reply.rows

            started = time.perf_counter()
            with tracer.span("round.decode", kind="coordinator", site=site_id):
                fragment = channel.receive_at_coordinator().relation()
            elapsed = time.perf_counter() - started
            with coordinator_lock:
                round_stats.coordinator_compute_s += elapsed
            return fragment

        guarded = guard_leg(
            leg,
            policy=policy if policy is not None else RetryPolicy(),
            network=network,
            round_index=0,
            round_stats=round_stats,
            tracer=tracer,
            speculation=config.speculation_controller(len(base.sites)),
        )
        fragments = engine.run_legs(base.sites, guarded, round_span)
        fragments = [
            fragment for fragment in fragments if fragment is not EXCLUDED
        ]
        if not fragments:
            raise PlanError(
                "base round: every participating site was excluded; "
                "no base fragments to synchronize"
            )

        started = time.perf_counter()
        coordinator.sync_base(fragments)
        round_stats.coordinator_compute_s += time.perf_counter() - started
        if round_stats.excluded:
            round_span.set(excluded=",".join(round_stats.excluded))
        round_span.set(
            bytes_down=round_stats.bytes_down,
            bytes_up=round_stats.bytes_up,
            coordinator_compute_s=round_stats.coordinator_compute_s,
        )
    round_stats.wall_s = time.perf_counter() - round_started


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
