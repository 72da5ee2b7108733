"""Concurrent query service over a simulated Skalla cluster.

:class:`QueryService` is the front door a warehouse deployment would
expose: many clients submit GMDJ expressions (or OLAP SQL text)
concurrently, and the service

- **admits** them through a bounded gate — at most ``max_in_flight``
  queries execute at once, at most ``max_queue`` wait in FIFO order, and
  a waiter that outlives its admission timeout is failed with
  :class:`~repro.errors.QueryTimeoutError` rather than left hanging;
- **caches** finalized results keyed by canonical
  :class:`~repro.service.signature.PlanSignature`, retaining each
  refreshable query's sub-aggregate state so an append-only data change
  *upgrades* the entry through
  :meth:`~repro.distributed.incremental.IncrementalView.refresh` instead
  of discarding it;
- **shares** one :class:`ExecutionConfig`-selected engine (serial /
  sockets) across all queries, while giving every executing
  query its own private channel set
  (:meth:`~repro.distributed.cluster.SimulatedCluster.fresh_network`) —
  channels are plain queues, so two queries interleaving on one channel
  would consume each other's fragments.

Appends go through :meth:`QueryService.append`, which is
writer-exclusive (it waits for in-flight queries to drain, so a query
never sees a torn multi-site append). The service keeps no record of
them: the rows stay in the sites' append logs, which a refresh round
reads from the version a cached view absorbed. A site whose table was
replaced since then refuses that round, and the query is a plain miss.

Determinism contract: all served relations are in **canonical row
order** (sorted by the expression's key attributes, ``repr``-wise). A
cache hit returns the stored relation verbatim, and a refresh-upgraded
result is value-identical to evaluating fresh against the grown data —
both are checked bit-for-bit in the test suite.

Query-lifecycle observability: every submission is decomposed into the
stage sequence ``admission → lookup → plan → execute → merge``, each
stage recorded as a ``service.<stage>`` span under the ``service.query``
root and observed into the ``service.stage_s{stage=...}`` histogram
family. Stage durations are measured on one monotonic clock
(``time.perf_counter``, the same clock the tracer uses) and *tile* the
submission — each stage starts where the previous one ended — so they
are additive: their sum accounts for the submission's end-to-end
``wall_s`` up to the few statements after the last stage
(``tests/test_service.py`` asserts >= 95%).
End-to-end latency is additionally observed per outcome
(``service.latency_by_outcome_s{outcome=hit|fresh|refresh|degraded|
rejected|timeout}``) so SLOs can be stated per serving path.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Union

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.evaluator import ExecutionConfig, execute_plan
from repro.distributed.executor import create_engine
from repro.distributed.incremental import IncrementalView
from repro.distributed.optimizer import OptimizationOptions, plan_query
from repro.errors import (
    AdmissionError,
    MultiLegError,
    PlanError,
    QueryTimeoutError,
    ServiceError,
    WarehouseError,
)
from repro.gmdj.expression import GMDJExpression
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.queries.sql import parse_olap_statement
from repro.relalg.relation import Relation
from repro.service.cache import CacheEntry, ResultCache
from repro.service.signature import PlanSignature

#: ``QueryResult.source`` values.
FRESH = "fresh"
HIT = "hit"
REFRESH = "refresh"

#: Additional ``QueryResult.outcome`` values (a fresh evaluation is the
#: cache-miss path, so ``"fresh"`` doubles as the miss outcome).
DEGRADED = "degraded"
REJECTED = "rejected"
TIMEOUT = "timeout"

#: Query-lifecycle stages, in submission order.
STAGES = ("admission", "lookup", "plan", "execute", "merge")

#: Every outcome a submission can end with.
OUTCOMES = (HIT, FRESH, REFRESH, DEGRADED, REJECTED, TIMEOUT)


class _StageClock(dict):
    """One submission's per-stage seconds, tiling its wall clock.

    A stage runs from where the previous one ended (``mark``; the
    submission's start for the first) to its own end. The constant-time
    glue between two stages — and a thread switch that lands in it —
    thereby belongs to the stage it precedes, so the stage sum explains
    ``wall_s`` however short the query is.
    """

    def __init__(self, started: float):
        super().__init__()
        self.mark = started


def canonical_order(relation: Relation, key_attrs) -> Relation:
    """Rows sorted by the key attributes (``repr``-wise, total order).

    The service serves every result in this order so that a fresh
    evaluation, a cache hit, and a refresh-upgraded result of the same
    query are comparable row-for-row — distributed evaluation and
    incremental refresh build their output rows in different (both
    correct) orders.

    The row indices are sorted stably by one key column's ``repr``s at
    a time, the last attribute first, and the columns gathered: the
    order of sorting by each row's tuple of ``repr``s, with no row built.
    """
    order = list(range(len(relation)))
    for position in reversed(relation.schema.positions(list(key_attrs))):
        order.sort(key=list(map(repr, relation.values(position))).__getitem__)
    return relation.gather(order)


@dataclass
class QueryResult:
    """What one submitted query got back."""

    query_id: int
    relation: Relation
    #: ``"fresh"`` (evaluated), ``"hit"`` (served from cache verbatim),
    #: or ``"refresh"`` (cache entry upgraded via its sub-aggregate state).
    source: str
    signature: PlanSignature
    #: ExecutionStats of the run that produced/upgraded the relation;
    #: a pure hit carries the stats of the original evaluation.
    stats: object
    wall_s: float
    #: The SLO outcome: ``source``, or ``"degraded"`` when a fresh
    #: evaluation excluded sites (rejected/timeout submissions raise).
    outcome: str = FRESH
    #: Per-stage seconds (admission/lookup/plan/execute/merge); the
    #: stages tile the submission, so the sum accounts for ``wall_s``.
    stages: Dict[str, float] = field(default_factory=dict)

    @property
    def from_cache(self) -> bool:
        return self.source != FRESH

    @property
    def stage_total_s(self) -> float:
        return sum(self.stages.values())


@dataclass
class _Served:
    relation: Relation
    source: str
    stats: object
    signature: PlanSignature


class QueryService:
    """Admission-controlled, cache-fronted concurrent query endpoint."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        config: Optional[ExecutionConfig] = None,
        options: Optional[OptimizationOptions] = None,
        *,
        max_in_flight: int = 4,
        max_queue: int = 16,
        admission_timeout_s: float = 30.0,
        cache_capacity: int = 64,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_in_flight < 1:
            raise ServiceError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if max_queue < 0:
            raise ServiceError(f"max_queue must be >= 0, got {max_queue}")
        if admission_timeout_s <= 0:
            raise ServiceError(
                f"admission_timeout_s must be > 0, got {admission_timeout_s}"
            )
        self.cluster = cluster
        self.config = config or ExecutionConfig()
        self.options = options
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self.admission_timeout_s = admission_timeout_s
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = ResultCache(cache_capacity)
        self._gate = threading.Condition()
        self._queue: deque = deque()  # waiting tickets, FIFO
        self._in_flight = 0
        self._writer_active = False
        self._closed = False
        self._query_ids = itertools.count(1)
        # Pre-register the service's metric families so a /metrics scrape
        # (repro serve --metrics-port) exposes zeros before any traffic.
        self.metrics.gauge("service.queue.depth")
        self.metrics.gauge("service.in_flight")
        for counter_name in (
            "service.queries",
            "service.cache.hit",
            "service.cache.miss",
            "service.cache.refresh",
            "service.cache.uncacheable",
            "service.admission.rejected",
            "service.admission.timeout",
            "service.appends",
        ):
            self.metrics.counter(counter_name)
        self.metrics.histogram("service.latency_s")
        for stage in STAGES:
            self.metrics.histogram("service.stage_s", stage=stage)
        for outcome in OUTCOMES:
            self.metrics.histogram("service.latency_by_outcome_s", outcome=outcome)
        self._engine = create_engine(self.config.executor, cluster.network)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Refuse new work, fail waiters, release the engine. Idempotent."""
        with self._gate:
            if self._closed:
                return
            self._closed = True
            self._gate.notify_all()
        self._engine.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission ---------------------------------------------------------------

    def _update_gate_gauges(self) -> None:
        # Caller holds self._gate.
        self.metrics.gauge("service.queue.depth").set(len(self._queue))
        self.metrics.gauge("service.in_flight").set(self._in_flight)

    def _admittable(self, ticket) -> bool:
        # Caller holds self._gate.
        return (
            self._queue
            and self._queue[0] is ticket
            and self._in_flight < self.max_in_flight
            and not self._writer_active
        )

    def _acquire_slot(self, timeout_s: float) -> None:
        # One monotonic clock (perf_counter) for the whole query
        # lifecycle, so the admission stage is additive with the
        # execution stages measured by submit() and the tracer.
        entered = time.perf_counter()
        deadline = entered + timeout_s
        with self._gate:
            if self._closed:
                raise ServiceError("query service is closed")
            if (
                not self._queue
                and self._in_flight < self.max_in_flight
                and not self._writer_active
            ):
                # Fast path: nobody waiting, a slot is free — skip the queue.
                self._in_flight += 1
                self._update_gate_gauges()
                return
            if len(self._queue) >= self.max_queue:
                self.metrics.counter("service.admission.rejected").inc()
                raise AdmissionError(len(self._queue), self.max_queue)
            ticket = object()
            self._queue.append(ticket)
            self._update_gate_gauges()
            try:
                while not self._admittable(ticket):
                    if self._closed:
                        raise ServiceError("query service is closed")
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        self.metrics.counter("service.admission.timeout").inc()
                        raise QueryTimeoutError(
                            time.perf_counter() - entered, timeout_s
                        )
                    self._gate.wait(remaining)
                self._queue.popleft()
                self._in_flight += 1
                self._update_gate_gauges()
                # The next waiter may also be admittable (slots > 1).
                self._gate.notify_all()
            except BaseException:
                if ticket in self._queue:
                    self._queue.remove(ticket)
                    self._update_gate_gauges()
                self._gate.notify_all()
                raise

    def _release_slot(self) -> None:
        with self._gate:
            self._in_flight -= 1
            self._update_gate_gauges()
            self._gate.notify_all()

    # -- queries ------------------------------------------------------------------

    @contextmanager
    def _stage(self, name: str, stages: _StageClock):
        """Time one lifecycle stage: span + histogram + ``stages`` entry.

        Re-entering the same stage name accumulates (the merge stage runs
        once in ``_serve`` and again for post clauses in ``submit``).
        """
        histogram = self.metrics.histogram("service.stage_s", stage=name)
        try:
            with self.tracer.span(f"service.{name}", kind="service", stage=name):
                yield
        finally:
            ended = time.perf_counter()
            elapsed = ended - stages.mark
            stages.mark = ended
            stages[name] = stages.get(name, 0.0) + elapsed
            histogram.observe(elapsed)

    def _observe_outcome(self, outcome: str, wall_s: float) -> None:
        self.metrics.histogram(
            "service.latency_by_outcome_s", outcome=outcome
        ).observe(wall_s)

    def submit(
        self,
        query: Union[str, GMDJExpression],
        *,
        timeout_s: Optional[float] = None,
    ) -> QueryResult:
        """Run one query (GMDJ expression or OLAP SQL text), blocking.

        Thread-safe: any number of client threads may call this
        concurrently; the admission gate bounds actual parallelism.
        """
        if isinstance(query, str):
            statement = parse_olap_statement(query)
            expression = statement.expression
            post = statement.apply_post
        elif isinstance(query, GMDJExpression):
            expression = query
            post = None
        else:
            raise ServiceError(
                f"expected SQL text or GMDJExpression, got {type(query).__name__}"
            )
        query_id = next(self._query_ids)
        started = time.perf_counter()
        stages = _StageClock(started)
        with self.tracer.span(
            "service.query", kind="service", query_id=query_id
        ) as span:
            try:
                with self._stage("admission", stages):
                    self._acquire_slot(
                        timeout_s if timeout_s is not None
                        else self.admission_timeout_s
                    )
            except (AdmissionError, QueryTimeoutError) as error:
                outcome = (
                    REJECTED if isinstance(error, AdmissionError) else TIMEOUT
                )
                span.set(outcome=outcome)
                self._observe_outcome(outcome, time.perf_counter() - started)
                raise
            try:
                self.metrics.counter("service.queries").inc()
                served = self._serve(expression, span, query_id, stages)
                if post is None:
                    relation = served.relation
                else:
                    with self._stage("merge", stages):
                        relation = post(served.relation)
                outcome = served.source
                if outcome == FRESH and getattr(served.stats, "degraded", False):
                    outcome = DEGRADED
                span.set(outcome=outcome)
                wall_s = time.perf_counter() - started
                self.metrics.histogram("service.latency_s").observe(wall_s)
                self._observe_outcome(outcome, wall_s)
                return QueryResult(
                    query_id=query_id,
                    relation=relation,
                    source=served.source,
                    signature=served.signature,
                    stats=served.stats,
                    wall_s=wall_s,
                    outcome=outcome,
                    stages=dict(stages),
                )
            finally:
                self._release_slot()

    def _serve(
        self, expression: GMDJExpression, span, query_id, stages: _StageClock
    ) -> _Served:
        with self._stage("lookup", stages):
            signature = PlanSignature.compute(self.cluster, expression)
            entry = self.cache.get(signature)
            candidate = None
            if entry is None:
                candidate = self.cache.upgrade_candidate(signature)
        if entry is not None:
            self.metrics.counter("service.cache.hit").inc()
            return _Served(entry.relation, HIT, entry.stats, signature)
        if candidate is not None and candidate.refreshable:
            served = self._try_upgrade(candidate, signature, span, stages)
            if served is not None:
                return served
        self.metrics.counter("service.cache.miss").inc()
        with self._stage("plan", stages):
            plan = plan_query(expression, self.cluster.catalog, self.options)
        with self._stage("execute", stages):
            result = execute_plan(
                self.cluster,
                plan,
                self.config,
                tracer=self.tracer,
                engine=self._engine,
                network=self.cluster.fresh_network(self.metrics),
                query_id=query_id,
            )
        with self._stage("merge", stages):
            relation = canonical_order(result.relation, expression.key)
            self._maybe_cache(expression, signature, relation, result)
        return _Served(relation, FRESH, result.stats, signature)

    def _try_upgrade(
        self, entry: CacheEntry, signature: PlanSignature, span, stages
    ) -> Optional[_Served]:
        with entry.lock:
            if entry.signature == signature:
                # Lost the race: another query upgraded the entry first.
                self.metrics.counter("service.cache.hit").inc()
                return _Served(entry.relation, HIT, entry.stats, signature)
            gaps = entry.signature.version_gaps(signature)
            detail = entry.view.step.detail
            if not gaps or any(table != detail for table, *_versions in gaps):
                return None  # a changed base table is not refreshable
            old_signature = entry.signature
            with self._stage("execute", stages):
                try:
                    refreshed = entry.view.refresh(
                        self.config, self.tracer, self._engine,
                        self.cluster.fresh_network(self.metrics),
                    )
                except WarehouseError:
                    return None  # a site's table was replaced since the view's version
                except MultiLegError as error:
                    causes = error.failures.values()
                    if not all(isinstance(cause, WarehouseError) for cause in causes):
                        raise
                    return None
            if refreshed.stats.degraded:
                return None  # the view is as it was; a full evaluation answers
            with self._stage("merge", stages):
                relation = canonical_order(
                    refreshed.relation, entry.expression.key
                )
                entry.upgrade(signature, relation)
                self.cache.reindex(old_signature, entry)
        self.metrics.counter("service.cache.refresh").inc()
        span.set(new_groups=refreshed.new_groups)
        return _Served(relation, REFRESH, refreshed.stats, signature)

    def _maybe_cache(self, expression, signature, relation, run) -> None:
        if run.stats.degraded:
            # An under-approximation must never be served as an answer to
            # a later identical query, and its sub-aggregates are missing
            # the excluded sites' tuples.
            self.metrics.counter("service.cache.uncacheable").inc()
            return
        try:
            view = IncrementalView(self.cluster, expression, run)
        except PlanError:
            view = None  # chain / holistic / unsupported base: hit-only entry
        self.cache.put(CacheEntry(signature, relation, run.stats, view, expression))

    # -- appends -----------------------------------------------------------------

    def append(self, table_name: str, deltas: Mapping[str, Relation]) -> dict:
        """Apply per-site appends writer-exclusively.

        Waits until no query is in flight (a query must never observe
        site A post-append and site B pre-append), then appends every
        delta to its site's append log, from which the next submit of a
        cached query refreshes. Returns ``{site_id: new_version}``.
        """
        with self._gate:
            if self._closed:
                raise ServiceError("query service is closed")
            while self._writer_active or self._in_flight > 0:
                self._gate.wait()
                if self._closed:
                    raise ServiceError("query service is closed")
            self._writer_active = True
        try:
            versions = self.cluster.append(table_name, deltas)
            self.metrics.counter("service.appends").inc()
            return versions
        finally:
            with self._gate:
                self._writer_active = False
                self._gate.notify_all()

