"""The leg engine: one engine, two transports.

Alg. GMDJDistribEval's per-round site work — ship the fragment down,
evaluate the GMDJ step(s), ship H_i back — is independent across sites,
so a real deployment overlaps it perfectly (the paper's response-time
model in :mod:`repro.distributed.stats` already assumes max-over-sites).
The evaluator expresses each round as one *leg* per site, and one
:class:`Engine` runs every leg, whatever carries it. The two transports
differ only in their channel, and the site end belongs to the channel:

- in memory (executor ``serial``, a
  :class:`~repro.distributed.cluster.SimulatedCluster`), the channel's
  :meth:`~repro.net.channel.Channel.ask` plays the site's turn at once
  for the network's host, so a leg never waits for a reply and a round's
  legs run one after another, in site order;
- over TCP (executor ``sockets``, a deployed
  :class:`~repro.distributed.deployment.ProcessCluster`), ``ask`` writes
  the REQ to a ``repro site-server`` process and the leg waits. Every
  leg writes its REQ, so the sites compute at the same time, then one
  selector waits on all the round's sockets and each REPLY is read as it
  lands. The coordinator's :class:`~repro.gmdj.operator.SyncSession`
  absorbs fragments in that arrival order (Section 3.2's streaming
  merge) while staying bit-identical via per-source accumulator banks.

A leg is a generator: it yields what it waits for — a channel whose
REPLY it awaits, or a retry's backoff in seconds — and returns its
result. :meth:`Engine.evaluate` is such a generator too, so the
evaluator writes one leg for both transports, and :func:`_interleave`
runs a round's legs on the calling thread: a failed leg stops none of
the others, and a backoff lets them run meanwhile. No span stays open
across a yield, and no engine starts a thread.

The split between a leg and :func:`perform_site_request` is exactly the
paper's attribution boundary: the leg (parent) does coordinator work —
fragmenting, message framing, channel accounting, decoding H_i,
synchronizing — while :func:`perform_site_request` does everything a
Skalla site would be charged for. Both transports therefore produce
identical byte counts, identical span *sets*, and (thanks to the
deterministic bank merge) bit-identical result relations.

Out-of-process bookkeeping: a site server records spans into a private
tracer and metric increments into a private registry
(:func:`perform_isolated_request`), and the reply carries them back; the
engine *replays* spans through the channel's tracer (fresh ids, parented
under the round span, shifted by the channel's clock offset) and adds
counter deltas to the active registry, so traces and metrics look the
same as an in-process run.
"""

from __future__ import annotations

import selectors
import time
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from repro.errors import LegDeadlineExceeded, MultiLegError, NetworkError, PlanError
from repro.net import bodies, serialize
from repro.net import message as msg
from repro.obs.metrics import MetricsRegistry, activate, active_registry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Attribute, Schema

EXECUTORS = ("serial", "sockets")


@dataclass(frozen=True)
class SiteRequest:
    """Everything a site needs to perform its round-leg work.

    ``kind`` selects the handler: ``"base"`` (compute the base-values
    query), ``"round"`` (evaluate shipped fragment against the local
    partition), ``"merged"`` (Proposition 2: derive the base locally).
    The same request drives in-process execution and a site server, which
    gets it as a typed control (:meth:`control`, :mod:`repro.net.bodies`).
    """

    kind: str
    site_id: str
    round_number: int
    steps: tuple = ()
    key_attrs: tuple = ()
    source: object = None
    independent_reduction: bool = False
    #: A ``round``'s fragment as shipped (None for ``base`` and ``merged``).
    fragment: Optional[bytes] = None
    traced: bool = False
    #: Service-assigned query identity; stamped on the site spans so a
    #: shared trace file can be filtered per query (schema v2).
    query_id: object = None
    #: Injected straggler delay: the site sleeps this long (real wall
    #: clock) before evaluating. Set from a ``straggle`` fault rule; the
    #: speculative backup attempt gets 0 once the rule's budget is spent.
    compute_delay_s: float = 0.0
    #: A ``round`` over the detail rows appended after this table
    #: version (an incremental refresh); 0 is the whole partition. A
    #: ``round``'s ``source``, when set, is the distinct base those rows
    #: grow (:meth:`~repro.distributed.site.SkallaSite.evaluate_round`).
    since: int = 0
    #: The round after this one ships the site only the groups it answers
    #: (observed reduction), so Proposition 1 drops every untouched group:
    #: answered now, it would ship down again (:func:`_answer`).
    observed: bool = False
    #: The round after this one ships the site its fragment positionally
    #: against this answer (the site is a child of the root), so the site
    #: keeps the answer's key list and sub-aggregates
    #: (:meth:`~repro.distributed.site.SkallaSite.remember_answer`).
    keep_answer: bool = False
    #: Set from a ``lose_state`` fault rule: the site drops every answer
    #: it kept before it performs the request, as a restart would.
    lose_state: bool = False

    def control(self) -> bytes:
        """The request as the REQ body's typed control
        (:func:`~repro.net.bodies.encode_control`); the fragment crosses
        before it, as the REQ's message, and the site is the connection's.

        An optional field is sent only when it differs from its default,
        so a default's spelling is never on the wire. The comparison is
        against the dataclass default, not against anything the
        coordinator's environment says.
        """
        return bodies.encode_control({
            spec.name: value
            for spec in fields(self)
            if spec.name not in ("fragment", "site_id")
            # A required field's default is MISSING, which nothing equals.
            and (value := getattr(self, spec.name)) != spec.default
        })

    @classmethod
    def from_control(
        cls, control: bytes, fragment: Optional[bytes], site_id: str
    ) -> "SiteRequest":
        """The site's end of :meth:`control`: absent fields take the same
        defaults. Bytes that are not a request raise
        :class:`~repro.errors.ProtocolError`."""
        return cls(**bodies.decode_control(control), site_id=site_id, fragment=fragment)


@dataclass
class SiteReply:
    """The site-attributed outcome of one request.

    ``payload`` is the encoded reply, one block (the leg frames it into
    a message, so byte accounting happens on the parent's channels);
    ``compute_s`` is the site compute charge measured inside
    the site; ``spans``/``counters`` carry a site server's observability
    back for replay.
    """

    payload: bytes
    rows: int
    compute_s: float
    spans: tuple = ()
    counters: dict = field(default_factory=dict)


def encode_answer(h: Relation, keys: Optional[int] = None, rows=None) -> bytes:
    """An answer's payload: ``h`` as one encoded block.

    ``keys`` marks an answer by row address: ``h`` starts with that many
    key attributes, and its rows answer the rows ``rows`` of the fragment
    shipped (ascending; ``None``: every row, in order). Its block is
    :func:`~repro.net.serialize.encode_reply`'s.
    """
    if keys is None:
        return serialize.encode_relation(h)
    if rows is None:
        # Every row in order: the block is the sub-aggregate columns alone.
        return serialize.encode_relation(h.project(h.schema.names[keys:]))
    schema = Schema([*h.schema.attributes, Attribute(serialize.ADDRESS, INT)])
    addressed = Relation.of_columns(schema, [*h.held(), rows], len(h))
    return serialize.encode_reply(addressed, keys)


def _answer(
    h: Relation, keys: Optional[int] = None, answered=None, observed: bool = False
) -> tuple:
    """``(payload, rows shipped)`` of a site's answer (:func:`encode_answer`);
    the rows are ``None`` when every row of ``h`` ships.

    Answering by row address, Proposition 1 drops the rows not
    ``answered`` — unless addressing the rest costs more bytes than those
    rows do: the reduction is there to cut traffic. Not so when the next
    round is ``observed``: an untouched group answered now would ship
    down again in it.
    """
    if keys is None or answered is None or len(answered) == len(h):
        return encode_answer(h, keys), None
    kept = h.gather(answered)
    reduced = encode_answer(kept, keys, answered)
    if not observed:
        whole = encode_answer(h, keys)
        if message_bytes(whole) <= message_bytes(reduced):
            return whole, None
    return reduced, answered


def message_bytes(payload: bytes) -> int:
    """What ``payload`` weighs as a message, its header included."""
    return len(payload) + msg.HEADER_BYTES


def perform_site_request(site, request: SiteRequest, tracer=NULL_TRACER) -> SiteReply:
    """Run the site-attributed body of one leg: decode, evaluate, encode.

    Emits the same ``round.decode`` / ``round.evaluate`` /
    ``round.encode`` site spans (same kinds, same attributes) the serial
    evaluator historically produced, so executor choice never changes
    the trace vocabulary.

    ``compute_s`` is CPU time: the thread's own over the request, plus an
    injected straggle. A site that waits for a core (more site processes
    than cores) is not charged the wait.

    A fragment positional against an answer the site no longer keeps
    raises :class:`~repro.errors.StateMismatch`; the coordinator resends
    it keyed. Any request takes its query's kept answers out, so none
    outlives the query's next request to the site.
    """
    started = time.thread_time()
    if request.lose_state:
        site.forget_answers()
    answers = site.take_answers(request.query_id)
    if request.compute_delay_s > 0:
        # An injected straggler: the site really is this slow, so the
        # sleep is charged to compute_s like any other site work.
        time.sleep(request.compute_delay_s)
    site_id = request.site_id
    ids = {} if request.query_id is None else {"query_id": request.query_id}

    if request.kind == "base":
        with tracer.span(
            "round.evaluate", kind="site", site=site_id, phase="base", **ids
        ) as span:
            result = site.compute_base(request.source)
            span.set(rows=len(result))
        with tracer.span("round.encode", kind="site", site=site_id, **ids):
            payload = serialize.encode_relation(result)
        return SiteReply(
            payload=payload,
            rows=len(result),
            compute_s=_charged(started, request),
        )

    keys = answered = None  # an answer by row address: see _answer
    if request.kind == "merged":
        with tracer.span(
            "round.evaluate", kind="site", site=site_id, merged_base=True, **ids
        ) as span:
            h_i = site.evaluate_merged_round(
                request.source, request.steps, request.key_attrs
            )
            span.set(rows=len(h_i))
    elif request.kind == "round":
        with tracer.span("round.decode", kind="site", site=site_id, **ids) as decode_span:
            fragment, digest, shared = serialize.decode_fragment(request.fragment)
            if shared is not None:
                # The rows more than one site answered; the site finalizes the rest.
                shared = serialize.decode_reply(shared, (), len(fragment))
                derived = len(fragment) - len(shared[1])
            if digest is not None:
                fragment, keys_bytes = site.rejoin(
                    answers, digest, fragment, request.key_attrs, shared
                )
                registry = active_registry()
                registry.counter("site.round_state_hits").inc()
                decode_span.set(positional=True, keys_bytes=keys_bytes)
                if shared is not None:
                    registry.counter("site.rows_derived").inc(derived)
                    decode_span.set(derived_rows=derived)
        with tracer.span(
            "round.evaluate",
            kind="site",
            site=site_id,
            steps=len(request.steps),
            fragment_rows=len(fragment),
            **ids,
        ) as span:
            h_i = site.evaluate_round(
                fragment,
                request.steps,
                request.key_attrs,
                request.independent_reduction,
                since=request.since,
                grows=request.source,
                # A round that grows the base answers keyed: its new groups
                # are not rows of the fragment.
                addressed=request.source is None,
            )
            if request.source is None:
                h_i, answered = h_i
                keys = len(serialize.carried_keys(request.key_attrs, h_i.schema.names))
            span.set(rows=len(h_i))
    else:
        raise PlanError(f"unknown site request kind {request.kind!r}")

    with tracer.span(
        "round.encode", kind="site", site=site_id, **ids
    ) as encode_span:
        payload, shipped = _answer(h_i, keys, answered, request.observed)
        rows = len(h_i) if shipped is None else len(shipped)
        encode_span.set(rows=rows, bytes=message_bytes(payload))
        if request.keep_answer:
            _remember(site, request, h_i, keys is None, shipped, payload)
    return SiteReply(
        payload=payload,
        rows=rows,
        compute_s=_charged(started, request),
    )


def _charged(started: float, request: SiteRequest) -> float:
    """A request's compute charge: this thread's CPU time since ``started``
    and the straggle it was injected with."""
    return time.thread_time() - started + request.compute_delay_s


def _remember(site, request: SiteRequest, h_i: Relation, keyed: bool, shipped, reply) -> None:
    """Keep the key list and sub-aggregates of the answer ``reply``
    (``h_i``'s rows ``shipped``; ``None``: all of them) for the next
    round's positional fragment, when ``h_i`` holds keys it can be shipped
    against.

    A ``keyed`` answer is kept as its own block, which leads with K and
    holds the sub-aggregates, so keeping it encodes nothing more. An answer
    by row address carries no K, so its key columns are encoded to keep,
    beside its block."""
    keys = serialize.positional_keys(h_i.schema, request.key_attrs)
    if not keys:
        return
    if keyed:
        block = reply
    else:
        kept = h_i.project(keys)
        if shipped is not None:
            kept = kept.gather(shipped)
        block = serialize.encode_relation(kept)
    site.remember_answer(
        request.query_id,
        serialize.answer_digest(
            () if request.fragment is None else (request.fragment,), (reply,)
        ),
        block,
        len(h_i) if shipped is None else len(shipped),
        reply=None if keyed else reply,
        steps=request.steps,
    )


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def run_inline(leg, sleep=time.sleep):
    """Drive one leg generator to its result on this thread.

    A backoff (a float: seconds) is slept; a reply wait (a channel)
    resumes at once, and the channel's read blocks until the reply lands.
    """
    try:
        while True:
            wait = leg.send(None)
            if isinstance(wait, float):
                sleep(wait)
    except StopIteration as done:
        return done.value


def _interleave(site_ids: Sequence[str], leg, speculation) -> list:
    """Run one leg per site on this thread; results in *site order*.

    Each leg is a generator, started in site order. It runs until it
    yields what it waits for — a channel whose REQ it wrote, or a backoff
    in seconds — and is resumed when its REPLY is readable (one selector
    over the round's sockets, built when a leg first waits on one, so
    replies are taken in arrival order) or its backoff has passed. A leg
    over an in-memory channel never waits for a reply, so it runs to its
    end (or to a backoff) before the next leg starts. A wait longer than
    the channel's ``io_timeout_s`` is thrown a
    :class:`~repro.errors.NetworkError`; once ``speculation``'s deadline
    passes, a leg still waiting is thrown a
    :class:`~repro.errors.LegDeadlineExceeded` while the round has a
    backup to spend. A failed leg does not stop the others: every leg
    runs to its end, and a single failure re-raises its own exception,
    several a :class:`~repro.errors.MultiLegError`.
    """
    legs = {site_id: leg(site_id) for site_id in site_ids}
    results: dict = {}
    failures: dict = {}
    replying: dict = {}  # site -> (channel, when its wait times out)
    waking: dict = {}  # site -> when its backoff ends
    selector = None

    def step(site_id, error=None):
        nonlocal selector
        try:
            if error is None:
                wait = legs[site_id].send(None)
            else:
                wait = legs[site_id].throw(error)
        except StopIteration as done:
            results[site_id] = done.value
        except Exception as failure:  # noqa: BLE001 - reported, not hidden
            failures[site_id] = failure
        else:
            now = time.perf_counter()
            if isinstance(wait, float):
                waking[site_id] = now + wait
            else:
                if selector is None:
                    selector = selectors.DefaultSelector()
                selector.register(wait, selectors.EVENT_READ, site_id)
                replying[site_id] = wait, now + wait.io_timeout_s

    def resume(site_id, error=None):
        channel, _timeout = replying.pop(site_id)
        selector.unregister(channel)
        step(site_id, error)

    try:
        for site_id in site_ids:
            step(site_id)
        while replying or waking:
            due = [*waking.values(), *(at for _channel, at in replying.values())]
            abandon_at = speculation.abandon_at() if speculation is not None else None
            if abandon_at is not None and replying:
                due.append(abandon_at)
            timeout = max(0.0, min(due) - time.perf_counter())
            if replying:
                for key, _events in selector.select(timeout):
                    resume(key.data)
            else:
                time.sleep(timeout)
            now = time.perf_counter()
            for site_id in [site for site, at in waking.items() if at <= now]:
                del waking[site_id]
                step(site_id)
            for site_id, (channel, at) in list(replying.items()):
                if at <= now:
                    resume(site_id, NetworkError(
                        f"no reply from site {site_id!r} within "
                        f"{channel.io_timeout_s} s"
                    ))
            abandon_at = speculation.abandon_at() if speculation is not None else None
            if abandon_at is not None and abandon_at <= now:
                for site_id in [site for site in site_ids if site in replying]:
                    resume(site_id, LegDeadlineExceeded(site_id, speculation.abandon()))
                    if speculation.abandon_at() is None:
                        break
    finally:
        if selector is not None:
            selector.close()
        for generator in legs.values():
            generator.close()  # a leg cut short drops its connection
    if len(failures) == 1:
        raise next(iter(failures.values()))
    if failures:
        raise MultiLegError(failures)
    return [results[site_id] for site_id in site_ids]


def perform_isolated_request(site, request: SiteRequest) -> SiteReply:
    """Run a request under a private tracer/registry and carry both back.

    What a ``repro site-server`` process runs per request: spans land on
    the reply as dicts for coordinator-side replay, counter deltas as a
    flat dict (unlabeled counters only — labeled ones are per-site
    bookkeeping the coordinator's channels already account for).
    """
    registry = MetricsRegistry()
    with activate(registry):
        if request.traced:
            tracer = Tracer()
            reply = perform_site_request(site, request, tracer)
            reply.spans = tuple(span.to_dict() for span in tracer.spans)
        else:
            reply = perform_site_request(site, request)
    counters = {
        key: snap["value"]
        for key, snap in registry.snapshot().items()
        if snap["type"] == "counter" and snap["value"] and "{" not in key
    }
    reply.counters = counters
    return reply


def _replay_remote(tracer, reply: SiteReply, site_id, clock_offset_s: float = 0.0) -> None:
    """Re-record what an out-of-process site sent back with its reply.

    Spans are replayed under the span open on this thread (the round's,
    or a combiner hop's), shifted by
    ``clock_offset_s`` (the site server's clock against this process's);
    counter deltas go to the active registry.
    """
    if reply.spans:
        tracer.replay(
            reply.spans, clock_offset_s=clock_offset_s, site_id=site_id,
            process="site",
        )
    if reply.counters:
        registry = active_registry()
        for key, value in reply.counters.items():
            registry.counter(key).inc(value)


class Engine:
    """Runs a round's legs on the calling thread, over either transport:
    the leg's channel plays the site's turn (:meth:`evaluate`), and
    :func:`_interleave` runs the round.

    The engine holds no site object, no tracer and no thread: each
    :meth:`evaluate` call is given the leg's channel and replays through
    that channel's tracer, so one shared engine (the query service keeps
    a single engine for its lifetime) works with a fresh per-query
    network, and an engine per query costs nothing to build. An engine
    used after ``close()`` fails fast instead of running a round half
    torn down.
    """

    _closed = False

    def run_legs(self, site_ids: Sequence[str], leg, speculation=None) -> list:
        """Run ``leg`` once per site, interleaved on this thread; results
        in *site order*, failures from every leg."""
        self._check_open()
        return _interleave(site_ids, leg, speculation)

    def evaluate(self, request: SiteRequest, channel):
        """One site's turn, a generator: ask, yield ``channel`` while it
        waits for the site's answer, take the answer and replay what it
        carries (:func:`_replay_remote`).

        Anything thrown in while it waits (an abandon, a timeout, the
        round's end) abandons the turn: a REPLY still on its way must not
        answer the channel's next REQ.
        """
        self._check_open()
        channel.ask(request)
        if channel.waiting:
            try:
                yield channel
            except BaseException:
                channel.abandon()
                raise
        meta, payload = channel.answer()
        reply = SiteReply(
            payload=payload,
            rows=meta["rows"],
            compute_s=meta["compute_s"],
            spans=tuple(meta.get("spans", ())),
            counters=dict(meta.get("counters", {})),
        )
        # Site-server processes run their own monotonic clock; the
        # channel's PING-estimated offset (see repro.obs.skew) maps the
        # shipped timestamps into this process's domain.
        _replay_remote(channel.tracer, reply, request.site_id, channel.clock_offset_s)
        return reply

    def _check_open(self) -> None:
        if self._closed:
            raise PlanError(f"{self.name} engine used after close()")

    def close(self) -> None:
        self._closed = True


# One class per executor, though they differ only in name:
# ``bench_e2e/hooks.py`` wraps ``run_legs`` (and ``evaluate``) on each
# class by name, and one class under both names would be wrapped twice,
# counting every round twice in a traced run.
class SerialEngine(Engine):
    """The engine over in-memory channels: the sites live in this process."""

    name = "serial"


class SocketEngine(Engine):
    """The engine over socket channels: the sites are site-server processes."""

    name = "sockets"


def create_engine(executor: str, network):
    """Build the engine for an :class:`ExecutionConfig` executor name.

    The executor names the transport the run expects — ``serial``
    in-memory channels, ``sockets`` socket channels — and ``network``
    must be it. A mismatch is a configuration mistake, not a transient
    fault, so it is refused here, before any leg starts: no retry re-runs
    it and no degrade excludes a site for it.
    """
    if executor not in EXECUTORS:
        raise PlanError(
            f"unknown executor {executor!r}; expected one of {', '.join(EXECUTORS)}"
        )
    expected = "sockets" if executor == "sockets" else "memory"
    transport = getattr(network, "transport", "memory")
    if transport != expected:
        raise PlanError(
            f"the {executor} executor runs over {expected} channels, and this "
            f"cluster's are {transport}: run serial on a simulated cluster and "
            "sockets on a deployed process cluster (repro cluster up / "
            "--executor sockets)"
        )
    return SocketEngine() if executor == "sockets" else SerialEngine()
