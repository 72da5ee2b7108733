"""Site-execution engines: serial and sockets.

Alg. GMDJDistribEval's per-round site work — ship the fragment down,
evaluate the GMDJ step(s), ship H_i back — is independent across sites,
so a real deployment overlaps it perfectly (the paper's response-time
model in :mod:`repro.distributed.stats` already assumes max-over-sites).
The evaluator expresses each round as one *leg* per site, and an engine
decides how legs run:

- ``serial`` — legs run inline, one site after another: the in-process
  differential baseline;
- ``sockets`` — the sites are ``repro site-server`` processes behind TCP
  and legs fan out on one thread per site; a leg's site work is one
  :meth:`~repro.net.socket_channel.SocketChannel.ask`, so sites compute
  at the same time with no interpreter lock shared between them. The
  coordinator's :class:`~repro.gmdj.operator.SyncSession` absorbs
  fragments in completion order (Section 3.2's streaming merge) while
  staying bit-identical via per-source accumulator banks.

The split between a leg and :func:`perform_site_request` is exactly the
paper's attribution boundary: the leg (parent) does coordinator work —
fragmenting, message framing, channel accounting, decoding H_i,
synchronizing — while :func:`perform_site_request` does everything a
Skalla site would be charged for. Who plays the *site end* of the leg's
channel is the engine's business and nobody else's: the serial engine
plays it itself (:func:`play_site_end`), the sockets engine's site end is
the server process. Both executors therefore produce identical byte
counts, identical span *sets*, and (thanks to the deterministic bank
merge) bit-identical result relations.

Out-of-process bookkeeping: a site server records spans into a private
tracer and metric increments into a private registry
(:func:`perform_isolated_request`), and the reply carries them back; the
coordinator *replays* spans (fresh ids, parented under the round span,
shifted by the channel's clock offset) and adds counter deltas to the
active registry, so traces and metrics look the same as an in-process
run.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

from repro.errors import MultiLegError, PlanError
from repro.net import message as msg
from repro.net import serialize
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
    The payload is picklable — plan step objects contain no closures —
    so the same request drives in-process execution and a site server.
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

    def control(self) -> dict:
        """The request as the REQ body's pickled part (the fragment crosses
        before it, as the REQ's message).

        An optional field is present only when it differs from its
        default, so a default's spelling is never on the wire. The
        comparison is against the dataclass default, not against anything
        the coordinator's environment says.
        """
        return {
            spec.name: value
            for spec in fields(self)
            if spec.name != "fragment"
            # A required field's default is MISSING, which nothing equals.
            and (value := getattr(self, spec.name)) != spec.default
        }

    @classmethod
    def from_control(cls, control: dict, fragment: Optional[bytes]) -> "SiteRequest":
        """The site's end of :meth:`control`: absent fields take the same defaults."""
        return cls(**control, fragment=fragment)


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


def play_site_end(channel, request: SiteRequest, perform) -> SiteReply:
    """The site's turn on ``channel``, played in this process.

    Take the one message the parent shipped (the channel raises if it
    was lost or is late), hand a ``round`` request its fragment,
    ``perform`` the request, send the reply up to whoever shipped.
    """
    (shipment,) = channel.take_at_site()
    if request.kind == "round":
        request = replace(request, fragment=shipment.payload)
    reply = perform(request)
    kind = msg.BASE_RESULT if request.kind == "base" else msg.SUB_RESULT
    channel.send_to_coordinator(
        msg.Message(
            kind, request.site_id, shipment.sender, request.round_number,
            reply.payload,
        )
    )
    return reply


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def _raise_leg_failures(failures: dict, cancelled: Sequence[str]) -> None:
    """Raise the collected leg failures.

    A single failure with nothing cancelled re-raises the original
    exception unchanged (callers and tests match on the concrete type);
    anything more is a :class:`~repro.errors.MultiLegError` carrying
    *every* failed site id and cause.
    """
    if len(failures) == 1 and not cancelled:
        raise next(iter(failures.values()))
    raise MultiLegError(failures, cancelled)


def _collect_leg_results(site_ids: Sequence[str], futures) -> list:
    """Gather leg futures in site order without losing any failure.

    Waits for *every* future (cancelling the not-yet-started ones after
    the first failure is observed), so one failing leg can neither
    swallow a later leg's exception nor abandon in-flight work. Results
    come back in site order; on any failure raises via
    :func:`_raise_leg_failures`.
    """
    failures: dict = {}
    seen_failure = False
    results = []
    cancelled = []
    for site_id, future in zip(site_ids, futures):
        if seen_failure:
            # Legs that have not started yet are pointless once the
            # round is doomed; running ones are awaited below.
            future.cancel()
        try:
            results.append(future.result())
        except CancelledError:
            cancelled.append(site_id)
        except BaseException as error:  # noqa: BLE001 - reported, not hidden
            failures[site_id] = error
            seen_failure = True
    if failures:
        _raise_leg_failures(failures, cancelled)
    return results


class _EngineLifecycle:
    """Shared close-once semantics.

    The query service keeps one engine alive across many concurrent
    queries, which makes use-after-close a real hazard (a pool shutdown
    mid-round hangs or drops legs silently), so every engine fails fast
    instead.
    """

    _closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise PlanError(f"{self.name} engine used after close()")

    def close(self) -> None:
        self._closed = True


class SerialEngine(_EngineLifecycle):
    """Legs run inline on the calling thread — the differential baseline."""

    name = "serial"

    def __init__(self, sites, tracer):
        self._sites = sites
        self._tracer = tracer

    def run_legs(self, site_ids: Sequence[str], leg, parent_span=None) -> list:
        # Serially a failed leg aborts the round before later legs start,
        # so the first exception *is* the complete failure report and
        # propagates unchanged (the sockets engine, where several legs can
        # fail concurrently, aggregates into MultiLegError instead).
        self._check_open()
        return [leg(site_id) for site_id in site_ids]

    def evaluate(self, request: SiteRequest, channel) -> SiteReply:
        """One site's turn of a leg, played in this process over the leg's channel."""
        self._check_open()
        return play_site_end(channel, request, self._perform)

    def _perform(self, request: SiteRequest) -> SiteReply:
        return perform_site_request(
            self._sites[request.site_id], request, self._tracer
        )


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

    Spans are replayed under the leg's attached span, shifted by
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


class SocketEngine(_EngineLifecycle):
    """Legs fan out on one thread per site; site work runs in site-server
    *processes* reached over the leg's
    :class:`~repro.net.socket_channel.SocketChannel`.

    The engine holds no site objects — the partitions live behind TCP in
    ``repro site-server`` processes, and each :meth:`evaluate` call is
    given the leg's channel, so one shared engine (the query service keeps
    a single engine for its lifetime) works with a fresh per-query
    network. Spans and counters come back on the reply and are replayed
    (:func:`_replay_remote`).
    """

    name = "sockets"

    def __init__(self, sites, tracer):
        self._tracer = tracer
        self._legs = ThreadPoolExecutor(
            max_workers=max(len(sites), 1), thread_name_prefix="skalla-socket-leg"
        )

    def run_legs(self, site_ids: Sequence[str], leg, parent_span=None) -> list:
        """Run ``leg`` once per site on the pool; results in *site order*,
        failures from every leg (:func:`_collect_leg_results`)."""
        self._check_open()
        tracer = self._tracer

        def attached(site_id):
            with tracer.attach(parent_span):
                return leg(site_id)

        futures = [self._legs.submit(attached, site_id) for site_id in site_ids]
        return _collect_leg_results(site_ids, futures)

    def evaluate(self, request: SiteRequest, channel) -> SiteReply:
        self._check_open()
        meta, payload = channel.ask(request)
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
        _replay_remote(
            self._tracer, reply, request.site_id, channel.clock_offset_s
        )
        return reply

    def close(self) -> None:
        super().close()
        self._legs.shutdown(wait=True, cancel_futures=True)


def create_engine(executor: str, sites, tracer, network):
    """Build the engine for an :class:`ExecutionConfig` executor name.

    The sockets engine binds to a channel per :meth:`~SocketEngine.evaluate`
    call; ``network`` only says whether it can run at all, refused here
    over in-process channels before any leg starts.
    """
    if executor == "serial":
        return SerialEngine(sites, tracer)
    if executor == "sockets":
        if getattr(network, "transport", None) != "sockets":
            raise PlanError(
                "the sockets engine needs site-server processes — run it "
                "against a deployed process cluster (repro cluster up / "
                "--executor sockets), not a simulated one"
            )
        return SocketEngine(sites, tracer)
    raise PlanError(
        f"unknown executor {executor!r}; expected one of {', '.join(EXECUTORS)}"
    )
