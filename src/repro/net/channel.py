"""The coordinator<->site edge: one contract, two transports, one ledger.

Alg. GMDJDistribEval moves sub-aggregates over coordinator<->site edges
and Theorem 2 bounds the bytes on them, so an edge and its byte ledger
exist once. This docstring is the contract's one spec.

A :class:`Channel` is one edge. It has

- a **coordinator end** — ``send_to_site`` ships a message down,
  ``receive_at_coordinator`` takes the next reply in;
- a **leg**, the site's turn, which each transport's channel plays
  through the same three calls: ``ask(request)`` puts the turn to the
  site, ``answer()`` returns ``(reply meta, payload as sent)``,
  ``abandon()`` gives the turn up. In memory, ``ask`` plays the site end
  at once for the network's *host* (the ``perform`` callable it was built
  with): ``take_at_site`` (everything shipped since the last take),
  perform, ``send_to_coordinator`` with the reply — so a memory channel
  is never ``waiting``. Over TCP, ``ask`` writes the REQ to the site's
  server process, and the channel is ``waiting`` until ``answer`` reads
  the REPLY (:class:`repro.net.socket_channel.SocketChannel`). A
  combiner's host makes the two site-end calls itself;
- the **recovery hooks** the retry layer drives: ``begin_attempt``,
  ``next_straggle``, ``next_state_loss``, ``drain_pending``.

Every message, in either direction, on either transport, is handled
once: validated (it is addressed to, or comes from, this edge's site) ->
shown once to the channel's **fault policy** -> recorded once in the
direction's :class:`DirectionStats` -> moved. A down message is recorded
when ``send_to_site`` takes it (over TCP it then crosses in the leg's
REQ), an up message when it is sent up, or over TCP when its REPLY is
read.
All data moves as encoded :class:`~repro.net.message.Message` payloads —
the receiving side *decodes* the bytes into fresh objects, so sites and
coordinator never share mutable state, exactly as separate machines would
not.

The fault policy answers one question per message, ``judge(message,
direction) -> (message to carry, DELIVER | LOST | LATE)`` (raising
:class:`~repro.errors.SiteUnavailableError` while the site is down for
the attempt), plus ``require_up``, ``begin_attempt``, ``next_straggle``,
``next_state_loss`` and the ``events`` it fired. A perfect link has :data:`PERFECT_LINK`; a
:class:`~repro.net.faults.FaultPlan` builds the other kind. What a
verdict means on the wire is the transport's business: here a LOST
message is recorded and not queued and a LATE one fails one receive; on
TCP both cross in a REQ flagged ``DROPPED`` (the bytes left the sender),
which the site discards unanswered, and the site's turn fails
transiently.

There are two byte ledgers and neither is derived from the other: the
channel's :class:`DirectionStats` (``net.messages{direction,site}``,
``net.bytes{direction,site}`` and per-round
``net.round.bytes{direction,round,site}`` counters in a
:class:`~repro.obs.metrics.MetricsRegistry`, one per :class:`Network` or
injected so a traced run sees wire traffic next to its spans) and the
evaluator's own ``RoundStats`` tally; ``verify_against_network`` compares
them. That both transports keep the contract alike — same fault events,
same bytes, same failure at the same step — is a test that runs both
(``tests/test_channel_contract.py``), not a base class they share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Dict, Optional

from repro.errors import NetworkError, PlanError
from repro.net.message import BASE_RESULT, HEADER_BYTES, SUB_RESULT, Message
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracer import NULL_TRACER

DOWN = "down"  # coordinator -> site
UP = "up"  # site -> coordinator

#: A fault policy's verdicts on one message (see the module docstring).
DELIVER = "deliver"
LOST = "lost"
LATE = "late"


class DirectionStats:
    """Byte/message counters for one direction of a channel.

    A view over the channel's metrics registry: recording increments
    registry counters, and the read properties reflect them, so existing
    callers (stats, benchmarks, tests) see the same numbers whether they
    read the registry or this object.
    """

    __slots__ = ("site_id", "direction", "_registry", "_messages", "_bytes", "_rounds")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        site_id: str = "",
        direction: str = DOWN,
    ):
        if direction not in (DOWN, UP):
            raise NetworkError(f"unknown direction {direction!r}")
        self.site_id = site_id
        self.direction = direction
        self._registry = registry if registry is not None else MetricsRegistry()
        self._messages = self._registry.counter(
            "net.messages", direction=direction, site=site_id
        )
        self._bytes = self._registry.counter(
            "net.bytes", direction=direction, site=site_id
        )
        self._rounds: Dict[int, Counter] = {}

    def record(self, message: Message) -> None:
        # Defensive validation: a malformed message (negative round, a
        # size inconsistent with its payload) would silently corrupt the
        # ``net.round.bytes`` accounting every report is built on, so the
        # bookkeeper rejects it even though ``Message`` itself validates
        # at construction (duck-typed or mutated objects get here too).
        round_index = message.round_index
        if (
            not isinstance(round_index, int)
            or isinstance(round_index, bool)
            or round_index < 0
        ):
            raise NetworkError(
                f"malformed message on channel {self.site_id!r}: "
                f"round_index must be a non-negative int, got {round_index!r}"
            )
        payload = getattr(message, "payload", None)
        expected = HEADER_BYTES + (len(payload) if payload else 0)
        if message.size_bytes != expected:
            raise NetworkError(
                f"malformed message on channel {self.site_id!r}: size_bytes="
                f"{message.size_bytes} inconsistent with payload ({expected})"
            )
        self._messages.inc()
        self._bytes.inc(message.size_bytes)
        round_counter = self._rounds.get(message.round_index)
        if round_counter is None:
            round_counter = self._registry.counter(
                "net.round.bytes",
                direction=self.direction,
                site=self.site_id,
                round=message.round_index,
            )
            self._rounds[message.round_index] = round_counter
        round_counter.inc(message.size_bytes)

    # -- read views --------------------------------------------------------------

    @property
    def messages(self) -> int:
        return self._messages.value

    @property
    def bytes(self) -> int:
        return self._bytes.value

    @property
    def by_round(self) -> Dict[int, int]:
        """Bytes per round index (a fresh snapshot dict on every access)."""
        return {
            round_index: counter.value
            for round_index, counter in self._rounds.items()
        }

    def bytes_in_round(self, round_index: int) -> int:
        """Bytes this direction moved in one round (0 if it was idle)."""
        counter = self._rounds.get(round_index)
        return counter.value if counter is not None else 0


class _PerfectLink:
    """The fault policy of a link on which nothing goes wrong."""

    __slots__ = ()
    events = ()

    def begin_attempt(self, round_index: int) -> None:
        pass

    def next_straggle(self, round_index: int) -> float:
        return 0.0

    def next_state_loss(self, round_index: int) -> bool:
        return False

    def require_up(self) -> None:
        pass

    def judge(self, message: Message, direction: str) -> tuple:
        return message, DELIVER


#: The one null policy every fault-free channel shares (it has no state).
PERFECT_LINK = _PerfectLink()


class Channel:
    """One coordinator<->site edge, in memory: a queue per direction.

    ``faults`` is a :class:`~repro.net.faults.FaultPlan` (or None); the
    channel asks it for its own policy object, so sites fail
    independently and deterministically whatever order their legs run in.
    ``perform(request, tracer)`` is the site's host: it performs one
    request against the site and returns its reply (a payload, ``rows``
    and ``compute_s``); :meth:`ask` plays the site's turn with it. A
    channel without one (a combiner's edge) has its site end played by
    whoever holds it.
    :class:`~repro.net.socket_channel.SocketChannel` keeps this class's
    coordinator end and ledger and replaces how a message moves.
    """

    #: Span tracer for fault events and the site's own spans (installed
    #: per run by the evaluator via :attr:`Network.tracer`).
    tracer = NULL_TRACER
    #: Whether an asked turn is still to be answered: never here, since
    #: :meth:`ask` plays the whole turn.
    waiting = False
    #: The site's clock against this process's: the same clock here.
    clock_offset_s = 0.0

    def __init__(
        self,
        site_id: str,
        metrics: Optional[MetricsRegistry] = None,
        faults=None,
        perform=None,
    ):
        self.site_id = site_id
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.downstream = DirectionStats(self.metrics, site_id, DOWN)
        self.upstream = DirectionStats(self.metrics, site_id, UP)
        self.policy = faults.injector(self) if faults else PERFECT_LINK
        self._perform = perform
        #: The reply of the turn :meth:`ask` played, until :meth:`answer`.
        self._reply = None
        #: Messages in flight, by the direction they travel.
        self._queues = {DOWN: deque(), UP: deque()}
        #: Messages sent down since the site end last took its shipment.
        self._shipped = 0
        #: Receives that must still fail, one per LATE message, by direction.
        self._late = {DOWN: 0, UP: 0}

    @property
    def events(self):
        """The :class:`~repro.net.faults.FaultEvent` s fired on this edge."""
        return self.policy.events

    def _admit(self, message: Message, direction: str) -> tuple:
        """Validate an outbound message and show it, once, to the policy."""
        if direction == DOWN and message.recipient != self.site_id:
            raise NetworkError(
                f"message addressed to {message.recipient!r} on channel to {self.site_id!r}"
            )
        if direction == UP and message.sender != self.site_id:
            raise NetworkError(
                f"message from {message.sender!r} on channel of {self.site_id!r}"
            )
        return self.policy.judge(message, direction)

    def _enqueue(self, direction: str, message: Message, verdict) -> None:
        if verdict is LOST:
            return
        if verdict is LATE:
            self._late[direction] += 1
        self._queues[direction].append(message)

    def _receive(self, direction: str) -> Message:
        self.policy.require_up()
        if self._late[direction]:
            self._late[direction] -= 1
            raise NetworkError(
                f"message for channel {self.site_id!r} is delayed in flight"
            )
        try:
            return self._queues[direction].popleft()
        except IndexError:
            raise NetworkError(
                f"no pending {direction} message on channel {self.site_id!r}"
            ) from None

    # -- coordinator end ---------------------------------------------------------

    def send_to_site(self, message: Message) -> None:
        carried, verdict = self._admit(message, DOWN)
        self.downstream.record(carried)
        self._shipped += 1
        self._enqueue(DOWN, carried, verdict)

    def receive_at_coordinator(self) -> Message:
        return self._receive(UP)

    # -- site end (in process) ---------------------------------------------------

    def receive_at_site(self) -> Message:
        return self._receive(DOWN)

    def take_at_site(self) -> list:
        """Everything shipped down since the last take, in order.

        The channel counts its own sends, so a shipment any part of which
        was lost, or is late, raises :class:`~repro.errors.NetworkError`
        instead of coming back short.
        """
        shipped, self._shipped = self._shipped, 0
        return [self.receive_at_site() for _message in range(shipped)]

    def send_to_coordinator(self, message: Message) -> None:
        carried, verdict = self._admit(message, UP)
        self.upstream.record(carried)
        self._enqueue(UP, carried, verdict)

    # -- the leg -----------------------------------------------------------------

    def ask(self, request) -> None:
        """Play the site's turn now: take the one message shipped down
        (which raises if it was lost or is late), hand a ``round`` request
        its fragment, have the host perform it, send the reply up to
        whoever shipped. :meth:`answer` returns what it answered."""
        if self._perform is None:
            raise PlanError(f"nothing hosts site {self.site_id!r} in this process")
        (shipment,) = self.take_at_site()
        if request.kind == "round":
            request = replace(request, fragment=shipment.payload)
        reply = self._perform(request, self.tracer)
        kind = BASE_RESULT if request.kind == "base" else SUB_RESULT
        self.send_to_coordinator(
            Message(kind, request.site_id, shipment.sender, request.round_number, reply.payload)
        )
        self._reply = reply

    def answer(self) -> tuple:
        """``(reply meta, payload as sent)`` of the turn :meth:`ask` played;
        its up message waits for ``receive_at_coordinator``."""
        reply, self._reply = self._reply, None
        return {"rows": reply.rows, "compute_s": reply.compute_s}, reply.payload

    def abandon(self) -> None:
        """Give up on the turn :meth:`ask` played: its reply is dropped."""
        self._reply = None

    # -- recovery hooks ----------------------------------------------------------

    def begin_attempt(self, round_index: int) -> None:
        """Mark the start of one leg attempt: the policy decides whether
        the site is down for all of it."""
        self.policy.begin_attempt(round_index)

    def next_straggle(self, round_index: int) -> float:
        """Injected compute delay for this leg attempt (0 on a perfect link)."""
        return self.policy.next_straggle(round_index)

    def next_state_loss(self, round_index: int) -> bool:
        """Whether the site loses its kept answers before this leg attempt."""
        return self.policy.next_state_loss(round_index)

    def drain_pending(self) -> int:
        """Discard undelivered messages in both directions.

        Called by the retry layer between leg attempts so a re-run leg
        never consumes stale messages from its failed predecessor.
        Returns the number of queued messages discarded.
        """
        discarded = sum(map(len, self._queues.values()))
        self._queues = {DOWN: deque(), UP: deque()}
        self._shipped = 0
        self._late = {DOWN: 0, UP: 0}
        return discarded

    @property
    def total_bytes(self) -> int:
        return self.downstream.bytes + self.upstream.bytes


class Network:
    """The star topology: one channel per site, coordinator at the hub.

    Construct with a :class:`~repro.net.faults.FaultPlan` and every
    channel consults it: the plan's deterministic
    drop/delay/duplicate/corrupt/crash/straggle schedule, with fresh
    firing state per channel. ``perform`` hosts the sites in this
    process: every channel's :meth:`Channel.ask` plays its site's turn
    with it.
    """

    def __init__(
        self,
        site_ids,
        metrics: Optional[MetricsRegistry] = None,
        faults=None,
        perform=None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = faults
        self._perform = perform
        self._channels = {site_id: self._open(site_id) for site_id in site_ids}
        if not self._channels:
            raise NetworkError("a network needs at least one site")
        self._tracer = NULL_TRACER

    def _open(self, site_id: str) -> Channel:
        """One site's channel: the only thing a transport's network overrides."""
        return Channel(site_id, self.metrics, self.faults, self._perform)

    def channel(self, site_id: str) -> Channel:
        try:
            return self._channels[site_id]
        except KeyError:
            raise NetworkError(f"unknown site {site_id!r}") from None

    @property
    def tracer(self):
        """Span tracer for network-level (fault) events."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        for channel in self._channels.values():
            channel.tracer = tracer

    def fault_events(self) -> list:
        """Every injected-fault event, in per-channel occurrence order."""
        events = []
        for channel in self._channels.values():
            events.extend(channel.events)
        return events

    @property
    def site_ids(self) -> tuple:
        return tuple(self._channels)

    def total_bytes(self) -> int:
        return sum(channel.total_bytes for channel in self._channels.values())

    def bytes_by_direction(self) -> tuple:
        """``(coordinator_to_sites, sites_to_coordinator)`` byte totals."""
        down = sum(channel.downstream.bytes for channel in self._channels.values())
        up = sum(channel.upstream.bytes for channel in self._channels.values())
        return down, up

    def round_bytes(self, round_index: int, site_id: Optional[str] = None) -> int:
        """Bytes moved in one round, for one site or all sites."""
        channels = (
            [self.channel(site_id)] if site_id is not None else self._channels.values()
        )
        total = 0
        for channel in channels:
            total += channel.downstream.bytes_in_round(round_index)
            total += channel.upstream.bytes_in_round(round_index)
        return total
