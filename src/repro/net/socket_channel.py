"""Real TCP transport for process-separated Skalla sites.

The simulated :class:`~repro.net.channel.Channel` stays on as the
byte-accounting oracle: a :class:`SocketChannel` *is* a
:class:`~repro.net.faults.FaultyChannel` (same queues, same
``DirectionStats``, same fault schedule), and additionally mirrors every
message onto a length-prefixed TCP connection to the site's server
process. Control flow — retries, degrade verdicts, fault events — is
driven by the simulated side, so verdicts over sockets match the
in-process engines exactly; the wire side carries the *bytes* so the
modeled traffic numbers become measurable.

Wire format (all integers big-endian):

- frame    = ``length(4) | type(1) | body(length-1)`` — ``length``
  counts the type byte plus the body;
- MSG body = the 32-byte message header (magic ``SM``, kind code, flags,
  round index, payload length, zero padding — exactly
  :data:`~repro.net.message.HEADER_BYTES` bytes, so a MSG body is
  bit-for-bit as long as the modeled ``Message.size_bytes``) followed by
  the codec payload;
- control frames (HELLO/WELCOME/REQ/REPLY/ERROR/RESET/SHUTDOWN/BYE)
  carry JSON or pickled bodies and are charged entirely to *framing
  overhead*, never to payload bytes.

Parity invariant: for every clean (non-faulted) query, measured MSG body
bytes per direction equal the modeled ``DirectionStats`` bytes exactly.
Injected faults keep the invariant by construction: a *dropped* message
still crosses the wire flagged ``DROPPED`` (the site discards it — the
bytes left the NIC, which is what DirectionStats models); a *duplicate*
copy is charged to ``net.fault.bytes`` in the model and is therefore
*not* re-sent on the wire; *corrupt* replaces the payload with one of
equal length; *crash* raises before anything is recorded or sent.

REQ/REPLY control bodies use :mod:`pickle`, the same trust model as the
``processes`` executor (``multiprocessing`` pickles over pipes): site
servers are our own processes on a trusted local cluster, never an
untrusted peer.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import threading
from typing import Dict, Optional, Tuple

import repro.errors as errors_module
from repro.errors import (
    LegDeadlineExceeded,
    NetworkError,
    RemoteSiteError,
    ReproError,
    SiteUnavailableError,
)
from repro.net.channel import DOWN, UP, Network
from repro.net.faults import FaultPlan, FaultyChannel, _Held
from repro.net.message import (
    BASE_QUERY,
    BASE_RESULT,
    FINAL_RESULT,
    HEADER_BYTES,
    SHIP_BASE,
    SUB_RESULT,
    Message,
)

# -- frame types -------------------------------------------------------------------

FRAME_HELLO = 1  # client -> server: {"site_id": ...}
FRAME_WELCOME = 2  # server -> client: {"site_id": ..., "tables": {...}}
FRAME_MSG = 3  # either direction: 32-byte message header + payload
FRAME_REQ = 4  # client -> server: pickled SiteRequest.control() (sans payloads)
FRAME_REPLY = 5  # server -> client: pickled reply metadata
FRAME_ERROR = 6  # server -> client: pickled {"error": class, "message": str}
FRAME_RESET = 7  # client -> server: discard buffered down payloads
FRAME_SHUTDOWN = 8  # client -> server: stop serving
FRAME_BYE = 9  # server -> client: shutdown acknowledged
FRAME_PING = 10  # either direction: JSON clock-sync sample (see obs.skew)
FRAME_TELEMETRY = 11  # client -> server: JSON request; server -> client: JSON body

#: Bytes of pure framing around every frame: 4-byte length prefix + type.
FRAME_OVERHEAD_BYTES = 5

_FRAME_NAMES = {
    FRAME_HELLO: "HELLO",
    FRAME_WELCOME: "WELCOME",
    FRAME_MSG: "MSG",
    FRAME_REQ: "REQ",
    FRAME_REPLY: "REPLY",
    FRAME_ERROR: "ERROR",
    FRAME_RESET: "RESET",
    FRAME_SHUTDOWN: "SHUTDOWN",
    FRAME_BYE: "BYE",
    FRAME_PING: "PING",
    FRAME_TELEMETRY: "TELEMETRY",
}

# -- MSG wire header ---------------------------------------------------------------

_WIRE_MAGIC = b"SM"
_KIND_CODES = {
    BASE_QUERY: 0,
    BASE_RESULT: 1,
    SHIP_BASE: 2,
    SUB_RESULT: 3,
    FINAL_RESULT: 4,
}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

#: Header flag: the simulated plan dropped this message in flight — the
#: bytes cross the wire (they left the sender), the receiver discards it.
FLAG_DROPPED = 0x01

_HEADER_STRUCT = struct.Struct(">2sBBII20s")
assert _HEADER_STRUCT.size == HEADER_BYTES


def encode_wire_message(
    kind: str, round_index: int, payload: Optional[bytes], flags: int = 0
) -> bytes:
    """A MSG frame body: exactly ``HEADER_BYTES + len(payload)`` bytes.

    The body length equals :attr:`Message.size_bytes` for the same
    message — this is what makes measured socket payload bytes reconcile
    with the modeled ``DirectionStats`` bytes without any fudge terms.
    """
    try:
        code = _KIND_CODES[kind]
    except KeyError:
        raise NetworkError(f"kind {kind!r} has no wire encoding") from None
    body = payload if payload is not None else b""
    return _HEADER_STRUCT.pack(
        _WIRE_MAGIC, code, flags, round_index, len(body), b"\x00" * 20
    ) + body


def decode_wire_message(body: bytes) -> Tuple[str, int, int, bytes]:
    """``(kind, round_index, flags, payload)`` from a MSG frame body."""
    if len(body) < HEADER_BYTES:
        raise NetworkError(
            f"short MSG frame: {len(body)} bytes < {HEADER_BYTES}-byte header"
        )
    magic, code, flags, round_index, payload_len, _pad = _HEADER_STRUCT.unpack(
        body[:HEADER_BYTES]
    )
    if magic != _WIRE_MAGIC:
        raise NetworkError(f"bad MSG magic {magic!r}")
    kind = _CODE_KINDS.get(code)
    if kind is None:
        raise NetworkError(f"unknown MSG kind code {code}")
    payload = body[HEADER_BYTES:]
    if len(payload) != payload_len:
        raise NetworkError(
            f"MSG payload length mismatch: header says {payload_len}, "
            f"frame carries {len(payload)}"
        )
    return kind, round_index, flags, payload


# -- blocking frame I/O ------------------------------------------------------------


def write_frame(sock: socket.socket, frame_type: int, body: bytes = b"") -> int:
    """Write one frame; returns total bytes put on the wire."""
    frame = struct.pack(">IB", len(body) + 1, frame_type) + body
    sock.sendall(frame)
    return len(frame)


def read_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one frame; returns ``(frame_type, body)``.

    Raises :class:`ConnectionError` (an ``OSError``) on a cleanly closed
    peer so callers have a single ``except OSError`` path.
    """
    prefix = _recv_exact(sock, 4)
    (length,) = struct.unpack(">I", prefix)
    if length < 1:
        raise NetworkError(f"invalid frame length {length}")
    blob = _recv_exact(sock, length)
    return blob[0], blob[1:]


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


#: Receive-poll interval while a speculative-abandon predicate is armed:
#: short enough that the deadline is enforced promptly, long enough that
#: an unarmed fast reply never notices.
_SPECULATION_POLL_S = 0.02


class _AbandonLeg(Exception):
    """Internal: the armed abandon predicate fired mid-receive.

    ``args[0]`` carries the predicate's verdict (the deadline seconds, a
    truthy float) so :meth:`SocketChannel.ask` can surface it on the
    public :class:`~repro.errors.LegDeadlineExceeded`.
    """


def map_remote_error(name: str, text: str) -> ReproError:
    """Rebuild a site-server error with its concrete library class.

    Known :class:`ReproError` subclasses keep their type so the retry
    layer classifies them exactly as in-process (``NetworkError`` family
    stays transient, plan/schema errors stay fatal); anything unknown
    becomes :class:`RemoteSiteError`, which is deliberately fatal.
    """
    candidate = getattr(errors_module, name, None)
    if isinstance(candidate, type) and issubclass(candidate, ReproError):
        try:
            return candidate(text)
        except TypeError:
            # Subclass with a structured __init__ (e.g. RetryExhaustedError)
            # that a bare message cannot satisfy.
            return RemoteSiteError(f"{name}: {text}")
    return RemoteSiteError(f"{name}: {text}")


# -- the channel -------------------------------------------------------------------


class SocketChannel(FaultyChannel):
    """A faulty channel that mirrors traffic onto a real TCP connection.

    The inherited in-memory queues remain the coordinator's source of
    truth — ``receive_at_coordinator`` pops the local echo, with fault
    placeholders driving retries exactly as in simulation. The socket
    side carries the same bytes for real: down messages are transmitted
    as they are sent, up messages cross during :meth:`ask` (the site
    server streams MSG frames back before its REPLY).
    """

    def __init__(
        self,
        site_id: str,
        address: Tuple[str, int],
        metrics=None,
        plan: Optional[FaultPlan] = None,
        connect_timeout_s: float = 10.0,
        io_timeout_s: float = 120.0,
    ):
        super().__init__(site_id, metrics, plan)
        self.address = (str(address[0]), int(address[1]))
        self.connect_timeout_s = connect_timeout_s
        self.io_timeout_s = io_timeout_s
        self._sock: Optional[socket.socket] = None
        self._io_lock = threading.RLock()
        self._connected_once = False
        # Measured wire accounting (mirrored into registry counters).
        self.measured_payload_down = 0
        self.measured_payload_up = 0
        self.framing_bytes = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.reconnects = 0
        # Best (minimum-RTT) NTP-style clock sample against the site
        # process; see repro.obs.skew. Zero until ping() succeeds, which
        # leaves site spans replaying uncorrected rather than wrongly.
        self.clock_offset_s = 0.0
        self.clock_rtt_s: Optional[float] = None

    # -- accounting --------------------------------------------------------------

    def _count_sent(self, wire_bytes: int, body_bytes: int, frame_type: int) -> None:
        self.frames_sent += 1
        if frame_type == FRAME_MSG:
            self.measured_payload_down += body_bytes
            framing = wire_bytes - body_bytes
        else:
            framing = wire_bytes
        self.framing_bytes += framing
        self.metrics.counter(
            "net.socket.frames", direction=DOWN, site=self.site_id
        ).inc()
        if frame_type == FRAME_MSG:
            self.metrics.counter(
                "net.socket.bytes", direction=DOWN, site=self.site_id
            ).inc(body_bytes)
        self.metrics.counter("net.socket.framing.bytes", site=self.site_id).inc(
            framing
        )

    def _count_received(self, body: bytes, frame_type: int) -> None:
        self.frames_received += 1
        if frame_type == FRAME_MSG:
            self.measured_payload_up += len(body)
            framing = FRAME_OVERHEAD_BYTES
        else:
            framing = FRAME_OVERHEAD_BYTES + len(body)
        self.framing_bytes += framing
        self.metrics.counter(
            "net.socket.frames", direction=UP, site=self.site_id
        ).inc()
        if frame_type == FRAME_MSG:
            self.metrics.counter(
                "net.socket.bytes", direction=UP, site=self.site_id
            ).inc(len(body))
        self.metrics.counter("net.socket.framing.bytes", site=self.site_id).inc(
            framing
        )

    def socket_totals(self) -> dict:
        return {
            "payload_down": self.measured_payload_down,
            "payload_up": self.measured_payload_up,
            "framing": self.framing_bytes,
            "frames": self.frames_sent + self.frames_received,
            "reconnects": self.reconnects,
        }

    # -- connection management ---------------------------------------------------

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _ensure_connected(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        try:
            sock = socket.create_connection(
                self.address, timeout=self.connect_timeout_s
            )
        except OSError as error:
            raise SiteUnavailableError(
                f"site {self.site_id!r} unreachable at "
                f"{self.address[0]}:{self.address[1]}: {error}"
            ) from None
        sock.settimeout(self.io_timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        if self._connected_once:
            self.reconnects += 1
            self.metrics.counter("net.socket.reconnects", site=self.site_id).inc()
        self._connected_once = True
        self._sock = sock
        try:
            hello = json.dumps({"site_id": self.site_id}).encode("utf-8")
            wire = write_frame(sock, FRAME_HELLO, hello)
            self._count_sent(wire, len(hello), FRAME_HELLO)
            frame_type, body = read_frame(sock)
            self._count_received(body, frame_type)
            if frame_type != FRAME_WELCOME:
                raise NetworkError(
                    f"expected WELCOME from site {self.site_id!r}, got "
                    f"{_FRAME_NAMES.get(frame_type, frame_type)}"
                )
            info = json.loads(body.decode("utf-8"))
            if info.get("site_id") != self.site_id:
                raise NetworkError(
                    f"connected to wrong site: wanted {self.site_id!r}, "
                    f"server is {info.get('site_id')!r}"
                )
        except OSError as error:
            self._drop_connection()
            raise NetworkError(
                f"handshake with site {self.site_id!r} failed: {error}"
            ) from None
        except NetworkError:
            self._drop_connection()
            raise
        return sock

    def _transmit(self, frame_type: int, body: bytes) -> None:
        """Send one frame, translating socket failures to transient errors."""
        with self._io_lock:
            sock = self._ensure_connected()
            try:
                wire = write_frame(sock, frame_type, body)
            except OSError as error:
                self._drop_connection()
                raise NetworkError(
                    f"socket to site {self.site_id!r} failed mid-send: {error}"
                ) from None
            self._count_sent(wire, len(body), frame_type)

    # -- channel surface ---------------------------------------------------------

    def send_to_site(self, message: Message) -> None:
        # Connect *before* the bookkeeping: a site that cannot be
        # reached is indistinguishable from a crashed one, and the
        # simulated crash raises before DirectionStats records anything.
        # Recording first and failing the transmit after would leave the
        # channel's counters ahead of the evaluator's stats (counters
        # cannot decrease), breaking verify_against_network for killed
        # sites. A connection that dies *between* this pre-flight and
        # the write below is the one unavoidable race; TCP buffering
        # makes it surface on the next receive instead in practice.
        if not self._doomed:
            with self._io_lock:
                self._ensure_connected()
        queue = self._to_site
        before = len(queue)
        super().send_to_site(message)
        appended = list(queue)[before:] if len(queue) > before else []
        if not appended:
            # The plan dropped it in flight: DirectionStats charged the
            # bytes (they left the sender), so the same bytes cross the
            # real wire, flagged so the site discards them unread.
            body = encode_wire_message(
                message.kind, message.round_index, message.payload, FLAG_DROPPED
            )
            self._transmit(FRAME_MSG, body)
            return
        for entry in appended:
            if isinstance(entry, _Held):
                if entry.duplicate:
                    # Modeled duplicate bytes live in net.fault.bytes,
                    # not DirectionStats — re-sending on the wire would
                    # break measured == modeled, so the echo queue alone
                    # carries the dedup behaviour.
                    continue
                wire_message = entry.message  # delayed: delivered late
            else:
                wire_message = entry  # plain or corrupted (equal length)
            body = encode_wire_message(
                wire_message.kind, wire_message.round_index, wire_message.payload
            )
            self._transmit(FRAME_MSG, body)

    # send_to_coordinator is inherited unchanged: the real up-direction
    # bytes cross during ask(), when the site server streams its MSG
    # frames back; the local echo only feeds receive_at_coordinator.

    def ask(self, request) -> "object":
        """Run one site request remotely; returns a ``SiteReply``.

        The down payloads were already streamed as MSG frames by
        :meth:`send_to_site`; the REQ frame carries the request fields
        that differ from their defaults (minus payloads) plus the expected
        payload count so the server can detect desync after a partial
        failure.

        While a speculative-abandon predicate is armed (see
        :meth:`~repro.net.channel.Channel.arm_speculation`), the reply
        wait polls it between short receive timeouts; when it fires the
        connection is dropped and :class:`~repro.errors.\
LegDeadlineExceeded` raised, with any reply messages already fully
        consumed charged to the simulated upstream oracle (and reported
        as ``partial_up_bytes``) so every byte ledger still reconciles.
        """
        from repro.distributed.executor import SiteReply

        if self._doomed:
            self._raise_down(getattr(self, "_attempt_round", 0))
        control = request.control()
        control["expected_payloads"] = len(request.down_payloads)
        should_abandon = self._should_abandon
        with self._io_lock:
            self._transmit(FRAME_REQ, pickle.dumps(control))
            sock = self._sock
            if should_abandon is not None:
                sock.settimeout(_SPECULATION_POLL_S)
            payloads = []
            msg_frames: list = []
            try:
                while True:
                    try:
                        frame_type, body = self._read_frame_polling(
                            sock, should_abandon
                        )
                    except OSError as error:
                        self._drop_connection()
                        raise NetworkError(
                            f"socket to site {self.site_id!r} failed "
                            f"mid-reply: {error}"
                        ) from None
                    self._count_received(body, frame_type)
                    if frame_type == FRAME_MSG:
                        kind, round_index, _flags, payload = decode_wire_message(
                            body
                        )
                        payloads.append(payload)
                        msg_frames.append((kind, round_index, payload))
                        continue
                    if frame_type == FRAME_REPLY:
                        meta = pickle.loads(body)
                        return SiteReply(
                            payloads=tuple(payloads),
                            rows=meta["rows"],
                            compute_s=meta["compute_s"],
                            spans=tuple(meta.get("spans", ())),
                            counters=dict(meta.get("counters", {})),
                            row_codec_payload_bytes=meta.get(
                                "row_codec_payload_bytes"
                            ),
                            telemetry=dict(meta.get("telemetry", {})),
                        )
                    if frame_type == FRAME_ERROR:
                        detail = pickle.loads(body)
                        raise map_remote_error(
                            detail.get("error", "ReproError"),
                            detail.get("message", "site server failure"),
                        )
                    raise NetworkError(
                        f"unexpected {_FRAME_NAMES.get(frame_type, frame_type)} "
                        f"frame from site {self.site_id!r} during request"
                    )
            except _AbandonLeg as verdict:
                # The straggler is abandoned for a backup. Reply messages
                # already fully received crossed the real wire *and* were
                # counted measured, so charge them to the simulated
                # upstream oracle too and tell the guard how many bytes
                # to book as speculative.
                partial_up = 0
                for kind, round_index, payload in msg_frames:
                    message = Message(
                        kind, self.site_id, "coordinator", round_index, payload
                    )
                    self.upstream.record(message)
                    partial_up += message.size_bytes
                self._drop_connection()
                deadline_s = float(verdict.args[0]) if verdict.args else 0.0
                raise LegDeadlineExceeded(
                    self.site_id, deadline_s, partial_up_bytes=partial_up
                ) from None
            finally:
                if should_abandon is not None and self._sock is not None:
                    self._sock.settimeout(self.io_timeout_s)

    def _read_frame_polling(self, sock, should_abandon) -> Tuple[int, bytes]:
        """:func:`read_frame`, polling the abandon predicate on timeouts.

        Partial bytes survive across poll timeouts (the buffer carries
        over), so a slow frame is never desynced — abandonment can fire
        at any byte boundary and the connection is then dropped whole.
        """
        if should_abandon is None:
            return read_frame(sock)
        prefix = self._recv_exact_polling(sock, 4, should_abandon)
        (length,) = struct.unpack(">I", prefix)
        if length < 1:
            raise NetworkError(f"invalid frame length {length}")
        blob = self._recv_exact_polling(sock, length, should_abandon)
        return blob[0], blob[1:]

    def _recv_exact_polling(self, sock, count: int, should_abandon) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = sock.recv(remaining)
            except socket.timeout:
                verdict = should_abandon()
                if verdict:
                    raise _AbandonLeg(verdict) from None
                continue
            if not chunk:
                raise ConnectionError("peer closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    # -- telemetry ---------------------------------------------------------------

    def ping(self, samples: int = 3, clock=None):
        """NTP-style clock sampling against the site-server process.

        Runs ``samples`` PING exchanges and keeps the minimum-RTT sample
        (least queueing noise). The stored offset maps site-local
        ``perf_counter`` timestamps into this process's clock domain:
        ``local_time = site_time - clock_offset_s``. PING frames are
        control frames, charged entirely to framing overhead, so MSG
        byte parity is untouched.
        """
        import time

        from repro.obs.skew import estimate_offset

        if samples < 1:
            raise NetworkError("ping needs at least one sample")
        read_clock = clock if clock is not None else time.perf_counter
        best = None
        with self._io_lock:
            for _ in range(samples):
                t0 = read_clock()
                self._transmit(FRAME_PING, b"{}")
                sock = self._sock
                try:
                    frame_type, body = read_frame(sock)
                except OSError as error:
                    self._drop_connection()
                    raise NetworkError(
                        f"ping to site {self.site_id!r} failed: {error}"
                    ) from None
                t3 = read_clock()
                self._count_received(body, frame_type)
                if frame_type != FRAME_PING:
                    raise NetworkError(
                        f"expected PING echo from site {self.site_id!r}, got "
                        f"{_FRAME_NAMES.get(frame_type, frame_type)}"
                    )
                info = json.loads(body.decode("utf-8"))
                sample = estimate_offset(
                    t0, float(info["t1"]), float(info["t2"]), t3
                )
                if best is None or sample.rtt_s < best.rtt_s:
                    best = sample
        self.clock_offset_s = best.offset_s
        self.clock_rtt_s = best.rtt_s
        self.metrics.gauge("net.clock.offset_s", site=self.site_id).set(
            best.offset_s
        )
        self.metrics.gauge("net.clock.rtt_s", site=self.site_id).set(best.rtt_s)
        return best

    def telemetry(self, want=("metrics",)) -> dict:
        """Fetch the site process's telemetry snapshot on demand.

        ``want`` selects sections: ``"metrics"`` (the site registry
        snapshot) and/or ``"flight"`` (the site's flight-recorder
        records). A TELEMETRY exchange is a control-frame pair, charged
        entirely to framing overhead.
        """
        request = json.dumps({"want": list(want)}).encode("utf-8")
        with self._io_lock:
            self._transmit(FRAME_TELEMETRY, request)
            sock = self._sock
            try:
                frame_type, body = read_frame(sock)
            except OSError as error:
                self._drop_connection()
                raise NetworkError(
                    f"telemetry scrape of site {self.site_id!r} failed: {error}"
                ) from None
            self._count_received(body, frame_type)
            if frame_type != FRAME_TELEMETRY:
                raise NetworkError(
                    f"expected TELEMETRY from site {self.site_id!r}, got "
                    f"{_FRAME_NAMES.get(frame_type, frame_type)}"
                )
        return json.loads(body.decode("utf-8"))

    # -- recovery hooks ----------------------------------------------------------

    def drain_pending(self) -> int:
        discarded = super().drain_pending()
        # Tell the site server to forget buffered down payloads so the
        # retried attempt starts from a clean slate. Best effort: if the
        # connection is gone, the reconnect gets a fresh per-connection
        # buffer anyway.
        with self._io_lock:
            if self._sock is not None:
                try:
                    wire = write_frame(self._sock, FRAME_RESET, b"")
                    self._count_sent(wire, 0, FRAME_RESET)
                except OSError:
                    self._drop_connection()
        return discarded

    def close(self) -> None:
        self._drop_connection()


class SocketNetwork(Network):
    """A star of :class:`SocketChannel` — one TCP connection per site."""

    def __init__(
        self,
        endpoints: Dict[str, Tuple[str, int]],
        metrics=None,
        faults: Optional[FaultPlan] = None,
        io_timeout_s: float = 120.0,
    ):
        if not endpoints:
            raise NetworkError("a network needs at least one site")
        # Skip Network.__init__'s channel construction; rebuild state here.
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import NULL_TRACER

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = faults
        self._channels = {
            site_id: SocketChannel(
                site_id,
                address,
                self.metrics,
                faults,
                io_timeout_s=io_timeout_s,
            )
            for site_id, address in endpoints.items()
        }
        self._tracer = NULL_TRACER

    @property
    def transport(self) -> str:
        return "sockets"

    def socket_totals(self) -> dict:
        """Aggregate measured wire accounting across every channel."""
        totals = {
            "payload_down": 0,
            "payload_up": 0,
            "framing": 0,
            "frames": 0,
            "reconnects": 0,
        }
        for channel in self._channels.values():
            for key, value in channel.socket_totals().items():
                totals[key] += value
        return totals

    def sync_clocks(self, samples: int = 3):
        """PING every site; returns a :class:`~repro.obs.skew.ClockMap`.

        Sites that fail to answer are skipped — their spans replay
        uncorrected (offset 0) and their post-mortem telemetry comes
        from the flight recorder instead.
        """
        from repro.obs.skew import ClockMap

        clock_map = ClockMap()
        for site_id, channel in self._channels.items():
            try:
                clock_map.record(site_id, channel.ping(samples))
            except (ReproError, OSError):
                continue
        return clock_map

    def clock_offsets(self) -> Dict[str, float]:
        """Per-site best clock offsets from the most recent sync."""
        return {
            site_id: channel.clock_offset_s
            for site_id, channel in self._channels.items()
            if channel.clock_rtt_s is not None
        }

    def close(self) -> None:
        for channel in self._channels.values():
            channel.close()
