"""The coordinator's end of a channel whose site is a server process.

A :class:`SocketChannel` keeps the :class:`~repro.net.channel.Channel`
contract (see that module's docstring) over a length-prefixed TCP
connection: ``send_to_site`` writes one MSG frame per message, and the
site's turn is one :meth:`SocketChannel.ask` — a REQ frame out, the
reply's MSG frames and a REPLY (or ERROR) frame back. Each message is
shown once to the channel's fault policy and recorded once in
``DirectionStats``, where its frame is written or read; nothing is kept
in memory on the side except the replies waiting for
``receive_at_coordinator``.

Wire format (all integers big-endian):

- frame    = ``length(4) | type(1) | body(length-1)`` — ``length``
  counts the type byte plus the body and is checked against
  :data:`MAX_FRAME_BYTES` before anything is read;
- MSG body = the 32-byte message header (magic ``SM``, kind code, flags,
  round index, payload length, zero padding — exactly
  :data:`~repro.net.message.HEADER_BYTES` bytes, so a MSG body is
  bit-for-bit as long as the modeled ``Message.size_bytes``) followed by
  the codec payload;
- control frames (HELLO/WELCOME/REQ/REPLY/ERROR/RESET/SHUTDOWN/BYE)
  carry JSON or pickled bodies and are charged entirely to *framing
  overhead*, never to payload bytes.

Parity invariant: measured MSG body bytes per direction equal the
``DirectionStats`` bytes exactly, under every fault kind. A message the
policy judges LOST or LATE still crosses the wire, flagged ``DROPPED``
(the bytes left the sender; the site discards it) and the site's turn
then fails transiently in ``ask``, before REQ; a *duplicate* copy is
charged to ``net.fault.bytes`` by the policy and not re-sent; *corrupt*
replaces the payload with one of equal length; *crash* raises before
anything is recorded or sent.

REQ/REPLY control bodies use :mod:`pickle`: site servers are our own
processes on a trusted local cluster, never an untrusted peer.
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
    ProtocolError,
    RemoteSiteError,
    ReproError,
    SiteUnavailableError,
)
from repro.net.channel import DELIVER, DOWN, UP, Channel, Network
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

#: Header flag: the fault policy judged this message lost (or late) in
#: flight — the bytes cross the wire (they left the sender), the receiver
#: discards it.
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
    """Write one frame; returns total bytes put on the wire.

    A body the peer would refuse, one past :data:`MAX_FRAME_BYTES`, raises
    :class:`~repro.errors.ProtocolError` before a byte is written.
    """
    if len(body) + 1 > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"a frame of {len(body) + 1} bytes is past the {MAX_FRAME_BYTES}-byte cap"
        )
    frame = struct.pack(">IB", len(body) + 1, frame_type) + body
    sock.sendall(frame)
    return len(frame)


#: Largest frame either end agrees to read or write: far above the largest
#: relation the system ships, far below what one flipped length bit would
#: claim. A relation ships as one block, so this bounds any answer.
MAX_FRAME_BYTES = 1 << 28

#: Most bytes asked of one ``recv`` (which allocates what it is asked for).
_RECV_CHUNK = 1 << 20

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


def read_frame(sock: socket.socket, should_abandon=None) -> Tuple[int, bytes]:
    """Read one frame; returns ``(frame_type, body)``.

    Raises :class:`ConnectionError` (an ``OSError``) on a cleanly closed
    peer so callers have a single ``except OSError`` path, and
    :class:`~repro.errors.NetworkError` on a length no frame can have.
    With ``should_abandon`` (and a short socket timeout) the predicate is
    polled on every timeout; partial bytes survive across polls, so a
    slow frame is never desynced and abandonment can fire at any byte.
    """
    (length,) = struct.unpack(">I", _recv_exact(sock, 4, should_abandon))
    if not 1 <= length <= MAX_FRAME_BYTES:
        raise NetworkError(f"invalid frame length {length}")
    blob = _recv_exact(sock, length, should_abandon)
    return blob[0], blob[1:]


def _recv_exact(sock: socket.socket, count: int, should_abandon=None) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(min(remaining, _RECV_CHUNK))
        except socket.timeout:
            if should_abandon is None:
                raise
            verdict = should_abandon()
            if verdict:
                raise _AbandonLeg(verdict) from None
            continue
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


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


class SocketChannel(Channel):
    """A channel whose messages cross a real TCP connection.

    Down messages are written as they are sent; up messages cross during
    :meth:`ask` (the site server streams MSG frames back before its
    REPLY) and wait, already judged and recorded, for
    ``receive_at_coordinator``.
    """

    def __init__(
        self,
        site_id: str,
        address: Tuple[str, int],
        metrics=None,
        faults=None,
        connect_timeout_s: float = 10.0,
        io_timeout_s: float = 120.0,
    ):
        super().__init__(site_id, metrics, faults)
        self.address = (str(address[0]), int(address[1]))
        self.connect_timeout_s = connect_timeout_s
        self.io_timeout_s = io_timeout_s
        self._sock: Optional[socket.socket] = None
        self._io_lock = threading.RLock()
        self._connected_once = False
        #: SHIP_BASE blocks the server holds since the last REQ/RESET, and
        #: whether anything shipped since then was lost or is late.
        self._buffered = 0
        self._undelivered = False
        #: Measured wire accounting (mirrored into registry counters).
        self._totals = dict.fromkeys(
            ("payload_down", "payload_up", "framing", "frames", "reconnects"), 0
        )
        # Best (minimum-RTT) NTP-style clock sample against the site
        # process; see repro.obs.skew. Zero until ping() succeeds, which
        # leaves site spans replaying uncorrected rather than wrongly.
        self.clock_offset_s = 0.0
        self.clock_rtt_s: Optional[float] = None

    # -- accounting --------------------------------------------------------------

    def _count(self, direction: str, frame_type: int, body_bytes: int) -> None:
        """Book one frame: a MSG body is payload, all else is framing."""
        framing = FRAME_OVERHEAD_BYTES
        if frame_type == FRAME_MSG:
            self._totals["payload_" + direction] += body_bytes
            self.metrics.counter(
                "net.socket.bytes", direction=direction, site=self.site_id
            ).inc(body_bytes)
        else:
            framing += body_bytes
        self._totals["frames"] += 1
        self._totals["framing"] += framing
        self.metrics.counter(
            "net.socket.frames", direction=direction, site=self.site_id
        ).inc()
        self.metrics.counter("net.socket.framing.bytes", site=self.site_id).inc(
            framing
        )

    def socket_totals(self) -> dict:
        return dict(self._totals)

    # -- connection management ---------------------------------------------------

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
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
            self._totals["reconnects"] += 1
            self.metrics.counter("net.socket.reconnects", site=self.site_id).inc()
        self._connected_once = True
        self._sock = sock
        self._send(FRAME_HELLO, json.dumps({"site_id": self.site_id}).encode("utf-8"))
        frame_type, body = self._read("handshake with")
        try:
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
        except NetworkError:
            self._drop_connection()
            raise

    def _send(self, frame_type: int, body: bytes = b"") -> None:
        """Write one frame on the open socket and count it."""
        try:
            write_frame(self._sock, frame_type, body)
        except OSError as error:
            self._drop_connection()
            raise NetworkError(
                f"socket to site {self.site_id!r} failed mid-send: {error}"
            ) from None
        self._count(DOWN, frame_type, len(body))

    def _read(self, what: str, should_abandon=None) -> Tuple[int, bytes]:
        """Read one frame and count it; a dead or desynced socket is dropped."""
        try:
            frame_type, body = read_frame(self._sock, should_abandon)
        except OSError as error:
            self._drop_connection()
            raise NetworkError(
                f"{what} site {self.site_id!r} failed: {error}"
            ) from None
        except NetworkError:
            self._drop_connection()
            raise
        self._count(UP, frame_type, len(body))
        return frame_type, body

    def _transmit(self, frame_type: int, body: bytes = b"") -> None:
        """Send one frame, connecting first if need be."""
        with self._io_lock:
            self._ensure_connected()
            self._send(frame_type, body)

    def _control(self, frame_type: int, body: bytes, what: str) -> dict:
        """One control exchange: a frame out, the same type (JSON) back.

        Control frames are charged entirely to framing overhead, so MSG
        byte parity is untouched.
        """
        with self._io_lock:
            self._transmit(frame_type, body)
            got, reply = self._read(what)
        if got != frame_type:
            raise NetworkError(
                f"expected {_FRAME_NAMES[frame_type]} from site "
                f"{self.site_id!r}, got {_FRAME_NAMES.get(got, got)}"
            )
        return json.loads(reply.decode("utf-8"))

    # -- coordinator end ---------------------------------------------------------

    def send_to_site(self, message: Message) -> None:
        # Site down, then connect, then the policy: a site that cannot be
        # reached is indistinguishable from a crashed one, so it raises
        # before a rule fires or anything is recorded.
        self.policy.require_up()
        with self._io_lock:
            self._ensure_connected()
            carried, verdict = self._admit(message, DOWN)
            delivered = verdict is DELIVER
            self._send(
                FRAME_MSG,
                encode_wire_message(
                    carried.kind,
                    carried.round_index,
                    carried.payload,
                    0 if delivered else FLAG_DROPPED,
                ),
            )
        self.downstream.record(carried)
        if not delivered:
            self._undelivered = True
        elif carried.kind == SHIP_BASE:
            self._buffered += 1

    # -- site end: the server process --------------------------------------------

    def take_at_site(self) -> list:
        raise NetworkError(
            f"site {self.site_id!r} is a server process: ask() plays its end"
        )

    def ask(self, request) -> tuple:
        """The site's turn, remotely: ``(REPLY body, payloads as sent)``.

        The down payloads were already streamed as MSG frames by
        :meth:`send_to_site`; the REQ frame carries the request fields
        that differ from their defaults (minus payloads) plus the count
        of blocks the server should be holding, so it can detect desync
        after a partial failure. If any of the shipment was lost or is
        late the turn fails here, before REQ. The reply MSG frame is
        shown to the policy, recorded and queued for
        ``receive_at_coordinator`` as it arrives; a reply of other than
        one MSG frame raises :class:`~repro.errors.ProtocolError` and drops
        the connection, at the second frame or at the REPLY.

        While a speculative-abandon predicate is armed (see
        :meth:`~repro.net.channel.Channel.arm_speculation`), the reply
        wait polls it between short receive timeouts; when it fires the
        connection is dropped and :class:`~repro.errors.\
LegDeadlineExceeded` raised, reporting what ``upstream`` recorded for the
        attempt as ``partial_up_bytes``.
        """
        self.policy.require_up()
        buffered, undelivered = self._buffered, self._undelivered
        self._buffered, self._undelivered = 0, False
        if undelivered:
            raise NetworkError(
                f"message for channel {self.site_id!r} was lost or is "
                "delayed in flight"
            )
        control = request.control()
        control["expected_payloads"] = buffered
        should_abandon = self._should_abandon
        with self._io_lock:
            self._transmit(FRAME_REQ, pickle.dumps(control))
            if should_abandon is not None:
                self._sock.settimeout(_SPECULATION_POLL_S)
            payloads = []
            arrived_up_bytes = 0
            try:
                while True:
                    frame_type, body = self._read("reply from", should_abandon)
                    if frame_type == FRAME_MSG:
                        if payloads:
                            self._drop_connection()
                            raise ProtocolError(
                                f"site {self.site_id!r} answered in more than one block"
                            )
                        kind, round_index, _flags, payload = decode_wire_message(
                            body
                        )
                        carried, verdict = self._admit(
                            Message(
                                kind, self.site_id, "coordinator", round_index,
                                payload,
                            ),
                            UP,
                        )
                        self.upstream.record(carried)
                        arrived_up_bytes += carried.size_bytes
                        self._enqueue(UP, carried, verdict)
                        payloads.append(payload)
                    elif frame_type == FRAME_REPLY:
                        if not payloads:
                            self._drop_connection()
                            raise ProtocolError(
                                f"site {self.site_id!r} replied without an answer"
                            )
                        return pickle.loads(body), tuple(payloads)
                    elif frame_type == FRAME_ERROR:
                        detail = pickle.loads(body)
                        raise map_remote_error(
                            detail.get("error", "ReproError"),
                            detail.get("message", "site server failure"),
                        )
                    else:
                        raise NetworkError(
                            f"unexpected {_FRAME_NAMES.get(frame_type, frame_type)} "
                            f"frame from site {self.site_id!r} during request"
                        )
            except _AbandonLeg as verdict:
                # The straggler is abandoned for a backup; the guard books
                # the reply bytes that did arrive as speculative.
                self._drop_connection()
                raise LegDeadlineExceeded(
                    self.site_id,
                    float(verdict.args[0]),
                    partial_up_bytes=arrived_up_bytes,
                ) from None
            finally:
                if should_abandon is not None and self._sock is not None:
                    self._sock.settimeout(self.io_timeout_s)

    # -- telemetry ---------------------------------------------------------------

    def ping(self, samples: int = 3, clock=None):
        """NTP-style clock sampling against the site-server process.

        Runs ``samples`` PING exchanges and keeps the minimum-RTT sample
        (least queueing noise). The stored offset maps site-local
        ``perf_counter`` timestamps into this process's clock domain:
        ``local_time = site_time - clock_offset_s``.
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
                info = self._control(FRAME_PING, b"{}", "ping to")
                t3 = read_clock()
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

        ``want`` selects sections; ``"metrics"`` (the site registry
        snapshot) is the one there is.
        """
        request = json.dumps({"want": list(want)}).encode("utf-8")
        return self._control(FRAME_TELEMETRY, request, "telemetry scrape of")

    # -- recovery hooks ----------------------------------------------------------

    def drain_pending(self) -> int:
        discarded = super().drain_pending()
        self._buffered, self._undelivered = 0, False
        # Tell the site server to forget buffered down payloads so the
        # retried attempt starts from a clean slate. Best effort: if the
        # connection is gone, the reconnect gets a fresh per-connection
        # buffer anyway.
        with self._io_lock:
            if self._sock is not None:
                try:
                    self._send(FRAME_RESET)
                except NetworkError:
                    pass
        return discarded

    def close(self) -> None:
        self._drop_connection()


class SocketNetwork(Network):
    """A star of :class:`SocketChannel` — one TCP connection per site."""

    def __init__(
        self,
        endpoints: Dict[str, Tuple[str, int]],
        metrics=None,
        faults=None,
        io_timeout_s: float = 120.0,
    ):
        self._endpoints = dict(endpoints)
        self._io_timeout_s = io_timeout_s
        super().__init__(self._endpoints, metrics, faults)

    def _open(self, site_id: str) -> SocketChannel:
        return SocketChannel(
            site_id,
            self._endpoints[site_id],
            self.metrics,
            self.faults,
            io_timeout_s=self._io_timeout_s,
        )

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
