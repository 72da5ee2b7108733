"""The coordinator's end of a channel whose site is a server process.

A :class:`SocketChannel` keeps the :class:`~repro.net.channel.Channel`
contract (see that module's docstring) over a length-prefixed TCP
connection. A leg is exactly two frames: one REQ down, one REPLY (or
ERROR) up. ``send_to_site`` connects, shows the leg's one down message to
the channel's fault policy, records it in ``DirectionStats`` and holds
it; :meth:`SocketChannel.ask` writes it in the REQ, and
:meth:`SocketChannel.answer` reads the REPLY once the socket is readable
(the engine waits on a whole round's socket channels with one
selector, while the channel is ``waiting``). The REPLY's one up message
is shown to the policy, recorded and queued for
``receive_at_coordinator``. The site server keeps nothing
between two requests.

Wire format (all integers big-endian):

- frame      = ``length(4) | type(1) | body(length-1)`` — ``length``
  counts the type byte plus the body and is checked against
  :data:`MAX_FRAME_BYTES` before anything is read;
- MSG body   = the 32-byte message header (magic ``SM``, kind code,
  flags, round index, payload length, zero padding — exactly
  :data:`~repro.net.message.HEADER_BYTES` bytes, so a MSG body is
  bit-for-bit as long as the modeled ``Message.size_bytes``) followed by
  the codec payload. It ends where its header's payload length says, so
  it needs no length of its own;
- REQ body   = the leg's down message as a MSG body (``SHIP_BASE`` with
  the fragment for a ``round``, a header-only ``BASE_QUERY`` for a
  ``base`` or ``merged`` request), then the request's typed control
  (:meth:`~repro.distributed.executor.SiteRequest.control`);
- REPLY body = the site's up message as a MSG body (``BASE_RESULT`` or
  ``SUB_RESULT``, one block), then the typed reply meta;
- ERROR body = the error's class name and message, typed;
- every other frame (HELLO/WELCOME/SHUTDOWN/BYE/PING/TELEMETRY) carries
  a JSON body; HELLO and WELCOME carry the protocol version.

:mod:`repro.net.bodies`'s docstring is the typed parts' spec. The MSG
bodies inside REQ and REPLY are *payload*; the rest is *framing*: 5
``headers`` bytes a frame, ``control`` (the rest of each frame sent down)
and ``meta`` (up). Parity invariant: measured payload bytes per
direction equal the ``DirectionStats`` bytes exactly, under every fault
kind. A message the policy judges LOST or LATE still crosses, in a REQ
whose header is flagged ``DROPPED`` (the bytes left the sender); the site
discards that REQ without answering, and the turn fails transiently at
the coordinator without waiting for a REPLY. A *duplicate* copy is
charged to ``net.fault.bytes`` by the policy and not re-sent; *corrupt*
replaces the payload with one of equal length; *crash* raises before
anything is recorded or sent.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from typing import Dict, Optional, Tuple

import repro.errors as errors_module
from repro.errors import (
    NetworkError,
    ProtocolError,
    RemoteSiteError,
    ReproError,
    SiteUnavailableError,
)
from repro.net import bodies
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

FRAME_HELLO = 1  # client -> server: {"site_id": ..., "protocol": ...}
FRAME_WELCOME = 2  # server -> client: {"site_id": ..., "tables": [...], "protocol": ...}
FRAME_REQ = 4  # client -> server: MSG body + typed SiteRequest.control()
FRAME_REPLY = 5  # server -> client: MSG body + typed reply meta
FRAME_ERROR = 6  # server -> client: typed error class and message
FRAME_SHUTDOWN = 8  # client -> server: stop serving
FRAME_BYE = 9  # server -> client: shutdown acknowledged
FRAME_PING = 10  # either direction: JSON clock-sync sample (see obs.skew)
FRAME_TELEMETRY = 11  # client -> server: JSON request; server -> client: JSON body

#: Bytes of pure framing around every frame: 4-byte length prefix + type.
FRAME_OVERHEAD_BYTES = 5

#: What :meth:`SocketChannel.socket_totals` counts, in bytes but the last two.
SOCKET_TOTALS = ("payload_down", "payload_up", "headers", "control", "meta",
                 "framing", "frames", "reconnects")

_FRAME_NAMES = {
    FRAME_HELLO: "HELLO",
    FRAME_WELCOME: "WELCOME",
    FRAME_REQ: "REQ",
    FRAME_REPLY: "REPLY",
    FRAME_ERROR: "ERROR",
    FRAME_SHUTDOWN: "SHUTDOWN",
    FRAME_BYE: "BYE",
    FRAME_PING: "PING",
    FRAME_TELEMETRY: "TELEMETRY",
}

# -- MSG body ----------------------------------------------------------------------

_WIRE_MAGIC = b"SM"
_KIND_CODES = {
    BASE_QUERY: 0,
    BASE_RESULT: 1,
    SHIP_BASE: 2,
    SUB_RESULT: 3,
    FINAL_RESULT: 4,
}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

#: The kinds a REQ carries down, and a REPLY up.
DOWN_KINDS = frozenset((BASE_QUERY, SHIP_BASE))
UP_KINDS = frozenset((BASE_RESULT, SUB_RESULT))

#: Header flag: the fault policy judged this message lost (or late) in
#: flight — the bytes cross the wire (they left the sender), the receiver
#: discards it.
FLAG_DROPPED = 0x01

_HEADER_STRUCT = struct.Struct(">2sBBII20s")
assert _HEADER_STRUCT.size == HEADER_BYTES


def encode_wire_message(
    kind: str, round_index: int, payload: Optional[bytes], flags: int = 0
) -> bytes:
    """A MSG body: exactly ``HEADER_BYTES + len(payload)`` bytes.

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


def decode_wire_message(body: bytes) -> Tuple[str, int, int, bytes, bytes]:
    """``(kind, round_index, flags, payload, rest)``: the MSG body that
    starts ``body``, and the bytes after it."""
    if len(body) < HEADER_BYTES:
        raise NetworkError(
            f"short MSG body: {len(body)} bytes < {HEADER_BYTES}-byte header"
        )
    magic, code, flags, round_index, payload_len, _pad = _HEADER_STRUCT.unpack_from(
        body
    )
    if magic != _WIRE_MAGIC:
        raise NetworkError(f"bad MSG magic {magic!r}")
    kind = _CODE_KINDS.get(code)
    if kind is None:
        raise NetworkError(f"unknown MSG kind code {code}")
    end = HEADER_BYTES + payload_len
    if len(body) < end:
        raise NetworkError(
            f"short MSG body: its header says {payload_len} payload bytes, "
            f"the frame carries {len(body) - HEADER_BYTES}"
        )
    return kind, round_index, flags, body[HEADER_BYTES:end], body[end:]


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

def read_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one frame; returns ``(frame_type, body)``.

    Raises :class:`ConnectionError` (an ``OSError``) on a cleanly closed
    peer so callers have a single ``except OSError`` path, and
    :class:`~repro.errors.NetworkError` on a length no frame can have.
    """
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if not 1 <= length <= MAX_FRAME_BYTES:
        raise NetworkError(f"invalid frame length {length}")
    blob = _recv_exact(sock, length)
    return blob[0], blob[1:]


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, _RECV_CHUNK))
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

    A down message is held from ``send_to_site`` until :meth:`ask` writes
    it in the leg's REQ; the up message crosses in the REPLY, which
    :meth:`answer` reads, and waits, already judged and recorded, for
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
        #: A REQ is written and its answer not yet read (see ask).
        self.waiting = False
        self._connected_once = False
        #: The leg's down message, judged and recorded, and its verdict:
        #: what the next :meth:`ask` writes in its REQ.
        self._held: Optional[Tuple[Message, str]] = None
        #: Measured wire accounting (mirrored into registry counters).
        self._totals = dict.fromkeys(SOCKET_TOTALS, 0)
        self._counters: dict = {}  # (name, direction) -> registry counter
        # Best (minimum-RTT) NTP-style clock sample against the site
        # process; see repro.obs.skew. Zero until ping() succeeds, which
        # leaves site spans replaying uncorrected rather than wrongly.
        self.clock_offset_s = 0.0
        self.clock_rtt_s: Optional[float] = None

    # -- accounting --------------------------------------------------------------

    def _count(self, direction: str, body_bytes: int, payload_bytes: int = 0) -> None:
        """Book one frame: its MSG body is payload, the rest framing."""
        framing = FRAME_OVERHEAD_BYTES + body_bytes - payload_bytes
        if payload_bytes:
            self._totals["payload_" + direction] += payload_bytes
            self._counter("net.socket.bytes", direction).inc(payload_bytes)
        self._totals["frames"] += 1
        self._totals["headers"] += FRAME_OVERHEAD_BYTES
        self._totals["control" if direction == DOWN else "meta"] += body_bytes - payload_bytes
        self._totals["framing"] += framing
        self._counter("net.socket.frames", direction).inc()
        self._counter("net.socket.framing.bytes").inc(framing)

    def _counter(self, name: str, direction: Optional[str] = None):
        """This channel's ``name`` counter (per ``direction`` when given),
        looked up in the registry once."""
        counter = self._counters.get((name, direction))
        if counter is None:
            labels = {} if direction is None else {"direction": direction}
            counter = self._counters[name, direction] = self.metrics.counter(
                name, site=self.site_id, **labels
            )
        return counter

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
        hello = {"site_id": self.site_id, "protocol": bodies.PROTOCOL_VERSION}
        self._send(FRAME_HELLO, json.dumps(hello).encode("utf-8"))
        frame_type, body = self._read("handshake with")
        self._count(UP, len(body))
        try:
            if frame_type == FRAME_ERROR:
                raise map_remote_error(*bodies.decode_error(body))
            if frame_type != FRAME_WELCOME:
                raise NetworkError(
                    f"expected WELCOME from site {self.site_id!r}, got "
                    f"{_FRAME_NAMES.get(frame_type, frame_type)}"
                )
            info = json.loads(body.decode("utf-8"))
            if info.get("protocol") != bodies.PROTOCOL_VERSION:
                raise ProtocolError(f"site {self.site_id!r} speaks protocol "
                                    f"{info.get('protocol')!r}, not {bodies.PROTOCOL_VERSION}")
            if info.get("site_id") != self.site_id:
                raise NetworkError(
                    f"connected to wrong site: wanted {self.site_id!r}, "
                    f"server is {info.get('site_id')!r}"
                )
        except ReproError:
            self._drop_connection()
            raise

    def _send(self, frame_type: int, body: bytes = b"", payload_bytes: int = 0) -> None:
        """Write one frame on the open socket and count it."""
        try:
            write_frame(self._sock, frame_type, body)
        except OSError as error:
            self._drop_connection()
            raise NetworkError(
                f"socket to site {self.site_id!r} failed mid-send: {error}"
            ) from None
        self._count(DOWN, len(body), payload_bytes)

    def _read(self, what: str) -> Tuple[int, bytes]:
        """Read one frame, uncounted (its reader knows what of it is
        payload); a dead or desynced socket is dropped."""
        try:
            return read_frame(self._sock)
        except OSError as error:
            self._drop_connection()
            raise NetworkError(
                f"{what} site {self.site_id!r} failed: {error}"
            ) from None
        except NetworkError:
            self._drop_connection()
            raise

    def _control(self, frame_type: int, body: bytes, what: str) -> dict:
        """One control exchange: a frame out, the same type (JSON) back,
        charged wholly to framing, so payload byte parity is untouched."""
        with self._io_lock:
            self._ensure_connected()
            self._send(frame_type, body)
            got, reply = self._read(what)
            self._count(UP, len(reply))
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
        self.downstream.record(carried)
        self._held = carried, verdict

    # -- the leg: the server process plays the site end ---------------------------

    def ask(self, request) -> None:
        """Put the site's turn to it: write the REQ — the message
        :meth:`send_to_site` holds, then the request's fields that differ
        from their defaults. :meth:`answer` reads what answers it, once
        the socket is readable; :meth:`abandon` gives up on it.

        A message that was lost or is late crosses flagged ``DROPPED``,
        and the turn fails here, with no answer to wait for. From a
        written REQ until its answer is read or abandoned the channel's
        I/O lock stays held, so no other thread's control frame can take
        the REPLY.
        """
        self.policy.require_up()
        (carried, verdict), self._held = self._held, None
        delivered = verdict is DELIVER
        message = encode_wire_message(
            carried.kind,
            carried.round_index,
            carried.payload,
            0 if delivered else FLAG_DROPPED,
        )
        with self._io_lock:
            self._ensure_connected()
            self._send(FRAME_REQ, message + request.control(), len(message))
            if not delivered:
                raise NetworkError(
                    f"message for channel {self.site_id!r} was lost or is "
                    "delayed in flight"
                )
            self._io_lock.acquire()  # released by answer() or abandon()
            self.waiting = True

    def fileno(self) -> int:
        """The connection's descriptor, for a selector to wait on."""
        return self._sock.fileno()

    def answer(self) -> tuple:
        """``(reply meta, payload as sent)``: read the one frame that
        answers the REQ :meth:`ask` wrote.

        The REPLY's up message is shown to the policy, recorded and
        queued for ``receive_at_coordinator``; an ERROR frame raises the
        site's error; a REPLY that is not one up message and its meta, or
        an ERROR that is not an error, raises
        :class:`~repro.errors.ProtocolError` and drops the connection. A
        reply is recorded whole or not at all.
        """
        try:
            frame_type, body = self._read("reply from")
            try:
                if frame_type == FRAME_ERROR:
                    error = map_remote_error(*bodies.decode_error(body))
                elif frame_type == FRAME_REPLY:
                    kind, round_index, _flags, payload, meta = decode_wire_message(body)
                    if kind not in UP_KINDS:
                        raise NetworkError(f"a {kind} message answers nothing")
                    meta = bodies.decode_meta(meta)
            except (NetworkError, ProtocolError) as failure:
                self._count(UP, len(body))
                self._drop_connection()
                raise ProtocolError(
                    f"site {self.site_id!r} replied with other than one up "
                    f"message and its meta, or an error: {failure}"
                ) from None
            if frame_type != FRAME_REPLY:
                self._count(UP, len(body))
                if frame_type == FRAME_ERROR:
                    raise error
                raise NetworkError(
                    f"unexpected {_FRAME_NAMES.get(frame_type, frame_type)} "
                    f"frame from site {self.site_id!r} during request"
                )
            self._count(UP, len(body), HEADER_BYTES + len(payload))
        finally:
            self._settle()
        carried, verdict = self._admit(
            Message(kind, self.site_id, "coordinator", round_index, payload), UP
        )
        self.upstream.record(carried)
        self._enqueue(UP, carried, verdict)
        return meta, payload

    def abandon(self) -> None:
        """Give up on the REQ :meth:`ask` wrote (a straggler abandoned for a
        backup, a wait timed out): the connection is dropped, so its REPLY
        can answer nothing, and nothing of it is recorded."""
        self._drop_connection()
        self._settle()

    def _settle(self) -> None:
        """The asked turn is over: release the I/O lock :meth:`ask` kept."""
        if self.waiting:
            self.waiting = False
            self._io_lock.release()

    # -- telemetry ---------------------------------------------------------------

    def ping(self, samples: int = 3, clock=None):
        """NTP-style clock sampling against the site-server process.

        Runs ``samples`` PING exchanges and keeps the minimum-RTT sample
        (least queueing noise). The stored offset maps site-local
        ``perf_counter`` timestamps into this process's clock domain:
        ``local_time = site_time - clock_offset_s``.
        """
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
        held, self._held = self._held, None
        return super().drain_pending() + (held is not None)

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
        totals = dict.fromkeys(SOCKET_TOTALS, 0)
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
