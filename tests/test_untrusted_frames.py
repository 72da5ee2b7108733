"""Bytes off a socket are untrusted: the frame reader, the site server,
a positional fragment's reference to an answer the site kept, and a leg
that is other than one REQ down and one REPLY up.

In the idiom of ``tests/test_serialize.py::TestUntrustedBytes``: every
strict prefix and every single-byte mutation of a valid HELLO·REQ frame
stream — the REQ's message header, its payload length, its payload and
its typed control — ends in frames, a ``NetworkError`` or a
``ConnectionError``, never a hang or a read larger than
``MAX_FRAME_BYTES``; and a live ``SiteServer`` sent the same garbage
keeps serving the next connection. The typed bodies themselves (REQ
control, REPLY meta, ERROR) are held to the same rule in
``TestTypedBodies``.
"""

from __future__ import annotations

import contextlib
import json
import socket
import struct
import threading
import time

import pytest

from conftest import serving
from repro.distributed.executor import SiteRequest
from repro.distributed.recovery import TRANSIENT_ERRORS
from repro.errors import NetworkError, ProtocolError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, MDStep
from repro.net import bodies, serialize, socket_channel
from repro.net.message import (
    BASE_QUERY,
    BASE_RESULT,
    SHIP_BASE,
    SUB_RESULT,
    Message,
)
from repro.net.serialize import encode_relation
from repro.net.socket_channel import (
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_PING,
    FRAME_REPLY,
    FRAME_REQ,
    FRAME_TELEMETRY,
    FRAME_WELCOME,
    MAX_FRAME_BYTES,
    SocketChannel,
    decode_wire_message,
    encode_wire_message,
    read_frame,
    write_frame,
)
from repro.relalg.aggregates import count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema

TABLES = {"T": Relation(Schema.of(("k", INT)), [(k % 3,) for k in range(9)])}
STEPS = (MDStep("T", [MDBlock([count_star("n")], base.k == detail.k)]),)
#: The controls of a ``round``, a ``base`` and a ``merged`` request.
ROUND = {"kind": "round", "round_number": 1, "steps": STEPS, "key_attrs": ("k",)}
BASE = {"kind": "base", "round_number": 0, "source": DistinctBase("T", ["k"])}
MERGED = {**BASE, "kind": "merged", "round_number": 1, "steps": STEPS, "key_attrs": ("k",)}
FRAGMENT = encode_relation(Relation(Schema.of(("k", INT)), [(0,), (1,), (2,)]))


def frame(frame_type: int, body: bytes = b"") -> bytes:
    return struct.pack(">IB", len(body) + 1, frame_type) + body


def req(control: dict, kind: str = SHIP_BASE, payload: bytes = None) -> bytes:
    """A REQ frame: ``control``'s request, shipping one ``kind`` message."""
    message = encode_wire_message(kind, control["round_number"], payload)
    return frame(FRAME_REQ, message + bodies.encode_control(control))


def hello(protocol=bodies.PROTOCOL_VERSION) -> bytes:
    return frame(
        FRAME_HELLO, json.dumps({"site_id": "s0", "protocol": protocol}).encode("utf-8")
    )


HELLO = hello()
WELCOME = json.dumps({"site_id": "s0", "protocol": bodies.PROTOCOL_VERSION}).encode()
REQ = req(ROUND, SHIP_BASE, FRAGMENT)
STREAM = HELLO + REQ


def garbage(stream: bytes, start: int = 0, stop: int = None):
    """Every strict prefix, and every single-byte mutation in ``[start, stop)``."""
    for cut in range(len(stream)):
        yield stream[:cut]
    for position in range(start, len(stream) if stop is None else stop):
        for flip in (0x01, 0x80, 0xFF):
            mutated = bytearray(stream)
            mutated[position] ^= flip
            yield bytes(mutated)


class _Watched:
    """A socket that remembers the most it was ever asked to ``recv``."""

    def __init__(self, sock):
        self._sock = sock
        self.largest = 0

    def recv(self, count):
        self.largest = max(self.largest, count)
        return self._sock.recv(count)


def read_all(data: bytes):
    """Feed ``data`` through a socketpair; ``(frames read, how it ended)``."""
    left, right = socket.socketpair()
    try:
        right.settimeout(5)  # a hang would end as TimeoutError, which fails
        left.sendall(data)
        left.close()
        watched = _Watched(right)
        frames = []
        try:
            while True:
                frame_type, body = read_frame(watched)
                if frame_type == FRAME_REQ:
                    decode_wire_message(body)  # its message, then its control
                frames.append(frame_type)
        except (NetworkError, ConnectionError) as error:
            assert watched.largest <= MAX_FRAME_BYTES
            return frames, error
    finally:
        left.close()
        right.close()


class TestFrameReader:
    def test_the_valid_stream_reads_back(self):
        frames, ending = read_all(STREAM)
        assert frames == [FRAME_HELLO, FRAME_REQ]
        assert isinstance(ending, ConnectionError)  # a clean end of stream

    def test_every_prefix_and_mutation_ends_in_a_typed_error(self):
        short = 0
        for data in garbage(STREAM):
            frames, ending = read_all(data)
            assert isinstance(ending, (NetworkError, ConnectionError))
            assert len(frames) <= 2
            short += "short MSG body" in str(ending)
        # A payload length flipped past the frame's end is one of them.
        assert short

    @pytest.mark.parametrize("length", [0, MAX_FRAME_BYTES + 1, 0x80000010, 2**32 - 1])
    def test_an_impossible_length_is_rejected_before_anything_is_read(self, length):
        frames, ending = read_all(struct.pack(">I", length) + b"\x03" * 64)
        assert frames == []
        assert isinstance(ending, NetworkError)
        assert "invalid frame length" in str(ending)

    def test_the_largest_frame_is_still_a_frame(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">IB", MAX_FRAME_BYTES, FRAME_REQ))
            left.close()
            with pytest.raises(ConnectionError):  # accepted, then cut short
                read_frame(right)
        finally:
            right.close()


class TestFrameWriter:
    def test_a_body_past_the_cap_is_refused_before_a_byte_is_written(self, monkeypatch):
        """The writer refuses what the reader would, and not as a transient
        error: a retry would encode and send the same too-long body again."""
        monkeypatch.setattr(socket_channel, "MAX_FRAME_BYTES", 64)
        left, right = socket.socketpair()
        try:
            right.settimeout(5)
            assert write_frame(left, FRAME_REQ, b"x" * 63) == 4 + 64  # the largest frame
            assert read_frame(right) == (FRAME_REQ, b"x" * 63)
            with pytest.raises(ProtocolError, match="65 bytes is past the 64-byte cap"):
                write_frame(left, FRAME_REQ, b"x" * 64)
            left.close()
            assert right.recv(1024) == b""  # the peer reads nothing of it
        finally:
            left.close()
            right.close()
        assert not issubclass(ProtocolError, TRANSIENT_ERRORS)

    def test_an_answer_past_the_cap_is_an_error_frame_from_the_site(self, monkeypatch):
        monkeypatch.setattr(socket_channel, "MAX_FRAME_BYTES", 1024)
        wide = {"T": Relation(Schema.of(("k", INT)), [(k,) for k in range(2000)])}
        with serving(wide) as server:
            # A base request: a header down, an answer of 2000 keys up.
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                sock.sendall(HELLO + req(BASE, BASE_QUERY))
                assert read_frame(sock)[0] == FRAME_WELCOME
                frame_type, body = read_frame(sock)
            assert frame_type == FRAME_ERROR
            assert bodies.decode_error(body)[0] == "ProtocolError"


def converse(server, data: bytes) -> list:
    """Send ``data`` on a fresh connection, half-close, read what comes back.

    A server that gave up on the stream with bytes of it still unread
    resets the connection, which can overtake its answer: an empty list.
    """
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        answers = []
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while True:
                answers.append(read_frame(sock)[0])
        except OSError as error:
            assert not isinstance(error, TimeoutError), "the server hung"
            return answers


def settle(server, threads_before: int) -> None:
    """Wait for the connection threads to finish, then check nothing leaked."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and (
        threading.active_count() > threads_before
        or server.registry.gauge("site.connections").value
    ):
        time.sleep(0.01)
    assert threading.active_count() <= threads_before
    assert server.registry.gauge("site.connections").value == 0


class TestSiteServer:
    def test_garbage_closes_its_own_connection_and_nothing_else(self, monkeypatch):
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        # Every byte of the REQ: its message's header, payload length and
        # payload, and its typed control, which a mutation can leave the
        # control of another request or of none.
        with serving(TABLES) as server:
            threads_before = threading.active_count()
            assert converse(server, STREAM) == [FRAME_WELCOME, FRAME_REPLY]
            for data in garbage(STREAM):
                converse(server, data)
            for body in (b"not json", b"[1, 2]", b"\xff\xfe"):
                assert converse(server, frame(FRAME_HELLO, body)) == [FRAME_ERROR]
                assert converse(server, frame(FRAME_TELEMETRY, body)) == [FRAME_ERROR]
            assert converse(server, frame(FRAME_TELEMETRY, b'{"want": 5}')) == [
                FRAME_ERROR
            ]
            assert converse(server, frame(FRAME_REQ, b"short")) == [FRAME_ERROR]
            oversize = struct.pack(">I", MAX_FRAME_BYTES + 1)
            assert converse(server, oversize) == [FRAME_ERROR]
            # A second, healthy connection is answered as if nothing happened.
            assert converse(server, STREAM + frame(FRAME_PING, b"{}")) == [
                FRAME_WELCOME, FRAME_REPLY, FRAME_PING,
            ]
            settle(server, threads_before)
        assert crashes == []  # no connection thread died of an exception

    def test_connection_threads_are_not_kept(self):
        with serving(TABLES) as server:
            threads_before = threading.active_count()
            for _cycle in range(50):
                assert converse(server, HELLO) == [FRAME_WELCOME]
            settle(server, threads_before)

    def test_the_reply_body_is_the_answer_and_nothing_else(self):
        """REPLY crosses the wire once per site per round, so it carries the
        round's answer (``rows``, ``compute_s``) and the request's own
        ``spans`` and ``counters`` — four keys. Anything else a site knows
        goes home by the TELEMETRY scrape or its flight dump."""

        def reply_to(server, **asked) -> dict:
            stream = HELLO + req({**ROUND, **asked}, SHIP_BASE, FRAGMENT)
            with socket.create_connection(
                (server.host, server.port), timeout=5
            ) as sock:
                sock.sendall(stream)
                for expected in (FRAME_WELCOME, FRAME_REPLY):
                    frame_type, body = read_frame(sock)
                    assert frame_type == expected
            # The answer's one message, then the metadata.
            kind, _round, _flags, _payload, meta = decode_wire_message(body)
            assert kind == SUB_RESULT
            return bodies.decode_meta(meta)

        with serving(TABLES) as server:
            untraced = reply_to(server)
            traced = reply_to(server, traced=True)
        assert sorted(untraced) == ["compute_s", "counters", "rows", "spans"]
        assert untraced["spans"] == ()
        assert sorted(traced) == sorted(untraced)
        assert traced["spans"] != ()
        for key in ("rows", "counters"):
            assert traced[key] == untraced[key]


class TestPositionalFragments:
    """A fragment positional against an answer the site kept (ROADMAP aim
    3): whatever it names, it ends in an answer or a typed error — a
    ``StateMismatch`` the coordinator answers with a keyed resend, or a
    ``SerializationError`` — found before anything is allocated for it."""

    DIGEST = serialize.answer_digest((), (b"an answer",))
    #: A keyed answer of three rows, as the site's reply block kept it.
    ANSWER = encode_relation(
        Relation(Schema.of(("k", INT), ("n", INT)), [(0, 3), (1, 3), (2, 3)])
    )

    @staticmethod
    def ask(server, payload: bytes) -> list:
        """``(frame type, body)`` of the server's answer to a round over
        ``payload``: what it sent back before closing."""
        stream = HELLO + req({**ROUND, "round_number": 2}, SHIP_BASE, payload)
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(stream)
            sock.shutdown(socket.SHUT_WR)
            answers = []
            try:
                while True:
                    answers.append(read_frame(sock))
            except OSError as error:
                assert not isinstance(error, TimeoutError), "the server hung"
        assert answers[0][0] == FRAME_WELCOME
        return answers[1:]

    def error_of(self, server, payload: bytes) -> str:
        answers = self.ask(server, payload)
        assert [frame_type for frame_type, _body in answers] == [FRAME_ERROR]
        return bodies.decode_error(answers[0][1])[0]

    def positional(self, rows: int) -> bytes:
        fragment = Relation(Schema.of(("x", INT)), [(value,) for value in range(rows)])
        return serialize.encode_positional(fragment, self.DIGEST)

    def test_a_site_that_never_answered_says_so(self):
        with serving(TABLES) as server:
            assert self.error_of(server, self.positional(3)) == "StateMismatch"
            assert server.registry.counter("site.round_state_misses").value == 1
            assert server.registry.counter("site.errors").value == 0

    def test_a_kept_answer_is_rejoined_and_answered(self):
        with serving(TABLES) as server:
            server.site.remember_answer(None, self.DIGEST, self.ANSWER, 3)
            answers = self.ask(server, self.positional(3))
            assert [frame_type for frame_type, _body in answers] == [FRAME_REPLY]
            reply = bodies.decode_meta(decode_wire_message(answers[0][1])[4])
            assert reply["rows"] == 3
            assert reply["counters"]["site.round_state_hits"] == 1

    def test_another_row_count_than_the_kept_answer_is_a_mismatch(self):
        with serving(TABLES) as server:
            for rows in (2, 4, 0):
                server.site.remember_answer(None, self.DIGEST, self.ANSWER, 3)
                assert self.error_of(server, self.positional(rows)) == "StateMismatch"

    @pytest.mark.parametrize("length", [0, 8, 17, 255])
    def test_a_digest_of_another_length_is_a_serialization_error(self, length):
        body = encode_relation(Relation(Schema.of(("x", INT)), [(1,), (2,), (3,)]))
        payload = b"SKRP" + bytes((length,)) + b"\x01" * length + body
        with serving(TABLES) as server:
            server.site.remember_answer(None, self.DIGEST, self.ANSWER, 3)
            assert self.error_of(server, payload) == "SerializationError"

    def test_a_row_count_beyond_the_payload_is_refused_before_any_row(self):
        header = encode_relation(Relation.empty(Schema.of(("x", INT))))[:-1]
        count = bytearray()
        serialize._write_varint(count, 2**60)
        payload = b"SKRP\x10" + self.DIGEST + header + bytes(count) + b"\x00" * 64
        with serving(TABLES) as server:
            server.site.remember_answer(None, self.DIGEST, self.ANSWER, 3)
            assert self.error_of(server, payload) == "SerializationError"


@contextlib.contextmanager
def answering(*frames: bytes):
    """A one-connection site that answers HELLO with WELCOME and REQ with
    ``frames``, then reads on until the coordinator hangs up; yields its
    address and an event set when the connection ended."""
    listener = socket.create_server(("127.0.0.1", 0))
    ended = threading.Event()

    def serve():
        conn, _address = listener.accept()
        with conn:
            conn.settimeout(10)
            try:
                while True:
                    frame_type, _body = read_frame(conn)
                    if frame_type == FRAME_HELLO:
                        write_frame(conn, FRAME_WELCOME, WELCOME)
                    elif frame_type == FRAME_REQ:
                        conn.sendall(b"".join(frames))
            except OSError:
                ended.set()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname(), ended
    finally:
        listener.close()
        thread.join(timeout=15)
        assert not thread.is_alive()


def refusal(server, data: bytes) -> dict:
    """The ERROR a live site answers ``data`` with, after a HELLO; the site
    must then close the connection rather than wait for more."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(HELLO + data)
        assert read_frame(sock)[0] == FRAME_WELCOME
        frame_type, body = read_frame(sock)
        assert frame_type == FRAME_ERROR
        with pytest.raises(ConnectionError):  # closed, not a TimeoutError
            read_frame(sock)
    error, message = bodies.decode_error(body)
    return {"error": error, "message": message}


class TestOneBlockPerLeg:
    """A leg is one REQ down and one REPLY up, and each carries one
    message: one block each way. A REQ or a REPLY that is not one message
    its request can take is refused with a non-transient error, within a
    bounded time, and the connection it came on is closed."""

    META = bodies.encode_meta(9, 0.0, {})
    BLOCK = encode_relation(TABLES["T"])

    def test_a_malformed_req_is_refused_at_the_site(self):
        shipped = encode_wire_message(SHIP_BASE, 1, FRAGMENT)
        cases = [
            # (what, REQ or other frame, error class, message)
            ("a message past the body", frame(FRAME_REQ, shipped[:-1]),
             "NetworkError", "short MSG body"),
            ("a round of a header", req(ROUND, BASE_QUERY),
             "ProtocolError", "as one SHIP_BASE payload"),
            ("a round of an empty SHIP_BASE", req(ROUND, SHIP_BASE),
             "ProtocolError", "as one SHIP_BASE payload"),
            ("a round shipping BASE_QUERY", req(ROUND, BASE_QUERY, FRAGMENT),
             "ProtocolError", "as one SHIP_BASE payload"),
            ("a base request with a payload", req(BASE, BASE_QUERY, FRAGMENT),
             "ProtocolError", "ships no payload"),
            ("a merged request with a payload", req(MERGED, SHIP_BASE, FRAGMENT),
             "ProtocolError", "ships no payload"),
            ("an up message", req(BASE, BASE_RESULT),
             "ProtocolError", "carries a down message"),
            ("a MSG frame", frame(3, shipped), "NetworkError", "unexpected frame type 3"),
            ("a RESET frame", frame(7), "NetworkError", "unexpected frame type 7"),
        ]
        with serving(TABLES) as server:
            for what, data, error, message in cases:
                detail = refusal(server, data)
                assert (detail["error"], message in detail["message"]) == (error, True), what
            # The requests were refused, not the server: it serves on.
            assert converse(server, STREAM) == [FRAME_WELCOME, FRAME_REPLY]
            assert converse(server, HELLO + req(BASE, BASE_QUERY)) == [
                FRAME_WELCOME, FRAME_REPLY,
            ]

    @pytest.mark.parametrize(
        "body, message",
        [
            (encode_wire_message(BASE_RESULT, 1, BLOCK)[:-1], "short MSG body"),
            (encode_wire_message(SHIP_BASE, 1, BLOCK) + META, "answers nothing"),
            (META, "short MSG body"),  # metadata and no answer
        ],
        ids=["short", "down-kind", "no-message"],
    )
    def test_a_reply_of_other_than_one_block_is_refused_at_the_coordinator(
        self, body, message
    ):
        request = SiteRequest(
            kind="base", site_id="s0", round_number=1, source=DistinctBase("T", ["k"])
        )
        with answering(frame(FRAME_REPLY, body)) as (address, ended):
            channel = SocketChannel("s0", address, io_timeout_s=5)
            started = time.monotonic()
            try:
                channel.send_to_site(Message(BASE_QUERY, "coordinator", "s0", 1))
                channel.ask(request)
                with pytest.raises(ProtocolError, match=message):
                    channel.answer()
                assert ended.wait(timeout=5)  # the coordinator dropped the connection
            finally:
                channel.close()
        assert time.monotonic() - started < 5  # no wait for a frame that never comes
        assert channel.upstream.messages == 0
