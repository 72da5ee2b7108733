"""Bytes off a socket are untrusted: the frame reader, the site server,
and a positional fragment's reference to an answer the site kept.

In the idiom of ``tests/test_serialize.py::TestUntrustedBytes``: every
strict prefix and every single-byte mutation of a valid HELLO·MSG·REQ
frame stream ends in frames, a ``NetworkError`` or a ``ConnectionError``
— never a hang or a read larger than ``MAX_FRAME_BYTES`` — and a live
``SiteServer`` sent the same garbage keeps serving the next connection.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import threading
import time

import pytest

from conftest import serving
from repro.errors import NetworkError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, MDStep
from repro.net import serialize
from repro.net.message import SHIP_BASE
from repro.net.serialize import encode_relation
from repro.net.socket_channel import (
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_MSG,
    FRAME_PING,
    FRAME_REPLY,
    FRAME_REQ,
    FRAME_TELEMETRY,
    FRAME_WELCOME,
    MAX_FRAME_BYTES,
    decode_wire_message,
    encode_wire_message,
    read_frame,
)
from repro.relalg.aggregates import count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema

TABLES = {"T": Relation(Schema.of(("k", INT)), [(k % 3,) for k in range(9)])}


def frame(frame_type: int, body: bytes = b"") -> bytes:
    return struct.pack(">IB", len(body) + 1, frame_type) + body


HELLO = frame(FRAME_HELLO, json.dumps({"site_id": "s0"}).encode("utf-8"))
MSG = frame(
    FRAME_MSG, encode_wire_message(SHIP_BASE, 1, encode_relation(TABLES["T"]))
)
REQ = frame(
    FRAME_REQ,
    pickle.dumps(
        {
            "kind": "base", "site_id": "s0", "round_number": 0,
            "source": DistinctBase("T", ["k"]), "expected_payloads": 1,
        }
    ),
)
STREAM = HELLO + MSG + REQ


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
                if frame_type == FRAME_MSG:
                    decode_wire_message(body)
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
        assert frames == [FRAME_HELLO, FRAME_MSG, FRAME_REQ]
        assert isinstance(ending, ConnectionError)  # a clean end of stream

    def test_every_prefix_and_mutation_ends_in_a_typed_error(self):
        for data in garbage(STREAM):
            frames, ending = read_all(data)
            assert isinstance(ending, (NetworkError, ConnectionError))
            assert len(frames) <= 3

    @pytest.mark.parametrize("length", [0, MAX_FRAME_BYTES + 1, 0x80000010, 2**32 - 1])
    def test_an_impossible_length_is_rejected_before_anything_is_read(self, length):
        frames, ending = read_all(struct.pack(">I", length) + b"\x03" * 64)
        assert frames == []
        assert isinstance(ending, NetworkError)
        assert "invalid frame length" in str(ending)

    def test_the_largest_frame_is_still_a_frame(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">IB", MAX_FRAME_BYTES, FRAME_MSG))
            left.close()
            with pytest.raises(ConnectionError):  # accepted, then cut short
                read_frame(right)
        finally:
            right.close()


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
        # REQ bodies are pickle, trusted by design (ROADMAP: off the wire in
        # its own PR), so mutations stop at the REQ frame's length and type.
        req_body = len(HELLO) + len(MSG) + 5
        with serving(TABLES) as server:
            threads_before = threading.active_count()
            assert converse(server, STREAM) == [FRAME_WELCOME, FRAME_MSG, FRAME_REPLY]
            for data in garbage(STREAM, stop=req_body):
                converse(server, data)
            for body in (b"not json", b"[1, 2]", b"\xff\xfe"):
                assert converse(server, frame(FRAME_HELLO, body)) == [FRAME_ERROR]
                assert converse(server, frame(FRAME_TELEMETRY, body)) == [FRAME_ERROR]
            assert converse(server, frame(FRAME_TELEMETRY, b'{"want": 5}')) == [
                FRAME_ERROR
            ]
            assert converse(server, frame(FRAME_MSG, b"short")) == [FRAME_ERROR]
            oversize = struct.pack(">I", MAX_FRAME_BYTES + 1)
            assert converse(server, oversize) == [FRAME_ERROR]
            # A second, healthy connection is answered as if nothing happened.
            assert converse(server, STREAM + frame(FRAME_PING, b"{}")) == [
                FRAME_WELCOME, FRAME_MSG, FRAME_REPLY, FRAME_PING,
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
            control = dict(pickle.loads(REQ[5:]), **asked)
            stream = HELLO + MSG + frame(FRAME_REQ, pickle.dumps(control))
            with socket.create_connection(
                (server.host, server.port), timeout=5
            ) as sock:
                sock.sendall(stream)
                for expected in (FRAME_WELCOME, FRAME_MSG, FRAME_REPLY):
                    frame_type, body = read_frame(sock)
                    assert frame_type == expected
                return pickle.loads(body)

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
    #: A keyed answer of three rows, as the site's reply blocks kept it.
    ANSWER = (
        encode_relation(Relation(Schema.of(("k", INT), ("n", INT)), [(0, 3), (1, 3), (2, 3)])),
    )

    @staticmethod
    def ask(server, payload: bytes) -> list:
        """``(frame type, body)`` of the server's answer to a round over
        ``payload``: what it sent back before closing."""
        control = {
            "kind": "round", "site_id": "s0", "round_number": 2,
            "steps": (MDStep("T", [MDBlock([count_star("n")], base.k == detail.k)]),),
            "key_attrs": ("k",), "expected_payloads": 1,
        }
        stream = (
            HELLO
            + frame(FRAME_MSG, encode_wire_message(SHIP_BASE, 2, payload))
            + frame(FRAME_REQ, pickle.dumps(control))
        )
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
        return pickle.loads(answers[0][1])["error"]

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
            assert [frame_type for frame_type, _body in answers] == [FRAME_MSG, FRAME_REPLY]
            reply = pickle.loads(answers[-1][1])
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
