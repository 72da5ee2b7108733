"""The typed REQ control, REPLY meta and ERROR bodies (``repro.net.bodies``).

Round trip: any expression over the closed node set, any registered
aggregate, both base sources and every ``SiteRequest`` field, at its
default and off it, decodes to what was encoded (by ``repr``, and by
``key()`` for expressions). Untrusted bytes: every strict prefix, every
single-byte flip and arbitrary bytes of each body end in a value or a
``ProtocolError``, quickly. And the wire: both ends refuse another
protocol version, and ``framing`` is ``headers + control + meta``.
"""

from __future__ import annotations

import datetime
import json
import math
import socket
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import serving
from repro.distributed.executor import SiteRequest
from repro.errors import ProtocolError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, LiteralBase, MDStep
from repro.net import bodies
from repro.net.serialize import _write_varint
from repro.net.socket_channel import (
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_WELCOME,
    SocketChannel,
    read_frame,
    write_frame,
)
from repro.relalg import aggregates
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import (
    And,
    Arith,
    Between,
    Comparison,
    Const,
    Field,
    InSet,
    IsNull,
    Neg,
    Not,
    Or,
    base,
    detail,
)
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, STR, Schema

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
    | st.dates()
)
NAMES = st.sampled_from(["k", "v", "SourceAS", "Price", "héllo", "m"])
RELVARS = st.sampled_from([None, "b", "r", "x"])


@st.composite
def exprs(draw, depth=0):
    if depth >= 4 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return Const(draw(SCALARS))
        return Field(draw(NAMES), draw(RELVARS))
    child = exprs(depth=depth + 1)
    kind = draw(st.sampled_from(
        ["arith", "neg", "cmp", "and", "or", "not", "in", "between", "isnull"]
    ))
    if kind == "arith":
        return Arith(draw(st.sampled_from("+-*/%")), draw(child), draw(child))
    if kind == "cmp":
        op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
        return Comparison(op, draw(child), draw(child))
    if kind in ("and", "or"):
        return (And if kind == "and" else Or)(draw(child), draw(child))
    if kind == "in":
        return InSet(draw(child), draw(st.lists(SCALARS, max_size=4)))
    if kind == "between":
        return Between(draw(child), draw(child), draw(child))
    return {"neg": Neg, "not": Not, "isnull": IsNull}[kind](draw(child))


@st.composite
def steps(draw):
    def block():
        specs = []
        for index in range(draw(st.integers(1, 3))):
            func = draw(st.sampled_from(aggregates.AGGREGATE_NAMES))
            star = func == "count" and draw(st.booleans())
            shift = Const(draw(st.integers(-5, 5) | st.floats(allow_nan=False)))
            specs.append(AggSpec(func, None if star else detail.v + shift, f"a{index}"))
        condition = draw(exprs())
        # A GMDJ condition qualifies every field with b or r.
        if condition.relvars() - {"b", "r"}:
            condition = (base.k == detail.k) & Not(IsNull(Const(None)))
        return MDBlock(specs, condition)

    return tuple(
        MDStep(draw(st.sampled_from(["T", "Flow"])), [block() for _ in range(draw(st.integers(1, 2)))])
        for _ in range(draw(st.integers(1, 2)))
    )


LITERAL = LiteralBase(
    Relation(Schema.of(("k", INT), ("s", STR)), [(1, "a"), (2, None)]), ["k"]
)


@st.composite
def requests(draw):
    optional = {
        "steps": steps(),
        "key_attrs": st.lists(NAMES, max_size=3).map(tuple),
        "source": st.sampled_from([DistinctBase("T", ["k", "v"]), LITERAL]),
        "query_id": st.integers(0, 2**40) | st.text(max_size=6),
        "compute_delay_s": st.floats(min_value=0.0, max_value=1.0),
        "since": st.integers(0, 2**40),
        "independent_reduction": st.just(True),
        "traced": st.just(True),
        "observed": st.just(True),
        "keep_answer": st.just(True),
        "lose_state": st.just(True),
    }
    chosen = draw(st.sets(st.sampled_from(sorted(optional))))
    return SiteRequest(
        kind=draw(st.sampled_from(["base", "round", "merged"])),
        site_id="s0",
        round_number=draw(st.integers(0, 2**31)),
        fragment=draw(st.none() | st.just(b"fragment")),
        **{name: draw(optional[name]) for name in chosen},
    )


def _nodes(expression):
    yield expression
    for child in expression.children():
        yield from _nodes(child)


def round_trip(request: SiteRequest) -> SiteRequest:
    return SiteRequest.from_control(request.control(), request.fragment, request.site_id)


class TestRoundTrip:
    @given(exprs())
    @example(Const(2**63 + 5))
    @example(Const(-0.0))
    @example(Const(math.nan))
    @example(InSet(detail.v, [datetime.date(2024, 2, 29), "x", None, 1.5]))
    def test_an_expression_decodes_to_itself(self, expression):
        names: dict = {}
        data = bytearray()
        bodies._write_expr(data, expression, names)
        rebuilt = bodies._decoded(
            bytes(data), "an expression", lambda reader: reader.expr(tuple(names))
        )
        assert repr(rebuilt) == repr(expression)
        if not any(
            isinstance(node, Const) and isinstance(node.value, float) and math.isnan(node.value)
            for node in _nodes(expression)
        ):  # NaN is not equal to itself, in a key too
            assert rebuilt.key() == expression.key()

    @pytest.mark.parametrize("func", aggregates.AGGREGATE_NAMES)
    def test_every_registered_aggregate_decodes_to_itself(self, func):
        specs = [AggSpec(func, detail.v * 2, "out")]
        if func == "count":
            specs.append(count_star("n"))
        request = SiteRequest(
            kind="merged", site_id="s0", round_number=1, key_attrs=("k",),
            steps=(MDStep("T", [MDBlock(specs, base.k == detail.k)]),),
            source=DistinctBase("T", ["k"]),
        )
        assert repr(round_trip(request)) == repr(request)

    @settings(max_examples=200, deadline=None)
    @given(requests())
    def test_every_request_decodes_to_itself(self, request):
        assert repr(round_trip(request)) == repr(request)

    def test_only_fields_off_their_defaults_cross(self):
        request = SiteRequest(kind="base", site_id="s0", round_number=0)
        assert bodies.decode_control(request.control()) == {"kind": "base", "round_number": 0}
        assert len(request.control()) == 3  # kind, round, no flags

    def test_a_round_encodes_its_steps_once(self):
        step = (MDStep("T", [MDBlock([count_star("n")], base.k == detail.k)]),)
        first, _names = bodies._steps_section(step)
        assert bodies._steps_section(step)[0] is first  # the same bytes, reused


def req_control() -> bytes:
    return SiteRequest(
        kind="round", site_id="s0", round_number=2, key_attrs=("k",),
        steps=(MDStep("T", [MDBlock(
            [count_star("n"), AggSpec("avg", detail.v, "m")],
            (base.k == detail.k) & detail.v.is_in([1, 2.5, "x"]),
        )]),),
        traced=True, query_id="q-1", compute_delay_s=0.25, since=3, source=LITERAL,
    ).control()


SPAN = {
    "name": "round.evaluate", "kind": "site", "span_id": 1, "parent_id": None,
    "start_s": 1.0, "end_s": 2.0, "attributes": {"rows": 3},
}
BODIES = {
    "control": (req_control(), bodies.decode_control),
    "meta": (
        bodies.encode_meta(7, 0.5, {"gmdj.tuples_examined": 300, "other": 2}, (SPAN,)),
        bodies.decode_meta,
    ),
    "error": (bodies.encode_error("StateMismatch", "no answer kept"), bodies.decode_error),
}


class TestTypedBodies:
    """Whatever arrives, a typed body decodes to a value or raises
    ``ProtocolError``, in bounded time (ROADMAP aim 3)."""

    @pytest.mark.parametrize("name", BODIES)
    def test_every_strict_prefix_is_rejected(self, name):
        """An ERROR's message runs to the end of the body, so a prefix that
        keeps the class name whole is a shorter message."""
        data, decode = BODIES[name]
        decode(data)
        whole = len(bodies.encode_error("StateMismatch", "")) if name == "error" else len(data)
        for cut in range(len(data)):
            if cut < whole:
                with pytest.raises(ProtocolError):
                    decode(data[:cut])
            else:
                assert decode(data[:cut]) == ("StateMismatch", "no answer kept"[: cut - whole])

    @pytest.mark.parametrize("name", BODIES)
    def test_every_single_byte_flip_decodes_or_is_rejected(self, name):
        data, decode = BODIES[name]
        started = time.monotonic()
        for position in range(len(data)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(data)
                mutated[position] ^= flip
                try:
                    decode(bytes(mutated))
                except ProtocolError:
                    pass
        assert time.monotonic() - started < 30

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(BODIES)), st.binary(max_size=200))
    def test_arbitrary_bytes_decode_or_are_rejected(self, name, data):
        try:
            BODIES[name][1](data)
        except ProtocolError:
            pass

    def test_a_count_past_the_bytes_left_is_refused_before_any_allocation(self):
        data = bytearray((1,))  # a round
        _write_varint(data, 1)  # round 1
        _write_varint(data, 1)  # steps sent
        _write_varint(data, 2**60)  # a steps section of 2**60 bytes
        with pytest.raises(ProtocolError, match="past the bytes left"):
            bodies.decode_control(bytes(data) + b"\x00" * 16)
        meta = bytearray((3,)) + bytes(8)  # rows, compute_s
        _write_varint(meta, 2**61)  # counters
        with pytest.raises(ProtocolError, match="past the bytes left"):
            bodies.decode_meta(bytes(meta))

    def test_nesting_past_the_depth_is_refused_not_a_recursion_error(self):
        deep = b"\x22" * 10_000 + b"\x00"  # Not(Not(... Const(None)))
        # A table of "T"; one step on it, of one block of COUNT(*) -> n.
        section = b"\x01\x01T" + b"\x01\x01\x01\x01" + b"\x00\x05count\x26\x00\x01n" + deep
        data = bytearray((1,))
        _write_varint(data, 1)
        _write_varint(data, 1)
        _write_varint(data, len(section))
        with pytest.raises(ProtocolError, match="nested past"):
            bodies.decode_control(bytes(data) + section)
        condition = base.k == detail.k
        for _level in range(bodies.MAX_EXPR_DEPTH):
            condition = Not(condition)
        step = (MDStep("T", [MDBlock([count_star("n")], condition)]),)
        with pytest.raises(ProtocolError, match="nested past"):
            bodies.encode_control({"kind": "round", "round_number": 1, "steps": step})

    def test_what_has_no_wire_form_is_refused_at_the_coordinator(self):
        with pytest.raises(ProtocolError, match="no wire form"):
            SiteRequest(kind="base", site_id="s0", round_number=0, query_id=object()).control()
        with pytest.raises(ProtocolError, match="unknown request kind"):
            SiteRequest(kind="nope", site_id="s0", round_number=0).control()


TABLES = {"T": Relation(Schema.of(("k", INT)), [(k % 3,) for k in range(9)])}


def hello(protocol) -> bytes:
    body = json.dumps({"site_id": "s0", "protocol": protocol}).encode()
    return len(body + b"x").to_bytes(4, "big") + bytes((FRAME_HELLO,)) + body


class TestProtocolVersion:
    @pytest.mark.parametrize("protocol", [None, 1, bodies.PROTOCOL_VERSION + 1, "2"])
    def test_a_stale_hello_is_refused_by_the_site(self, protocol):
        with serving(TABLES) as server:
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                sock.sendall(hello(protocol))
                frame_type, body = read_frame(sock)
                assert frame_type == FRAME_ERROR
                assert bodies.decode_error(body)[0] == "ProtocolError"
                with pytest.raises(ConnectionError):  # closed
                    read_frame(sock)
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                sock.sendall(hello(bodies.PROTOCOL_VERSION))
                assert read_frame(sock)[0] == FRAME_WELCOME

    def test_a_stale_welcome_is_refused_by_the_coordinator(self):
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            channel = SocketChannel("s0", listener.getsockname()[:2], io_timeout_s=5)

            def answer():
                conn, _address = listener.accept()
                with conn:
                    read_frame(conn)
                    write_frame(conn, FRAME_WELCOME, b'{"site_id": "s0", "protocol": 1}')

            thread = threading.Thread(target=answer, daemon=True)
            thread.start()
            with pytest.raises(ProtocolError, match="speaks protocol 1"):
                channel._ensure_connected()
            thread.join(timeout=5)
            assert channel._sock is None
        finally:
            listener.close()


def test_framing_is_headers_control_and_meta_and_a_leg_controls_little(tmp_path, monkeypatch):
    """``round_floor``'s four statements, unoptimised over 4 site processes:
    ``framing`` is the sum of its three parts in the totals and the stats,
    ``transport_summary`` shows them, and no REQ's control passes
    ``CONTROL_BOUND`` bytes (the largest is under 100; a pickled one took ≈ 600)."""
    from bench_e2e.workloads import BY_NAME
    from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner, register_tpcr_fds
    from repro.distributed import OptimizationOptions, SimulatedCluster, execute_query
    from repro.distributed.deployment import ProcessCluster
    from repro.distributed.evaluator import ExecutionConfig
    from repro.queries.sql import parse_olap_query

    CONTROL_BOUND = 128
    workload = BY_NAME["round_floor"]
    simulated = SimulatedCluster.with_sites(workload.sites)
    tpcr = generate_tpcr(TPCRConfig(scale=workload.rows / 6_000_000, seed=101))
    simulated.load_partitioned("TPCR", tpcr, nation_partitioner(workload.sites))
    register_tpcr_fds(simulated.catalog)
    controls = []
    control = SiteRequest.control

    def measured(request):
        controls.append(len(data := control(request)))
        return data

    monkeypatch.setattr(SiteRequest, "control", measured)
    with ProcessCluster.from_simulated(simulated, str(tmp_path)) as cluster:
        for statement in workload.statements:
            cluster.reset_network()
            result = execute_query(
                cluster, parse_olap_query(statement),
                options=OptimizationOptions.none(),
                config=ExecutionConfig(executor="sockets"),
            )
            totals = cluster.network.socket_totals()
            assert totals["framing"] == totals["headers"] + totals["control"] + totals["meta"]
            assert totals["headers"] == 5 * totals["frames"]
            stats = result.stats
            assert stats.socket_framing_bytes == (
                stats.socket_header_bytes + stats.socket_control_bytes + stats.socket_meta_bytes
            )
            assert stats.socket_meta_bytes > 0
            assert f"control {stats.socket_control_bytes}B" in stats.transport_summary()
    assert len(controls) >= 4 * len(workload.statements)
    assert max(controls) <= CONTROL_BOUND, controls
