"""One ``Channel`` contract, two transports — parity as a test.

The same leg (*send -> site's turn -> receive*, the turn being ``ask``
then ``answer``) runs over the in-memory ``Channel`` whose host performs
the site in this process and over a ``SocketChannel`` against a live
``SiteServer``, under the same fault schedule, and must
leave the same fault events, the same ``DirectionStats``, the same
``net.fault.*`` counters and the same failure at the same step. Nothing
in the production code makes that hold "by construction": the transports
share the coordinator end and the ledger, not a fault base class.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from conftest import serving
from repro.distributed.executor import SiteRequest, SocketEngine, perform_site_request
from repro.distributed.site import SkallaSite
from repro.errors import (
    LegDeadlineExceeded,
    NetworkError,
    SerializationError,
    SiteUnavailableError,
)
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import MDStep
from repro.net import bodies
from repro.net.channel import Channel
from repro.net.faults import FaultEvent, FaultPlan
from repro.net.message import BASE_QUERY, HEADER_BYTES, SHIP_BASE, Message
from repro.net.serialize import decode_reply
from repro.net.socket_channel import (
    FRAME_HELLO,
    FRAME_REQ,
    FRAME_WELCOME,
    SocketChannel,
    read_frame,
    write_frame,
)
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema
from repro.warehouse.storage import LocalWarehouse

SITE = "s0"
ROUND = 1
BASE = Relation(Schema.of(("k", INT)), [(k,) for k in range(6)])
TABLES = {
    "T": Relation(Schema.of(("k", INT), ("v", INT)), [(i % 6, i) for i in range(40)])
}
STEP = MDStep(
    "T",
    [MDBlock([count_star("cnt"), AggSpec("sum", detail.v, "s")], detail.k == base.k)],
)
TRANSPORTS = ("memory", "socket")


@pytest.fixture(scope="module")
def server():
    with serving(TABLES, SITE) as live:
        yield live


def open_edge(transport, spec, server):
    """``(channel, turn)``: one edge, and the site's turn on it — the same
    ``ask`` then ``answer`` on either transport."""
    plan = FaultPlan.parse(spec) if spec else None
    if transport == "memory":
        site = SkallaSite(SITE, LocalWarehouse(SITE, TABLES))
        channel = Channel(
            SITE, faults=plan,
            perform=lambda request, tracer: perform_site_request(site, request, tracer),
        )
    else:
        channel = SocketChannel(SITE, (server.host, server.port), faults=plan)

    def turn(request):
        channel.ask(request)
        return channel.answer()[1]

    return channel, turn


def run_leg(channel, turn):
    """One leg attempt; ``(step it stopped at, error class, delay, rows)``."""
    step, delay_s = "send", None
    try:
        channel.begin_attempt(ROUND)
        delay_s = channel.next_straggle(ROUND)
        channel.send_to_site(
            Message.with_relation(SHIP_BASE, "coordinator", SITE, ROUND, BASE)
        )
        step = "turn"
        turn(
            SiteRequest(
                kind="round", site_id=SITE, round_number=ROUND, steps=(STEP,),
                key_attrs=("k",),
            )
        )
        step = "receive"
        # Hᵢ answers by row address: each row with the key of its fragment row.
        answer, rows = decode_reply(
            channel.receive_at_coordinator().payload, ("k",), len(BASE)
        )
        answers = [
            (BASE.rows[row][0], *values) for row, values in zip(rows.tolist(), answer.rows)
        ]
    except (NetworkError, SerializationError) as error:
        return step, type(error), delay_s, None
    return "done", None, delay_s, sorted(answers)


def ledger(channel):
    """Everything the contract says both transports must agree on."""
    return {
        "events": list(channel.events),
        "down": (
            channel.downstream.bytes,
            channel.downstream.messages,
            channel.downstream.by_round,
        ),
        "up": (
            channel.upstream.bytes,
            channel.upstream.messages,
            channel.upstream.by_round,
        ),
        "fault_counters": {
            key: snap["value"]
            for key, snap in channel.metrics.snapshot().items()
            if key.startswith("net.fault.")
        },
    }


def observe(transport, spec, server):
    """A faulted leg, a drain, then a clean leg on the same channel."""
    channel, turn = open_edge(transport, spec, server)
    try:
        first = run_leg(channel, turn)
        after_first = ledger(channel)
        channel.drain_pending()
        second = run_leg(channel, turn)
        if transport == "socket":
            totals = channel.socket_totals()
            assert totals["payload_down"] == channel.downstream.bytes
            assert totals["payload_up"] == channel.upstream.bytes
        return first, after_first, second, ledger(channel)
    finally:
        if transport == "socket":
            channel.close()


REFERENCE = observe("memory", "", None)[0]

#: spec -> (step the first attempt stops at, the error it stops with).
SCHEDULE = {
    "drop site=s0 dir=down": ("turn", NetworkError),
    "drop site=s0 dir=up": ("receive", NetworkError),
    "delay site=s0 dir=down": ("turn", NetworkError),
    "delay site=s0 dir=up": ("receive", NetworkError),
    "duplicate site=s0 dir=down": ("done", None),
    "duplicate site=s0 dir=up": ("done", None),
    "corrupt site=s0 dir=down": ("turn", SerializationError),
    "corrupt site=s0 dir=up": ("receive", SerializationError),
    "crash site=s0 times=1": ("send", SiteUnavailableError),
    "straggle site=s0 delay=0.01": ("done", None),
}


def test_the_fault_free_leg_is_the_reference(server):
    step, error, delay_s, rows = REFERENCE
    assert (step, error, delay_s) == ("done", None, 0.0)
    assert [row[0] for row in rows] == list(range(6))
    assert observe("socket", "", server)[0] == REFERENCE


@pytest.mark.parametrize("spec", SCHEDULE, ids=lambda spec: spec.replace(" ", "_"))
def test_both_transports_keep_the_contract_alike(spec, server):
    in_memory = observe("memory", spec, server)
    over_tcp = observe("socket", spec, server)
    assert over_tcp == in_memory

    first, after_first, second, final = in_memory
    kind = spec.split()[0]
    direction = spec.split("dir=")[1] if "dir=" in spec else "*"
    assert first[:2] == SCHEDULE[spec]
    assert after_first["events"] == [FaultEvent(kind, SITE, ROUND, direction)]
    assert first[2] == (0.01 if kind == "straggle" else 0.0)
    # The rule's budget is spent and the drain left nothing stale behind
    # (over TCP: no held message, and a site that keeps nothing between
    # requests): the retry is the clean leg.
    assert second == REFERENCE
    assert final["events"] == after_first["events"]
    if kind == "duplicate":
        assert final["fault_counters"][
            "net.fault.deduplicated{site=s0}"
        ] == 1
    if kind in ("drop", "duplicate"):
        charged = final["fault_counters"][f"net.fault.bytes{{kind={kind},site=s0}}"]
        assert charged > HEADER_BYTES


def test_an_unreachable_site_consumes_no_rule_and_records_nothing(server):
    with socket.socket() as placeholder:
        placeholder.bind(("127.0.0.1", 0))
        dead_address = placeholder.getsockname()
    channel = SocketChannel(
        SITE, dead_address, faults=FaultPlan.parse("drop site=s0 dir=down")
    )
    message = Message.with_relation(SHIP_BASE, "coordinator", SITE, ROUND, BASE)
    with pytest.raises(SiteUnavailableError):
        channel.send_to_site(message)
    assert channel.events == []
    assert (channel.downstream.bytes, channel.downstream.messages) == (0, 0)
    assert set(channel.socket_totals().values()) == {0}
    # The rule is still there for the attempt that does get through.
    channel.address = (server.host, server.port)
    try:
        channel.send_to_site(message)
        assert channel.events == [FaultEvent("drop", SITE, ROUND, "down")]
        assert channel.downstream.bytes == message.size_bytes
    finally:
        channel.close()


def test_an_abandoned_ask_reports_what_upstream_recorded():
    """A site that stalls before its REPLY is abandoned. A reply is one
    frame, recorded whole or not at all: nothing of it was recorded
    upstream, and no payload came up."""
    listener = socket.create_server(("127.0.0.1", 0))
    release = threading.Event()

    def stalling_site():
        conn, _address = listener.accept()
        with conn:
            while True:
                frame_type, _body = read_frame(conn)
                if frame_type == FRAME_HELLO:
                    welcome = {"site_id": "s0", "protocol": bodies.PROTOCOL_VERSION}
                    write_frame(conn, FRAME_WELCOME, json.dumps(welcome).encode())
                elif frame_type == FRAME_REQ:
                    release.wait(timeout=10)
                    return

    class PassedDeadline:
        """A round's speculation deadline, already passed, with one backup."""

        backups = 1

        def abandon_at(self):
            return 0.0 if self.backups else None

        def abandon(self):
            self.backups -= 1
            return 0.5

    thread = threading.Thread(target=stalling_site, daemon=True)
    thread.start()
    channel = SocketChannel(SITE, listener.getsockname()[:2])
    engine = SocketEngine()

    def leg(site_id):
        channel.send_to_site(Message(BASE_QUERY, "coordinator", site_id, ROUND))
        request = SiteRequest(kind="base", site_id=site_id, round_number=ROUND)
        return (yield from engine.evaluate(request, channel))

    try:
        with pytest.raises(LegDeadlineExceeded) as abandoned:
            engine.run_legs([SITE], leg, PassedDeadline())
        assert channel._sock is None  # the REPLY on its way can answer nothing
    finally:
        release.set()
        thread.join(timeout=5)
        channel.close()
        listener.close()
    assert not thread.is_alive()
    assert abandoned.value.deadline_s == 0.5
    assert (channel.upstream.bytes, channel.upstream.messages) == (0, 0)
    assert channel.socket_totals()["payload_up"] == 0
    # The shipment did cross: one header-only message.
    assert channel.socket_totals()["payload_down"] == channel.downstream.bytes == HEADER_BYTES
