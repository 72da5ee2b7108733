"""Unit tests for messages, channels and the cost model."""

import ast
import pathlib

import pytest

import repro.net

from repro.errors import NetworkError, SerializationError
from repro.net.channel import Channel, Network
from repro.net.costmodel import FREE, LAN, WAN, CostModel
from repro.net.message import (
    BASE_QUERY,
    HEADER_BYTES,
    SHIP_BASE,
    SUB_RESULT,
    Message,
)
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema

RELATION = Relation(Schema.of(("k", INT),), [(1,), (2,)])


class TestMessage:
    def test_header_only_size(self):
        message = Message(BASE_QUERY, "coordinator", "site0", 0)
        assert message.size_bytes == HEADER_BYTES

    def test_with_relation_round_trips(self):
        message = Message.with_relation(SHIP_BASE, "coordinator", "site0", 1, RELATION)
        assert message.size_bytes > HEADER_BYTES
        assert message.relation().same_rows(RELATION)

    def test_unknown_kind(self):
        with pytest.raises(SerializationError):
            Message("gossip", "a", "b", 0)

    def test_relation_on_empty_payload(self):
        with pytest.raises(SerializationError):
            Message(BASE_QUERY, "a", "b", 0).relation()


class TestChannel:
    def test_byte_accounting_by_direction(self):
        channel = Channel("site0")
        down = Message.with_relation(SHIP_BASE, "coordinator", "site0", 1, RELATION)
        channel.send_to_site(down)
        assert channel.downstream.bytes == down.size_bytes
        assert channel.upstream.bytes == 0

        received = channel.receive_at_site()
        assert received is down

        up = Message.with_relation(SUB_RESULT, "site0", "coordinator", 1, RELATION)
        channel.send_to_coordinator(up)
        assert channel.upstream.bytes == up.size_bytes
        assert channel.total_bytes == down.size_bytes + up.size_bytes

    def test_per_round_accounting(self):
        channel = Channel("site0")
        for round_index in (1, 1, 2):
            channel.send_to_site(
                Message(BASE_QUERY, "coordinator", "site0", round_index)
            )
        assert channel.downstream.by_round[1] == 2 * HEADER_BYTES
        assert channel.downstream.by_round[2] == HEADER_BYTES

    def test_bytes_in_round_accessor(self):
        channel = Channel("site0")
        for round_index in (1, 1, 2):
            channel.send_to_site(
                Message(BASE_QUERY, "coordinator", "site0", round_index)
            )
        assert channel.downstream.bytes_in_round(1) == 2 * HEADER_BYTES
        assert channel.downstream.bytes_in_round(2) == HEADER_BYTES
        assert channel.downstream.bytes_in_round(99) == 0
        assert channel.upstream.bytes_in_round(1) == 0
        assert channel.downstream.by_round == {
            1: 2 * HEADER_BYTES, 2: HEADER_BYTES
        }

    def test_accounting_lands_in_shared_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        channel = Channel("site0", metrics=registry)
        down = Message.with_relation(SHIP_BASE, "coordinator", "site0", 1, RELATION)
        channel.send_to_site(down)
        assert (
            registry.value_of("net.bytes", direction="down", site="site0")
            == down.size_bytes
        )
        assert registry.value_of("net.messages", direction="down", site="site0") == 1
        assert (
            registry.value_of(
                "net.round.bytes", direction="down", round=1, site="site0"
            )
            == down.size_bytes
        )
        assert registry.value_of("net.bytes", direction="up", site="site0") == 0

    def test_misaddressed_messages_rejected(self):
        channel = Channel("site0")
        with pytest.raises(NetworkError):
            channel.send_to_site(Message(BASE_QUERY, "coordinator", "site1", 0))
        with pytest.raises(NetworkError):
            channel.send_to_coordinator(Message(SUB_RESULT, "site1", "coordinator", 0))

    def test_receive_empty_raises(self):
        channel = Channel("site0")
        with pytest.raises(NetworkError):
            channel.receive_at_site()
        with pytest.raises(NetworkError):
            channel.receive_at_coordinator()

    def test_fifo_order(self):
        channel = Channel("site0")
        first = Message(BASE_QUERY, "coordinator", "site0", 0)
        second = Message(BASE_QUERY, "coordinator", "site0", 1)
        channel.send_to_site(first)
        channel.send_to_site(second)
        assert channel.receive_at_site() is first
        assert channel.receive_at_site() is second


class TestNetwork:
    def test_channels_per_site(self):
        network = Network(["site0", "site1"])
        assert network.site_ids == ("site0", "site1")
        assert network.channel("site0") is not network.channel("site1")

    def test_unknown_site(self):
        with pytest.raises(NetworkError):
            Network(["site0"]).channel("nope")

    def test_empty_network_rejected(self):
        with pytest.raises(NetworkError):
            Network([])

    def test_totals_and_directions(self):
        network = Network(["site0", "site1"])
        message = Message.with_relation(SHIP_BASE, "coordinator", "site0", 1, RELATION)
        network.channel("site0").send_to_site(message)
        up = Message(SUB_RESULT, "site1", "coordinator", 1)
        network.channel("site1").send_to_coordinator(up)
        down_bytes, up_bytes = network.bytes_by_direction()
        assert down_bytes == message.size_bytes
        assert up_bytes == up.size_bytes
        assert network.total_bytes() == down_bytes + up_bytes

    def test_round_bytes(self):
        network = Network(["site0"])
        network.channel("site0").send_to_site(
            Message(BASE_QUERY, "coordinator", "site0", 2)
        )
        assert network.round_bytes(2) == HEADER_BYTES
        assert network.round_bytes(2, "site0") == HEADER_BYTES
        assert network.round_bytes(1) == 0


class TestCostModel:
    def test_affine_pricing(self):
        model = CostModel(latency_s=0.01, bandwidth_bytes_per_s=1000)
        assert model.transfer_time(0) == pytest.approx(0.01)
        assert model.transfer_time(1000) == pytest.approx(1.01)

    def test_presets_ordering(self):
        size = 10_000
        assert FREE.transfer_time(size) == 0.0
        assert LAN.transfer_time(size) < WAN.transfer_time(size)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(latency_s=-1)
        with pytest.raises(ValueError):
            CostModel(bandwidth_bytes_per_s=0)


def test_the_transport_layer_does_not_import_the_engine_above_it():
    """``repro.net`` moves bytes; who evaluates them is ``repro.distributed``'s."""
    for path in sorted(pathlib.Path(repro.net.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            for name in imported:
                assert not name.startswith("repro.distributed"), (path.name, name)
