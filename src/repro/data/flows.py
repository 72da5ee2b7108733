"""Synthetic IP-flow data matching the paper's motivating application.

Section 2.1 models flow records dumped by NetFlow-enabled routers:

    Flow(RouterId, SourceIP, SourcePort, SourceMask, SourceAS,
         DestIP, DestPort, DestMask, DestAS,
         StartTime, EndTime, NumPackets, NumBytes)

Flows generated by a router are stored at the warehouse adjacent to it,
so **RouterId is the partition attribute**. The generator additionally
pins each source autonomous system to one router (the assumption of the
paper's Examples 2 and 5), making **SourceAS a partition attribute too**
— toggleable with ``as_pinned_to_router=False`` to study the
no-knowledge case.

Traffic volumes are heavy-tailed (Zipf-like over a lognormal body), web
ports dominate, and timestamps cover a configurable number of hours —
enough structure for the example analyses ("fraction of flows due to Web
traffic per hour", Example 1's special-traffic query) to be interesting.

The relation is born as columns: the generator's numpy arrays are held
as they are (INT as ``int64``, FLOAT as ``float64``, the rule of
:func:`~repro.relalg.columnar.held_column`) and the address strings as
value lists. No row tuple is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WarehouseError
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, STR, Schema
from repro.warehouse.partition import ValueListPartitioner

FLOW_SCHEMA = Schema.of(
    ("RouterId", INT),
    ("SourceIP", STR),
    ("SourcePort", INT),
    ("SourceMask", INT),
    ("SourceAS", INT),
    ("DestIP", STR),
    ("DestPort", INT),
    ("DestMask", INT),
    ("DestAS", INT),
    ("StartTime", INT),
    ("EndTime", INT),
    ("NumPackets", INT),
    ("NumBytes", FLOAT),
)

WEB_PORTS = (80, 443, 8080)


@dataclass(frozen=True)
class FlowConfig:
    """Knobs for the synthetic flow trace."""

    flow_count: int = 5_000
    router_count: int = 8
    source_as_count: int = 64
    dest_as_count: int = 32
    hours: int = 24
    seed: int = 11
    #: When True, every SourceAS routes through exactly one router
    #: (SourceAS becomes a partition attribute, per Examples 2/5).
    as_pinned_to_router: bool = True
    #: Fraction of flows on web ports.
    web_fraction: float = 0.6


def generate_flows(config: FlowConfig = FlowConfig()) -> Relation:
    """Generate a deterministic synthetic flow trace."""
    if config.flow_count < 1:
        raise WarehouseError("flow_count must be at least 1")
    if config.router_count < 1:
        raise WarehouseError("router_count must be at least 1")
    rng = np.random.default_rng(config.seed)
    count = config.flow_count

    source_as = rng.integers(0, config.source_as_count, size=count)
    if config.as_pinned_to_router:
        routers = source_as % config.router_count
    else:
        routers = rng.integers(0, config.router_count, size=count)
    dest_as = rng.integers(0, config.dest_as_count, size=count)

    web = rng.random(size=count) < config.web_fraction
    ports = np.where(
        web,
        rng.choice(WEB_PORTS, size=count),
        rng.integers(1024, 65536, size=count),
    )
    source_ports = rng.integers(1024, 65536, size=count)

    start = rng.integers(0, config.hours * 3600, size=count)
    duration = rng.integers(1, 600, size=count)

    packets = np.maximum(1, rng.lognormal(mean=3.0, sigma=1.4, size=count)).astype(int)
    bytes_per_packet = rng.integers(40, 1500, size=count)
    num_bytes = (packets * bytes_per_packet).astype(float)

    source_hosts = rng.integers(1, 255, size=count)
    dest_hosts = rng.integers(1, 255, size=count)

    masks = np.full(count, 24, dtype=np.int64)
    source_ips = [
        f"10.{s_as % 256}.{(s_as * 7) % 256}.{host}"
        for s_as, host in zip(source_as.tolist(), source_hosts.tolist())
    ]
    dest_ips = [
        f"172.16.{d_as % 256}.{host}" for d_as, host in zip(dest_as.tolist(), dest_hosts.tolist())
    ]
    columns = [
        routers,
        source_ips,
        source_ports,
        masks,
        source_as,
        dest_ips,
        ports,
        masks,
        dest_as,
        start,
        start + duration,
        packets,
        num_bytes,
    ]
    return Relation.of_columns(FLOW_SCHEMA, columns, count)


def router_partitioner(config: FlowConfig) -> ValueListPartitioner:
    """Partition flows by the router that captured them (RouterId)."""
    return ValueListPartitioner.spread(
        "RouterId", range(config.router_count), config.router_count
    )
