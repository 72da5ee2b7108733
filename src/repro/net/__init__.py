"""``repro.net`` — the simulated network substrate.

Relations shipped between Skalla sites and the coordinator are really
encoded with a binary codec (:mod:`~repro.net.serialize`), moved over
per-site channels with byte accounting (:mod:`~repro.net.channel`), and
priced by an affine latency/bandwidth cost model
(:mod:`~repro.net.costmodel`).
"""

from repro.net.channel import Channel, DirectionStats, Network
from repro.net.costmodel import FREE, LAN, WAN, CostModel
from repro.net.message import (
    BASE_QUERY,
    BASE_RESULT,
    FINAL_RESULT,
    HEADER_BYTES,
    SHIP_BASE,
    SUB_RESULT,
    Message,
)
from repro.net.serialize import decode_relation, encode_relation

__all__ = [
    "BASE_QUERY",
    "BASE_RESULT",
    "Channel",
    "CostModel",
    "DirectionStats",
    "FINAL_RESULT",
    "FREE",
    "HEADER_BYTES",
    "LAN",
    "Message",
    "Network",
    "SHIP_BASE",
    "SUB_RESULT",
    "WAN",
    "decode_relation",
    "encode_relation",
]
