"""Typed messages exchanged between the coordinator and Skalla sites.

Each message wraps an optional relation payload (encoded with the wire
codec at send time) plus a small header. Message kinds mirror the steps
of Alg. GMDJDistribEval:

- ``BASE_QUERY`` — coordinator asks sites to compute the base-values query;
- ``BASE_RESULT`` — a site's local base-values tuples;
- ``SHIP_BASE`` — coordinator ships the (possibly reduced) base-result
  structure fragment to a site for the next round;
- ``SUB_RESULT`` — a site's sub-aggregate relation H_i;
- ``FINAL_RESULT`` — reserved for multi-coordinator topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SerializationError
from repro.net import serialize
from repro.relalg.relation import Relation

BASE_QUERY = "base_query"
BASE_RESULT = "base_result"
SHIP_BASE = "ship_base"
SUB_RESULT = "sub_result"
FINAL_RESULT = "final_result"

KINDS = (BASE_QUERY, BASE_RESULT, SHIP_BASE, SUB_RESULT, FINAL_RESULT)

#: Fixed per-message header overhead charged by the simulated transport
#: (kind tag, round number, framing) — a small constant, present so that
#: "many tiny messages" is not free.
HEADER_BYTES = 32


@dataclass(frozen=True)
class Message:
    """One message on a coordinator<->site channel."""

    kind: str
    sender: str
    recipient: str
    round_index: int
    payload: Optional[bytes] = None
    #: Free-form metadata (e.g. the plan fragment id); not charged bytes.
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SerializationError(f"unknown message kind {self.kind!r}")
        if (
            not isinstance(self.round_index, int)
            or isinstance(self.round_index, bool)
            or self.round_index < 0
        ):
            raise SerializationError(
                f"round_index must be a non-negative int, got {self.round_index!r}"
            )
        if self.payload is not None and not isinstance(self.payload, (bytes, bytearray)):
            raise SerializationError(
                f"payload must be bytes or None, got {type(self.payload).__name__}"
            )
        if not self.sender or not self.recipient:
            raise SerializationError(
                f"sender and recipient must be non-empty, got "
                f"{self.sender!r} -> {self.recipient!r}"
            )

    @classmethod
    def with_relation(
        cls,
        kind: str,
        sender: str,
        recipient: str,
        round_index: int,
        relation: Relation,
        info: Optional[dict] = None,
    ) -> "Message":
        payload = serialize.encode_relation(relation)
        return cls(kind, sender, recipient, round_index, payload, info or {})

    @property
    def size_bytes(self) -> int:
        """Bytes charged on the wire: payload plus fixed header."""
        return HEADER_BYTES + (len(self.payload) if self.payload else 0)

    def relation(self) -> Relation:
        """Decode the relation payload."""
        if self.payload is None:
            raise SerializationError(f"{self.kind} message carries no relation")
        return serialize.decode_relation(self.payload)
