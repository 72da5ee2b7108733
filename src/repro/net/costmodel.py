"""Communication cost model for the simulated distributed warehouse.

The paper measures wall-clock response time on a real deployment; here
sites run in-process, so communication time is *modeled* from measured
bytes while computation time is *measured* CPU time of the actual local
evaluation. The model is the standard latency/bandwidth affine model:

    transfer_time(bytes) = latency + bytes / bandwidth

Defaults approximate the paper's setting — a wide-area network between
collection points, where communication is expensive relative to a LAN or
a parallel machine (Section 1.2 stresses this difference from Shatdal &
Naughton's parallel setting).

The coordinator talks to sites over independent channels: messages to
*different* sites in the same round overlap (the round's communication
time is the maximum over sites), while messages on the *same* channel
serialize. :class:`CostModel` only prices a single transfer;
aggregation across sites/rounds happens in the evaluator's ``stats`` module.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Affine latency/bandwidth pricing of one transfer."""

    #: One-way message latency in seconds.
    latency_s: float = 0.01
    #: Effective channel bandwidth in bytes/second (default ~10 Mbit/s,
    #: a high-end WAN link for the paper's era).
    bandwidth_bytes_per_s: float = 1.25e6

    def __post_init__(self):
        if self.latency_s < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency_s}")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {self.bandwidth_bytes_per_s}"
            )

    def transfer_time(self, size_bytes: int) -> float:
        """Seconds to move ``size_bytes`` over one channel."""
        return self.latency_s + size_bytes / self.bandwidth_bytes_per_s


#: The paper's setting: distributed warehouse over a WAN.
WAN = CostModel(latency_s=0.05, bandwidth_bytes_per_s=1.25e6)

#: A LAN setting (cheap communication) for contrast experiments.
LAN = CostModel(latency_s=0.0005, bandwidth_bytes_per_s=1.25e8)

#: Free communication (isolates computation effects).
FREE = CostModel(latency_s=0.0, bandwidth_bytes_per_s=float("inf"))
