"""Execution statistics for distributed GMDJ evaluation.

The paper reports, per experiment: query evaluation time, bytes
transferred, and (Figure 5) a breakdown into site computation time,
coordinator computation time, and communication overhead. This module
collects exactly those quantities:

- bytes and tuples are recorded per round, per site, per direction,
  straight from the channel traffic (real encoded sizes);
- site and coordinator computation are measured CPU seconds of the actual
  local evaluation work;
- communication *time* is modeled from measured bytes with a
  :class:`~repro.net.costmodel.CostModel`.

Response-time composition: within a round, the coordinator fans out to
its children over independent channels, subtrees work in parallel, and
the round ends when the slowest child's reply has been synchronized. So

    edge_time(n) = down_xfer + max over n's children (edge_time)
                   + compute + up_xfer
    round_time   = max over the root's edges (edge_time)
                   + coordinator_compute

With no interior nodes (the flat star) every edge is a site and this is
``max over sites (down_xfer + site_compute + up_xfer)``. The query
evaluation time is the sum over rounds. The Figure-5-style
breakdown attributes ``max(down + up)`` to communication and the
parallel-critical-path site compute to site computation; the breakdown is
additive and differs from the exact critical path by at most the
round-internal overlap, which we accept for reporting simplicity (both
are exposed).

:func:`theorem2_bound` implements the paper's Theorem 2 traffic bound,
checked by tests and benchmarks on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.net.costmodel import CostModel, WAN


@dataclass
class SiteRoundStats:
    """One edge's activity within one round: a site, or — under a merge
    tree — a combiner, keyed by the node at the edge's lower end."""

    bytes_down: int = 0  # parent -> node
    bytes_up: int = 0  # node -> parent
    tuples_down: int = 0
    tuples_up: int = 0
    compute_s: float = 0.0
    #: Leg re-runs the recovery layer performed for this site this round.
    retries: int = 0
    #: Down-bytes charged by leg attempts that a speculative deadline
    #: abandoned. They crossed the wire (the channel and the socket
    #: transport both counted them) but did not contribute to the result
    #: — the winning attempt's shipment stays in ``bytes_down``, the
    #: loser's moves here, so ``bytes_down + speculative_bytes_down``
    #: reconciles with both bookkeepers. An abandoned attempt's reply is
    #: recorded whole or not at all, so it has no up-side bucket.
    speculative_bytes_down: int = 0
    #: Attempts abandoned by the speculative deadline this round.
    speculative_attempts: int = 0
    #: True when a backup attempt (raced after an abandonment) produced
    #: this site's result for the round.
    speculation_won: bool = False


@dataclass
class RoundStats:
    """One round of Alg. GMDJDistribEval."""

    index: int
    kind: str  # "base", "md", "chain"
    description: str = ""
    sites: dict = field(default_factory=dict)  # site_id -> SiteRoundStats
    #: Merge-tree shape below the root: combiner name -> child names,
    #: each child again a key of ``sites``. Empty for the flat star.
    children: dict = field(default_factory=dict)
    coordinator_compute_s: float = 0.0
    #: Measured wall-clock of the whole round (set by the evaluator).
    #: Under a parallel executor this is what actually elapsed, to be
    #: compared against the modeled max-over-sites critical path.
    wall_s: float = 0.0
    #: Sites excluded from this round by ``degrade`` mode (the round
    #: completed *without* their sub-results — a correctness caveat).
    excluded: list = field(default_factory=list)

    def exclude(self, site_id: str) -> None:
        """Record a degrade-mode exclusion (idempotent, thread-safe via GIL)."""
        if site_id not in self.excluded:
            self.excluded.append(site_id)

    def site(self, site_id: str) -> SiteRoundStats:
        stats = self.sites.get(site_id)
        if stats is None:
            stats = SiteRoundStats()
            self.sites[site_id] = stats
        return stats

    # -- per-round aggregates ------------------------------------------------

    @property
    def bytes_down(self) -> int:
        return sum(stats.bytes_down for stats in self.sites.values())

    @property
    def bytes_up(self) -> int:
        return sum(stats.bytes_up for stats in self.sites.values())

    @property
    def bytes_total(self) -> int:
        return self.bytes_down + self.bytes_up

    @property
    def tuples_down(self) -> int:
        return sum(stats.tuples_down for stats in self.sites.values())

    @property
    def tuples_up(self) -> int:
        return sum(stats.tuples_up for stats in self.sites.values())

    @property
    def tuples_total(self) -> int:
        return self.tuples_down + self.tuples_up

    @property
    def retries(self) -> int:
        return sum(stats.retries for stats in self.sites.values())

    @property
    def speculative_bytes_down(self) -> int:
        return sum(stats.speculative_bytes_down for stats in self.sites.values())

    @property
    def speculative_attempts(self) -> int:
        return sum(stats.speculative_attempts for stats in self.sites.values())

    def site_compute_critical_s(self) -> float:
        """Critical-path site compute: the slowest site (parallel sites)."""
        if not self.sites:
            return 0.0
        return max(stats.compute_s for stats in self.sites.values())

    def communication_s(self, model: CostModel) -> float:
        """Modeled communication time of the round (slowest channel)."""
        if not self.sites:
            return 0.0
        times = []
        for stats in self.sites.values():
            down = model.transfer_time(stats.bytes_down) if stats.bytes_down else 0.0
            up = model.transfer_time(stats.bytes_up) if stats.bytes_up else 0.0
            times.append(down + up)
        return max(times)

    def root_edges(self) -> list:
        """The edges into the root: every entry no combiner lists as a child."""
        nested = {name for names in self.children.values() for name in names}
        return [name for name in self.sites if name not in nested]

    @property
    def root_link_bytes(self) -> int:
        """Traffic crossing the root's own link (all of it, for a star)."""
        return sum(
            self.sites[name].bytes_down + self.sites[name].bytes_up
            for name in self.root_edges()
        )

    def response_time_s(self, model: CostModel) -> float:
        """Exact round critical path (overlapping compute and transfers)."""

        def edge_time(name: str) -> float:
            stats = self.sites.get(name)
            if stats is None:  # that subtree sat this round out
                return 0.0
            down = model.transfer_time(stats.bytes_down) if stats.bytes_down else 0.0
            up = model.transfer_time(stats.bytes_up) if stats.bytes_up else 0.0
            below = max(map(edge_time, self.children.get(name, ())), default=0.0)
            return down + below + stats.compute_s + up

        slowest = max(map(edge_time, self.root_edges()), default=0.0)
        return slowest + self.coordinator_compute_s


@dataclass
class ExecutionStats:
    """Statistics of one distributed query evaluation."""

    rounds: list = field(default_factory=list)
    #: Which site-execution engine produced these numbers.
    executor: str = "serial"
    #: Which merge topology moved the bytes: ``"flat"`` (coordinator
    #: star), ``"hierarchical:R"`` (R two-level regions) or ``"chain:F"``
    #: (fanout-F combiner tree), as labelled by the topology scheduler;
    #: a plain ``execute_plan(tree=...)`` run reports ``tree:<depth>``.
    topology: str = "flat"
    #: The cost model the run was planned under (set by the scheduler),
    #: so a no-argument ``response_time_s()`` reports with the model the
    #: planner priced with instead of silently assuming WAN.
    model: Optional[CostModel] = None
    #: Which failure mode governed the run (``fail_fast | retry | degrade``).
    failure_mode: str = "fail_fast"
    #: Injected faults observed on the wire, as
    #: :class:`~repro.net.faults.FaultEvent` entries (recorded by the
    #: evaluator from ``Network.fault_events()`` after the run).
    faults: list = field(default_factory=list)
    #: Service-assigned query identity (threaded from
    #: :meth:`~repro.service.service.QueryService.submit`); None for
    #: standalone runs.
    query_id: object = None
    #: How the bytes actually moved: ``"memory"`` (simulated in-process
    #: queues) or ``"sockets"`` (real TCP to site-server processes).
    transport: str = "memory"
    #: Measured MSG-body bytes on the real wire per direction (equal to
    #: the modeled ``DirectionStats`` bytes on a clean run — the byte
    #: parity this repo's deployment mode is built around).
    socket_bytes_down: int = 0
    socket_bytes_up: int = 0
    #: Transport overhead the simulation does not model: frame prefixes
    #: plus whole control frames (handshakes, requests, replies). It is the
    #: sum of the three after it: the 5-byte frame headers, what else went
    #: down (REQ controls, control frames) and up (REPLY metas, the rest).
    socket_framing_bytes: int = 0
    socket_header_bytes: int = 0
    socket_control_bytes: int = 0
    socket_meta_bytes: int = 0
    socket_frames: int = 0
    socket_reconnects: int = 0
    #: Per-site clock estimates from the pre-query PING sync (socket
    #: transport only): ``{site_id: {"offset_s": ..., "rtt_s": ...}}``.
    clock_offsets: dict = field(default_factory=dict)

    def new_round(self, number: int, kind: str, description: str = "") -> RoundStats:
        """Record round ``number`` as the plan numbers it (the base 0)."""
        stats = RoundStats(index=number, kind=kind, description=description)
        self.rounds.append(stats)
        return stats

    def record_faults(self, events) -> None:
        """Attach the network's injected-fault log to these stats."""
        self.faults = list(events)

    def record_clocks(self, clock_map) -> None:
        """Attach a :class:`~repro.obs.skew.ClockMap`'s estimates."""
        if clock_map is not None and len(clock_map):
            self.clock_offsets = clock_map.to_dict()

    def record_transport(self, network) -> None:
        """Attach the network's measured wire accounting, if it has any.

        Duck-typed on ``socket_totals`` so simulated networks (no real
        wire) leave the defaults — ``transport`` stays ``"memory"``.
        """
        totals = getattr(network, "socket_totals", None)
        if totals is None:
            return
        snapshot = totals()
        self.transport = getattr(network, "transport", "sockets")
        self.socket_bytes_down = snapshot.get("payload_down", 0)
        self.socket_bytes_up = snapshot.get("payload_up", 0)
        self.socket_framing_bytes = snapshot.get("framing", 0)
        self.socket_header_bytes = snapshot.get("headers", 0)
        self.socket_control_bytes = snapshot.get("control", 0)
        self.socket_meta_bytes = snapshot.get("meta", 0)
        self.socket_frames = snapshot.get("frames", 0)
        self.socket_reconnects = snapshot.get("reconnects", 0)

    def socket_parity(self) -> bool:
        """Measured socket payload bytes == modeled DirectionStats bytes.

        Only meaningful for socket runs; always True in memory transport.
        Abandoned speculative attempts' shipments still crossed the wire,
        so the modeled down side is ``bytes_down + speculative_bytes_down``.
        On a faulted run that lost a connection mid-transmit the measured
        side may fall short of the modeled side (partial frames are not
        counted), so callers gate hard assertions on clean runs.
        """
        if self.transport != "sockets":
            return True
        return (
            self.socket_bytes_down
            == self.bytes_down + self.speculative_bytes_down
            and self.socket_bytes_up == self.bytes_up
        )

    def transport_summary(self) -> str:
        """Human-readable byte-reconciliation lines for socket runs."""
        parity = (
            "matches modeled DirectionStats exactly"
            if self.socket_parity()
            else (
                f"modeled down={self.bytes_down + self.speculative_bytes_down}B "
                f"up={self.bytes_up}B "
                "(divergence: partial transmit or mid-run attach)"
            )
        )
        lines = [
            f"transport [sockets]: measured payload "
            f"down={self.socket_bytes_down}B up={self.socket_bytes_up}B "
            f"— {parity}",
            f"framing overhead: +{self.socket_framing_bytes}B "
            f"(headers {self.socket_header_bytes}B, "
            f"control {self.socket_control_bytes}B, "
            f"meta {self.socket_meta_bytes}B; {self.socket_frames} frames, "
            f"{self.socket_reconnects} reconnects) — "
            "excluded from modeled bytes",
        ]
        return "\n".join(lines)

    # -- recovery ----------------------------------------------------------------

    @property
    def retries(self) -> int:
        """Leg re-runs performed across all rounds."""
        return sum(stats.retries for stats in self.rounds)

    @property
    def speculative_bytes_down(self) -> int:
        """Down-bytes of abandoned speculative attempts, all rounds."""
        return sum(stats.speculative_bytes_down for stats in self.rounds)

    @property
    def speculative_legs(self) -> int:
        """(round, site) legs where the speculative deadline fired."""
        return sum(
            1
            for round_stats in self.rounds
            for site in round_stats.sites.values()
            if site.speculative_attempts > 0
        )

    @property
    def speculation_wins(self) -> int:
        """(round, site) legs whose result came from a backup attempt."""
        return sum(
            1
            for round_stats in self.rounds
            for site in round_stats.sites.values()
            if site.speculation_won
        )

    @property
    def excluded_sites(self) -> tuple:
        """Every (round index, site id) excluded by ``degrade`` mode."""
        return tuple(
            (stats.index, site_id)
            for stats in self.rounds
            for site_id in stats.excluded
        )

    @property
    def degraded(self) -> bool:
        """True when any round completed without one of its sites —
        i.e. the result is an under-approximation, not the exact answer."""
        return any(stats.excluded for stats in self.rounds)

    @property
    def fault_count(self) -> int:
        return len(self.faults)

    # -- totals -------------------------------------------------------------------

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def bytes_total(self) -> int:
        return sum(stats.bytes_total for stats in self.rounds)

    @property
    def bytes_down(self) -> int:
        return sum(stats.bytes_down for stats in self.rounds)

    @property
    def bytes_up(self) -> int:
        return sum(stats.bytes_up for stats in self.rounds)

    @property
    def tuples_total(self) -> int:
        return sum(stats.tuples_total for stats in self.rounds)

    @property
    def tuples_down(self) -> int:
        return sum(stats.tuples_down for stats in self.rounds)

    @property
    def tuples_up(self) -> int:
        return sum(stats.tuples_up for stats in self.rounds)

    def tuples_up_md(self) -> int:
        """Up-shipped tuples in MD/chain rounds only (base round excluded)."""
        return sum(stats.tuples_up for stats in self.rounds if stats.kind != "base")

    def md_round_count(self) -> int:
        return sum(1 for stats in self.rounds if stats.kind != "base")

    def site_compute_s(self) -> float:
        """Critical-path site computation summed over rounds."""
        return sum(stats.site_compute_critical_s() for stats in self.rounds)

    def site_compute_total_s(self) -> float:
        """Total site CPU (all sites, all rounds) — the cluster-wide work."""
        return sum(
            site.compute_s
            for round_stats in self.rounds
            for site in round_stats.sites.values()
        )

    def coordinator_compute_s(self) -> float:
        return sum(stats.coordinator_compute_s for stats in self.rounds)

    def wall_time_s(self) -> float:
        """Measured wall-clock summed over rounds (0.0 if never measured).

        With ``executor="serial"`` this tracks ``site_compute_total_s()
        + coordinator_compute_s()``; with a parallel executor it should
        approach ``site_compute_s() + coordinator_compute_s()`` — the
        modeled max-over-sites critical path — as cores allow.
        """
        return sum(stats.wall_s for stats in self.rounds)

    def communication_s(self, model: CostModel) -> float:
        return sum(stats.communication_s(model) for stats in self.rounds)

    @property
    def root_link_bytes(self) -> int:
        return sum(stats.root_link_bytes for stats in self.rounds)

    def response_time_s(self, model: Optional[CostModel] = None) -> float:
        """Exact per-round critical path, summed over rounds."""
        model = model or self.model or WAN
        return sum(stats.response_time_s(model) for stats in self.rounds)

    def breakdown(self, model: CostModel) -> dict:
        """Additive Figure-5-style breakdown of evaluation time."""
        site = self.site_compute_s()
        coordinator = self.coordinator_compute_s()
        communication = self.communication_s(model)
        return {
            "site_compute_s": site,
            "site_compute_total_s": self.site_compute_total_s(),
            "coordinator_compute_s": coordinator,
            "communication_s": communication,
            "wall_s": self.wall_time_s(),
            "executor": self.executor,
            "total_s": site + coordinator + communication,
        }

    def overlap_tolerance_s(self, model: CostModel) -> float:
        """The documented bound on breakdown-vs-critical-path divergence.

        Per round the additive breakdown charges ``max_i(down_i + up_i)
        + max_i(compute_i)`` where the exact critical path takes
        ``max_i(down_i + compute_i + up_i)``; the exact path is at least
        the larger of the two maxima, so the additive total exceeds it by
        at most the *smaller* — the round-internal overlap. Summed over
        rounds this bounds ``breakdown(model)["total_s"] -
        response_time_s(model)`` from above (and 0 bounds it from below).
        """
        return sum(
            min(stats.communication_s(model), stats.site_compute_critical_s())
            for stats in self.rounds
        )

    def to_dict(self, model: CostModel = None) -> dict:
        """A JSON-serializable snapshot for dashboards and tooling.

        Includes the time breakdown when a cost model is given.
        """
        snapshot = {
            "executor": self.executor,
            "topology": self.topology,
            "failure_mode": self.failure_mode,
            "rounds": [
                {
                    "index": round_stats.index,
                    "kind": round_stats.kind,
                    "description": round_stats.description,
                    "coordinator_compute_s": round_stats.coordinator_compute_s,
                    "wall_s": round_stats.wall_s,
                    "excluded": list(round_stats.excluded),
                    "sites": {
                        site_id: {
                            "bytes_down": site.bytes_down,
                            "bytes_up": site.bytes_up,
                            "tuples_down": site.tuples_down,
                            "tuples_up": site.tuples_up,
                            "compute_s": site.compute_s,
                            "retries": site.retries,
                            **(
                                {
                                    "speculative_bytes_down": site.speculative_bytes_down,
                                    "speculative_attempts": site.speculative_attempts,
                                    "speculation_won": site.speculation_won,
                                }
                                if site.speculative_attempts
                                else {}
                            ),
                        }
                        for site_id, site in round_stats.sites.items()
                    },
                }
                for round_stats in self.rounds
            ],
            "retries": self.retries,
            "speculative_legs": self.speculative_legs,
            "speculation_wins": self.speculation_wins,
            "speculative_bytes_down": self.speculative_bytes_down,
            "excluded_sites": [list(entry) for entry in self.excluded_sites],
            "faults": [
                {
                    "kind": event.kind,
                    "site": event.site,
                    "round": event.round_index,
                    "direction": event.direction,
                }
                for event in self.faults
            ],
            "bytes_total": self.bytes_total,
            "bytes_down": self.bytes_down,
            "bytes_up": self.bytes_up,
            "tuples_total": self.tuples_total,
            "site_compute_s": self.site_compute_s(),
            "site_compute_total_s": self.site_compute_total_s(),
            "coordinator_compute_s": self.coordinator_compute_s(),
            "wall_s": self.wall_time_s(),
        }
        snapshot["transport"] = self.transport
        if self.transport == "sockets":
            snapshot["socket"] = {
                "bytes_down": self.socket_bytes_down,
                "bytes_up": self.socket_bytes_up,
                "framing_bytes": self.socket_framing_bytes,
                "header_bytes": self.socket_header_bytes,
                "control_bytes": self.socket_control_bytes,
                "meta_bytes": self.socket_meta_bytes,
                "frames": self.socket_frames,
                "reconnects": self.socket_reconnects,
                "parity": self.socket_parity(),
            }
        if self.clock_offsets:
            snapshot["clock_offsets"] = dict(self.clock_offsets)
        if self.query_id is not None:
            snapshot["query_id"] = self.query_id
        if model is not None:
            snapshot["breakdown"] = self.breakdown(model)
        return snapshot

    def summary(self) -> str:
        lines = [
            f"rounds: {self.round_count} (executor: {self.executor}, "
            f"topology: {self.topology})",
            f"bytes: total={self.bytes_total} down={self.bytes_down} up={self.bytes_up}",
        ]
        if self.speculative_legs:
            lines.append(
                f"speculation: legs={self.speculative_legs} "
                f"wins={self.speculation_wins} "
                f"abandoned bytes down={self.speculative_bytes_down}"
            )
        if self.transport == "sockets":
            lines.extend(self.transport_summary().splitlines())
        if self.clock_offsets:
            worst = max(
                abs(sample["offset_s"]) for sample in self.clock_offsets.values()
            )
            lines.append(
                f"clock sync: {len(self.clock_offsets)} site(s), "
                f"max |offset|={worst * 1000:.3f}ms — site spans skew-corrected"
            )
        lines += [
            f"tuples shipped: {self.tuples_total}",
            f"site compute (critical path): {self.site_compute_s():.4f}s",
            f"site compute (all sites): {self.site_compute_total_s():.4f}s",
            f"coordinator compute: {self.coordinator_compute_s():.4f}s",
            f"wall clock: {self.wall_time_s():.4f}s",
        ]
        if self.faults or self.retries or self.degraded:
            lines.append(
                f"recovery [{self.failure_mode}]: faults={self.fault_count} "
                f"retries={self.retries} "
                f"excluded={len(self.excluded_sites)}"
            )
        for round_stats in self.rounds:
            line = (
                f"  round {round_stats.index} [{round_stats.kind}] "
                f"{round_stats.description}: "
                f"down={round_stats.bytes_down}B up={round_stats.bytes_up}B "
                f"sites={len(round_stats.sites)}"
            )
            if round_stats.excluded:
                line += f" EXCLUDED={','.join(round_stats.excluded)}"
            lines.append(line)
        return "\n".join(lines)


def verify_against_network(stats: ExecutionStats, network) -> list:
    """Cross-check measured stats against the channels' own accounting.

    The evaluator attributes bytes to rounds/sites as it sends; the
    channels count the same traffic independently (per direction, via
    :meth:`~repro.net.channel.DirectionStats.bytes_in_round`). Returns a
    list of human-readable mismatch descriptions — empty when the two
    bookkeepers agree, which the ``repro trace`` timeline relies on.
    """
    problems = []
    down = sum(
        network.channel(site_id).downstream.bytes for site_id in network.site_ids
    )
    up = sum(
        network.channel(site_id).upstream.bytes for site_id in network.site_ids
    )
    # The network owns the site edges only; under a merge tree the
    # combiners' edges are in-memory channels of the run and stay out.
    site_edges = [
        round_stats.sites[site_id]
        for round_stats in stats.rounds
        for site_id in network.site_ids
        if site_id in round_stats.sites
    ]
    # The channels count abandoned speculative attempts' shipments too (the
    # traffic really moved), so the stats side adds its speculative bucket back.
    stats_down = sum(
        edge.bytes_down + edge.speculative_bytes_down for edge in site_edges
    )
    stats_up = sum(edge.bytes_up for edge in site_edges)
    if stats_down != down:
        problems.append(f"bytes_down: stats={stats_down} network={down}")
    if stats_up != up:
        problems.append(f"bytes_up: stats={stats_up} network={up}")
    for site_id in network.site_ids:
        channel = network.channel(site_id)
        stats_total = sum(
            site.bytes_down + site.bytes_up + site.speculative_bytes_down
            for round_stats in stats.rounds
            for observed_id, site in round_stats.sites.items()
            if observed_id == site_id
        )
        wire_total = sum(
            channel.downstream.bytes_in_round(index)
            + channel.upstream.bytes_in_round(index)
            for index in channel.downstream.by_round | channel.upstream.by_round
        )
        if stats_total != wire_total:
            problems.append(
                f"site {site_id}: stats={stats_total} network={wire_total}"
            )
    return problems


def theorem2_bound(
    result_tuples: int, base_sites: int, round_sites: Sequence[int]
) -> int:
    """Theorem 2's bound on *tuples* transferred.

    ``result_tuples`` is |Q| (the result size), ``base_sites`` is s_0 and
    ``round_sites`` are s_1..s_m. The bound is
    ``sum_i (2 * s_i * |Q|) + s_0 * |Q|``, independent of the detail
    relation size.
    """
    total = base_sites * result_tuples
    for sites in round_sites:
        total += 2 * sites * result_tuples
    return total


def check_theorem2(
    stats: ExecutionStats,
    result_tuples: int,
    base_sites: int,
    round_sites: Sequence[int],
) -> bool:
    """True when the observed tuple traffic respects Theorem 2's bound."""
    return stats.tuples_total <= theorem2_bound(result_tuples, base_sites, round_sites)
