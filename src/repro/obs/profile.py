"""EXPLAIN ANALYZE: per-query profiles built from a finished trace.

The paper's Section 4 argues about *where* rounds spend traffic and
time; this module makes one executed query answer that question. A
:class:`QueryProfile` is assembled from the three artifacts a traced run
already produces — the span tree (``query → round →
round.{encode,evaluate,decode,merge}``), the run's ``ExecutionStats``
snapshot, and the optimizer's plan/notes — and attributes:

- **time** per round (measured wall), per site (compute charge plus the
  site-kind operator spans), per operator (span name aggregates);
- **bytes and tuples** per round and per site, straight from the stats
  (the same numbers the channels count independently, so attribution is
  exact by construction);
- **optimization savings**: each optimization the planner applied,
  priced by ablation in :mod:`repro.distributed.costing`
  (:func:`~repro.distributed.costing.estimate_optimization_impacts`) and
  annotated with the run's measured traffic. The impact objects are
  duck-typed here so ``repro.obs`` stays import-free of the distributed
  layer.

Coverage properties make the profiler self-auditing: ``time_coverage``
is the fraction of the root query span's wall time attributed to rounds
(the acceptance bar is >= 0.95) and ``bytes_coverage`` compares
round-attributed bytes to the stats total (always 1.0 unless the trace
is inconsistent).

:func:`render_profile` prints the profile as an ASCII plan tree reusing
the :mod:`repro.obs.timeline` conventions (``<`` down transfer, ``=``
site compute, ``>`` up transfer, ``#`` coordinator merge; same second
and byte formatting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ObservabilityError
from repro.obs.timeline import _fmt_bytes, _fmt_seconds, _segment


@dataclass
class OperatorProfile:
    """One span name aggregated within a round (per site or coordinator)."""

    name: str
    kind: str
    seconds: float = 0.0
    calls: int = 0
    rows: int = 0
    bytes: int = 0

    def absorb(self, span) -> None:
        self.seconds += span.duration_s
        self.calls += 1
        self.rows += int(span.attributes.get("rows", 0) or 0)
        self.bytes += int(span.attributes.get("bytes", 0) or 0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "seconds": self.seconds,
            "calls": self.calls,
            "rows": self.rows,
            "bytes": self.bytes,
        }


@dataclass
class SiteProfile:
    """One site's share of one round."""

    site_id: str
    bytes_down: int = 0
    bytes_up: int = 0
    tuples_down: int = 0
    tuples_up: int = 0
    compute_s: float = 0.0
    retries: int = 0
    operators: List[OperatorProfile] = field(default_factory=list)

    @property
    def bytes_total(self) -> int:
        return self.bytes_down + self.bytes_up

    def to_dict(self) -> dict:
        return {
            "site_id": self.site_id,
            "bytes_down": self.bytes_down,
            "bytes_up": self.bytes_up,
            "tuples_down": self.tuples_down,
            "tuples_up": self.tuples_up,
            "compute_s": self.compute_s,
            "retries": self.retries,
            "operators": [operator.to_dict() for operator in self.operators],
        }


@dataclass
class RoundProfile:
    """One plan node: a base or MD/chain round."""

    index: int
    kind: str
    description: str = ""
    wall_s: float = 0.0
    coordinator_compute_s: float = 0.0
    excluded: List[str] = field(default_factory=list)
    sites: List[SiteProfile] = field(default_factory=list)
    coordinator_operators: List[OperatorProfile] = field(default_factory=list)

    @property
    def bytes_down(self) -> int:
        return sum(site.bytes_down for site in self.sites)

    @property
    def bytes_up(self) -> int:
        return sum(site.bytes_up for site in self.sites)

    @property
    def bytes_total(self) -> int:
        return self.bytes_down + self.bytes_up

    @property
    def tuples_total(self) -> int:
        return sum(site.tuples_down + site.tuples_up for site in self.sites)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "description": self.description,
            "wall_s": self.wall_s,
            "coordinator_compute_s": self.coordinator_compute_s,
            "excluded": list(self.excluded),
            "bytes_down": self.bytes_down,
            "bytes_up": self.bytes_up,
            "sites": [site.to_dict() for site in self.sites],
            "coordinator_operators": [
                operator.to_dict() for operator in self.coordinator_operators
            ],
        }


@dataclass
class QueryProfile:
    """The full EXPLAIN ANALYZE artifact for one executed query."""

    query_id: object = None
    executor: str = "serial"
    failure_mode: str = "fail_fast"
    #: Root ``query`` span duration (0.0 when the run was untraced).
    wall_s: float = 0.0
    rounds: List[RoundProfile] = field(default_factory=list)
    #: Duck-typed :class:`~repro.distributed.costing.OptimizationImpact`s.
    impacts: tuple = ()
    plan_description: str = ""
    notes: tuple = ()
    #: Ground-truth byte total from the stats snapshot.
    stats_bytes_total: int = 0
    #: Merge topology the run executed with ("flat", "hierarchical:R",
    #: "chain:F") — from the stats snapshot.
    topology: str = "flat"
    #: Why the scheduler picked it (empty when the run bypassed the
    #: scheduler and the topology was fixed by the caller).
    topology_reason: str = ""
    #: Response-time saving vs the flat star predicted by the cost model,
    #: and the saving actually measured; ``None`` when unpriced.
    topology_estimated_saving_s: Optional[float] = None
    topology_measured_saving_s: Optional[float] = None
    #: Straggler speculation outcome (stats snapshot totals).
    speculative_legs: int = 0
    speculation_wins: int = 0

    # -- attribution & coverage -------------------------------------------------

    @property
    def attributed_wall_s(self) -> float:
        return sum(round_profile.wall_s for round_profile in self.rounds)

    @property
    def bytes_total(self) -> int:
        return sum(round_profile.bytes_total for round_profile in self.rounds)

    @property
    def tuples_total(self) -> int:
        return sum(round_profile.tuples_total for round_profile in self.rounds)

    def time_coverage(self) -> float:
        """Fraction of traced query wall time attributed to plan nodes."""
        if self.wall_s <= 0:
            return 1.0
        return min(1.0, self.attributed_wall_s / self.wall_s)

    def bytes_coverage(self) -> float:
        """Fraction of the stats byte total attributed to plan nodes."""
        if self.stats_bytes_total <= 0:
            return 1.0
        return self.bytes_total / self.stats_bytes_total

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "executor": self.executor,
            "failure_mode": self.failure_mode,
            "wall_s": self.wall_s,
            "attributed_wall_s": self.attributed_wall_s,
            "time_coverage": self.time_coverage(),
            "bytes_total": self.bytes_total,
            "stats_bytes_total": self.stats_bytes_total,
            "bytes_coverage": self.bytes_coverage(),
            "tuples_total": self.tuples_total,
            "rounds": [round_profile.to_dict() for round_profile in self.rounds],
            "optimizations": [impact.to_dict() for impact in self.impacts],
            "plan_description": self.plan_description,
            "notes": list(self.notes),
            "topology": self.topology,
            **(
                {
                    "topology_reason": self.topology_reason,
                    "topology_estimated_saving_s": self.topology_estimated_saving_s,
                    "topology_measured_saving_s": self.topology_measured_saving_s,
                }
                if self.topology_reason
                else {}
            ),
            **(
                {
                    "speculative_legs": self.speculative_legs,
                    "speculation_wins": self.speculation_wins,
                }
                if self.speculative_legs
                else {}
            ),
        }


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _operator_of(registry: dict, order: list, name: str, kind: str) -> OperatorProfile:
    operator = registry.get((name, kind))
    if operator is None:
        operator = OperatorProfile(name=name, kind=kind)
        registry[(name, kind)] = operator
        order.append(operator)
    return operator


def _query_span(spans, query_id):
    candidates = [span for span in spans if span.name == "query"]
    if query_id is not None:
        tagged = [
            span
            for span in candidates
            if span.attributes.get("query_id") == query_id
        ]
        if tagged:
            return tagged[0]
    return candidates[0] if candidates else None


def build_profile(
    spans,
    stats,
    impacts=(),
    plan_description: str = "",
    notes=(),
    query_id=None,
    topology_choice=None,
) -> QueryProfile:
    """Assemble a :class:`QueryProfile` from spans plus an execution-stats
    snapshot (an ``ExecutionStats`` or its ``to_dict()`` form).

    ``spans`` may be a live ``Tracer.spans`` list or
    ``EventLog.spans()``; span-derived operator times enrich the profile
    but the round/site byte, tuple and wall numbers come from the stats,
    so attribution stays exact even with a null tracer.

    ``topology_choice`` is a duck-typed
    :class:`~repro.distributed.scheduler.TopologyChoice` (or its
    ``to_dict()`` form): it supplies the scheduler's reason string and
    the estimated/measured response-time savings vs the flat star.
    """
    if hasattr(stats, "to_dict"):
        stats = stats.to_dict()
    if not isinstance(stats, dict) or "rounds" not in stats:
        raise ObservabilityError(
            "build_profile needs an ExecutionStats or its to_dict() snapshot"
        )
    if query_id is None:
        query_id = stats.get("query_id")

    spans = list(spans or ())
    root = _query_span(spans, query_id)
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    round_spans = {}
    candidates = children.get(root.span_id, spans) if root is not None else spans
    for span in candidates:
        if span.name == "round":
            round_spans[span.attributes.get("index")] = span

    profile = QueryProfile(
        query_id=query_id,
        executor=stats.get("executor", "serial"),
        failure_mode=stats.get("failure_mode", "fail_fast"),
        wall_s=root.duration_s if root is not None else 0.0,
        impacts=tuple(impacts),
        plan_description=plan_description,
        notes=tuple(notes),
        stats_bytes_total=int(stats.get("bytes_total", 0)),
        topology=stats.get("topology", "flat"),
        speculative_legs=int(stats.get("speculative_legs", 0)),
        speculation_wins=int(stats.get("speculation_wins", 0)),
    )
    if topology_choice is not None:
        if hasattr(topology_choice, "to_dict"):
            topology_choice = topology_choice.to_dict()
        profile.topology = topology_choice.get("topology", profile.topology)
        profile.topology_reason = topology_choice.get("reason", "")
        profile.topology_estimated_saving_s = topology_choice.get(
            "estimated_saving_s"
        )
        profile.topology_measured_saving_s = topology_choice.get(
            "measured_saving_s"
        )

    for round_record in stats["rounds"]:
        round_profile = RoundProfile(
            index=round_record["index"],
            kind=round_record["kind"],
            description=round_record.get("description", ""),
            wall_s=round_record.get("wall_s", 0.0),
            coordinator_compute_s=round_record.get("coordinator_compute_s", 0.0),
            excluded=list(round_record.get("excluded", ())),
        )
        site_profiles = {}
        for site_id, site_record in round_record.get("sites", {}).items():
            site_profile = SiteProfile(
                site_id=site_id,
                bytes_down=site_record.get("bytes_down", 0),
                bytes_up=site_record.get("bytes_up", 0),
                tuples_down=site_record.get("tuples_down", 0),
                tuples_up=site_record.get("tuples_up", 0),
                compute_s=site_record.get("compute_s", 0.0),
                retries=site_record.get("retries", 0),
            )
            site_profiles[site_id] = site_profile
            round_profile.sites.append(site_profile)

        round_span = round_spans.get(round_profile.index)
        if round_span is not None:
            if round_profile.wall_s <= 0:
                round_profile.wall_s = round_span.duration_s
            coordinator_registry: dict = {}
            site_registries = {site_id: {} for site_id in site_profiles}
            stack = list(children.get(round_span.span_id, ()))
            while stack:
                span = stack.pop()
                if span.attributes.get("speculative"):
                    # An abandoned speculative attempt: the backup leg
                    # re-recorded the same work, so absorbing this span
                    # (or its subtree) would double-count stage totals.
                    continue
                stack.extend(children.get(span.span_id, ()))
                site_id = span.attributes.get("site")
                if span.kind == "site" and site_id in site_profiles:
                    target = site_profiles[site_id]
                    operator = _operator_of(
                        site_registries[site_id],
                        target.operators,
                        span.name,
                        span.kind,
                    )
                else:
                    operator = _operator_of(
                        coordinator_registry,
                        round_profile.coordinator_operators,
                        span.name,
                        span.kind,
                    )
                operator.absorb(span)
            for operators in [round_profile.coordinator_operators] + [
                site.operators for site in round_profile.sites
            ]:
                operators.sort(key=lambda operator: -operator.seconds)
        profile.rounds.append(round_profile)

    if profile.wall_s <= 0:
        profile.wall_s = profile.attributed_wall_s
    return profile


def profile_from_trace(log, query_id=None) -> QueryProfile:
    """Rebuild a profile from a JSONL trace (:class:`~repro.obs.events.EventLog`).

    With ``query_id`` the log is first filtered to that query's records;
    the log must hold a matching ``stats`` record.
    """
    if query_id is not None:
        log = log.for_query(query_id)
    stats_records = log.records_of("stats")
    if not stats_records:
        raise ObservabilityError(
            "trace has no stats record"
            + (f" for query_id {query_id!r}" if query_id is not None else "")
            + "; profiles need the run's ExecutionStats snapshot"
        )
    plan_description = ""
    notes: tuple = ()
    plan_records = log.records_of("plan")
    if plan_records:
        plan_description = plan_records[-1].get("describe", "")
        notes = tuple(plan_records[-1].get("notes", ()))
    return build_profile(
        log.spans(),
        stats_records[-1],
        plan_description=plan_description,
        notes=notes,
        query_id=query_id,
    )


# ---------------------------------------------------------------------------
# Aggregation over profile dicts (used by ``repro diff``)
# ---------------------------------------------------------------------------


def _profile_dict(profile) -> dict:
    """Accept a :class:`QueryProfile` or its ``to_dict()`` form."""
    if hasattr(profile, "to_dict"):
        profile = profile.to_dict()
    if not isinstance(profile, dict) or "rounds" not in profile:
        raise ObservabilityError(
            "expected a QueryProfile or its to_dict() snapshot"
        )
    return profile


def round_totals(profile) -> dict:
    """``{"round 0 [base]": {"wall_s", "bytes", "tuples"}, ...}``."""
    totals: dict = {}
    for round_record in _profile_dict(profile)["rounds"]:
        key = f"round {round_record['index']} [{round_record['kind']}]"
        sites = round_record.get("sites", ())
        totals[key] = {
            "wall_s": round_record.get("wall_s", 0.0),
            "bytes": round_record.get("bytes_down", 0)
            + round_record.get("bytes_up", 0),
            "tuples": sum(
                site.get("tuples_down", 0) + site.get("tuples_up", 0)
                for site in sites
            ),
        }
    return totals


def site_totals(profile) -> dict:
    """Per-site compute/bytes/tuples summed across all rounds."""
    totals: dict = {}
    for round_record in _profile_dict(profile)["rounds"]:
        for site in round_record.get("sites", ()):
            entry = totals.setdefault(
                site["site_id"],
                {"compute_s": 0.0, "bytes": 0, "tuples": 0, "retries": 0},
            )
            entry["compute_s"] += site.get("compute_s", 0.0)
            entry["bytes"] += site.get("bytes_down", 0) + site.get("bytes_up", 0)
            entry["tuples"] += site.get("tuples_down", 0) + site.get(
                "tuples_up", 0
            )
            entry["retries"] += site.get("retries", 0)
    return totals


def operator_totals(profile) -> dict:
    """Span-name aggregates across all rounds, keyed ``"name [kind]"``."""
    totals: dict = {}

    def _absorb(operator_record: dict) -> None:
        key = f"{operator_record['name']} [{operator_record['kind']}]"
        entry = totals.setdefault(
            key, {"seconds": 0.0, "calls": 0, "rows": 0, "bytes": 0}
        )
        entry["seconds"] += operator_record.get("seconds", 0.0)
        entry["calls"] += operator_record.get("calls", 0)
        entry["rows"] += operator_record.get("rows", 0)
        entry["bytes"] += operator_record.get("bytes", 0)

    for round_record in _profile_dict(profile)["rounds"]:
        for operator_record in round_record.get("coordinator_operators", ()):
            _absorb(operator_record)
        for site in round_record.get("sites", ()):
            for operator_record in site.get("operators", ()):
                _absorb(operator_record)
    return totals


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _format_operators(operators, limit: int = 4) -> str:
    parts = []
    for operator in operators[:limit]:
        part = f"{operator.name} {_fmt_seconds(operator.seconds)} x{operator.calls}"
        if operator.rows:
            part += f" rows={operator.rows}"
        parts.append(part)
    if len(operators) > limit:
        parts.append(f"+{len(operators) - limit} more")
    return "; ".join(parts)


def render_profile(profile: QueryProfile, width: int = 48) -> str:
    """The ASCII plan tree, timeline-style bars included.

    Bar legend matches :func:`~repro.obs.timeline.render_timeline`:
    ``<`` down transfer (here: measured site compute shares the round
    budget, so bars scale site ``compute_s`` against the slowest site),
    ``=`` site compute, ``#`` coordinator compute.
    """
    lines = [
        f"EXPLAIN ANALYZE — {len(profile.rounds)} round(s), "
        f"executor={profile.executor}, failure_mode={profile.failure_mode}"
        + (f", query_id={profile.query_id}" if profile.query_id is not None else "")
    ]
    lines.append(
        f"wall {_fmt_seconds(profile.wall_s)}; attributed to plan nodes "
        f"{_fmt_seconds(profile.attributed_wall_s)} "
        f"({profile.time_coverage() * 100:.1f}% of traced wall); "
        f"bytes {_fmt_bytes(profile.bytes_total)} of "
        f"{_fmt_bytes(profile.stats_bytes_total)} "
        f"({profile.bytes_coverage() * 100:.1f}%)"
    )
    if profile.topology != "flat" or profile.topology_reason:
        topology_line = f"merge topology [{profile.topology}]"
        if (
            profile.topology != "flat"
            and profile.topology_estimated_saving_s is not None
        ):
            topology_line += (
                f": estimated saving vs flat "
                f"{_fmt_seconds(profile.topology_estimated_saving_s)}"
            )
            if profile.topology_measured_saving_s is not None:
                topology_line += (
                    f", measured {_fmt_seconds(profile.topology_measured_saving_s)}"
                )
        if profile.topology_reason:
            topology_line += f" — {profile.topology_reason}"
        lines.append(topology_line)
    if profile.speculative_legs:
        lines.append(
            f"speculation: {profile.speculative_legs} leg(s) re-executed, "
            f"{profile.speculation_wins} backup win(s)"
        )
    longest = max(
        [site.compute_s for round_profile in profile.rounds
         for site in round_profile.sites]
        + [round_profile.coordinator_compute_s for round_profile in profile.rounds]
        + [0.0]
    )
    scale = (width / longest) if longest > 0 else 0.0

    for round_profile in profile.rounds:
        header = (
            f"+- round {round_profile.index} [{round_profile.kind}] "
            f"{round_profile.description}".rstrip()
        )
        header += (
            f"  wall={_fmt_seconds(round_profile.wall_s)} "
            f"down={_fmt_bytes(round_profile.bytes_down)} "
            f"up={_fmt_bytes(round_profile.bytes_up)}"
        )
        if round_profile.excluded:
            header += f" EXCLUDED={','.join(round_profile.excluded)}"
        lines.append(header)
        label_width = max(
            [len("merge")] + [len(site.site_id) for site in round_profile.sites]
        )
        for site in round_profile.sites:
            bar = _segment("=", site.compute_s, scale)
            lines.append(
                f"|  +- {site.site_id.ljust(label_width)}  {bar.ljust(width)}  "
                f"compute={_fmt_seconds(site.compute_s)} "
                f"down={_fmt_bytes(site.bytes_down)} "
                f"up={_fmt_bytes(site.bytes_up)} "
                f"tuples={site.tuples_down + site.tuples_up}"
                + (f" retries={site.retries}" if site.retries else "")
            )
            if site.operators:
                lines.append(
                    f"|  |     {_format_operators(site.operators)}"
                )
        merge_bar = _segment("#", round_profile.coordinator_compute_s, scale)
        lines.append(
            f"|  +- {'merge'.ljust(label_width)}  {merge_bar.ljust(width)}  "
            f"coordinator={_fmt_seconds(round_profile.coordinator_compute_s)}"
        )
        if round_profile.coordinator_operators:
            lines.append(
                f"|        {_format_operators(round_profile.coordinator_operators)}"
            )

    if profile.impacts:
        lines.append("optimizations (measured vs unoptimized estimate):")
        for impact in profile.impacts:
            entry = (
                f"  - {impact.name}: {impact.description} — "
                f"estimated {impact.estimated_without_tuples:.0f} tuples without"
            )
            if impact.measured_tuples is not None:
                entry += f", measured {impact.measured_tuples:.0f} with"
            else:
                entry += f", estimated {impact.estimated_with_tuples:.0f} with"
            entry += f" (saved {impact.saving_fraction * 100:.1f}%)"
            lines.append(entry)
    if profile.notes:
        lines.append("optimizer notes:")
        for note in profile.notes:
            lines.append(f"  - {note}")
    if profile.plan_description:
        lines.append("plan:")
        for plan_line in profile.plan_description.splitlines():
            lines.append(f"  {plan_line}")
    return "\n".join(lines)
