"""Trace-diff regression attribution (``repro diff``).

A benchmark or a test can say *that* a run got slower; this module says
*why*. It compares two observability artifacts — JSONL traces or
EXPLAIN ANALYZE profiles — and attributes every wall-time/byte
delta to a dimension the paper's cost analysis argues about: the query
total, a round, a site, an operator, or an applied optimization.

Each compared series becomes a :class:`DiffEntry` with a thresholded
verdict (``REGRESSED`` / ``IMPROVED`` / ``UNCHANGED``): a delta counts
only when it exceeds ``threshold`` relative to the before value *plus* a
per-unit absolute slack, so timer jitter on small numbers does not
produce verdicts. A trace diffed against itself therefore reports zero
attributed delta — the self-check the tests pin.

Artifact kinds are auto-detected by :func:`load_artifact`:

- a JSONL trace (``repro trace --emit-trace``) — normalized to a profile
  via :func:`~repro.obs.profile.profile_from_trace`;
- a profile dict (``repro explain --analyze --json``).

Both normalize to a profile, so either may be compared with either. A
flight-recorder dump loads as a trace too but holds no run's stats, so it
is refused with a pointer to ``repro trace --flight``.
:func:`render_diff` prints the root-cause table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.profile import (
    operator_totals,
    profile_from_trace,
    round_totals,
    site_totals,
)

REGRESSED = "REGRESSED"
IMPROVED = "IMPROVED"
UNCHANGED = "UNCHANGED"

#: Default relative threshold: a series must move >10% to earn a verdict.
DEFAULT_THRESHOLD = 0.10

#: Per-unit absolute slack — deltas below this are noise regardless of
#: ratio (5ms of timer jitter on a 1ms operator is not a 500% regression).
ABS_SLACK = {
    "s": 0.005,
    "bytes": 64.0,
    "ratio": 0.02,
}


@dataclass(frozen=True)
class DiffEntry:
    """One compared series: a metric of one key in one dimension."""

    dimension: str  #: total | round | site | operator | optimization | metric
    key: str
    metric: str
    before: float
    after: float
    unit: str = "s"
    higher_is_worse: bool = True

    @property
    def delta(self) -> float:
        return self.after - self.before

    def worse_by(self) -> float:
        """Signed movement in the *bad* direction (positive = worse)."""
        return self.delta if self.higher_is_worse else -self.delta

    def _limit(self, threshold: float) -> float:
        return threshold * abs(self.before) + ABS_SLACK.get(self.unit, 0.0)

    def verdict(self, threshold: float = DEFAULT_THRESHOLD) -> str:
        worse = self.worse_by()
        limit = self._limit(threshold)
        if worse > limit:
            return REGRESSED
        if worse < -limit:
            return IMPROVED
        return UNCHANGED

    def severity(self, threshold: float = DEFAULT_THRESHOLD) -> float:
        """How many times over the verdict bar the movement is."""
        limit = self._limit(threshold)
        return abs(self.worse_by()) / limit if limit > 0 else 0.0

    def to_dict(self, threshold: float = DEFAULT_THRESHOLD) -> dict:
        return {
            "dimension": self.dimension,
            "key": self.key,
            "metric": self.metric,
            "before": self.before,
            "after": self.after,
            "delta": self.delta,
            "unit": self.unit,
            "higher_is_worse": self.higher_is_worse,
            "verdict": self.verdict(threshold),
        }


@dataclass
class TraceDiff:
    """All compared series between two artifacts of one kind."""

    kind: str
    before_label: str
    after_label: str
    entries: List[DiffEntry] = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD

    def regressions(self) -> List[DiffEntry]:
        hits = [
            entry
            for entry in self.entries
            if entry.verdict(self.threshold) == REGRESSED
        ]
        hits.sort(key=lambda entry: -entry.severity(self.threshold))
        return hits

    def improvements(self) -> List[DiffEntry]:
        hits = [
            entry
            for entry in self.entries
            if entry.verdict(self.threshold) == IMPROVED
        ]
        hits.sort(key=lambda entry: -entry.severity(self.threshold))
        return hits

    def top_regression(self) -> Optional[DiffEntry]:
        regressions = self.regressions()
        return regressions[0] if regressions else None

    @property
    def attributed_delta_s(self) -> float:
        """Sum of absolute time deltas across every attributed series."""
        return sum(abs(entry.delta) for entry in self.entries if entry.unit == "s")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "before": self.before_label,
            "after": self.after_label,
            "threshold": self.threshold,
            "attributed_delta_s": self.attributed_delta_s,
            "entries": [
                entry.to_dict(self.threshold) for entry in self.entries
            ],
            "regressions": len(self.regressions()),
            "improvements": len(self.improvements()),
        }


# ---------------------------------------------------------------------------
# The profile diff
# ---------------------------------------------------------------------------


def _paired(before: dict, after: dict) -> List[Tuple[str, dict, dict]]:
    """Union of keys, missing side contributing zeros."""
    keys = list(before)
    keys.extend(key for key in after if key not in before)
    return [(key, before.get(key, {}), after.get(key, {})) for key in keys]


def diff_profiles(
    before,
    after,
    threshold: float = DEFAULT_THRESHOLD,
    before_label: str = "before",
    after_label: str = "after",
) -> TraceDiff:
    """Attribute profile deltas to rounds, sites, operators, optimizations.

    ``before`` and ``after`` are profiles or bare stats snapshots (a
    snapshot has no operators, optimizations or coverage to compare).
    The query total's ``wall_s`` is the snapshot's: the sum of round
    walls, which the rounds' own entries then split.
    """
    entries: List[DiffEntry] = []

    entries.append(
        DiffEntry(
            "total", "query", "wall_s",
            before.get("wall_s", 0.0), after.get("wall_s", 0.0),
        )
    )
    entries.append(
        DiffEntry(
            "total", "query", "bytes",
            float(before.get("bytes_total", 0)),
            float(after.get("bytes_total", 0)),
            unit="bytes",
        )
    )
    for label in ("time_coverage", "bytes_coverage"):
        entries.append(
            DiffEntry(
                "metric", "profile", label,
                before.get(label, 1.0), after.get(label, 1.0),
                unit="ratio", higher_is_worse=False,
            )
        )

    for key, old, new in _paired(round_totals(before), round_totals(after)):
        entries.append(
            DiffEntry(
                "round", key, "wall_s",
                old.get("wall_s", 0.0), new.get("wall_s", 0.0),
            )
        )
        entries.append(
            DiffEntry(
                "round", key, "bytes",
                float(old.get("bytes", 0)), float(new.get("bytes", 0)),
                unit="bytes",
            )
        )
    for key, old, new in _paired(site_totals(before), site_totals(after)):
        entries.append(
            DiffEntry(
                "site", key, "compute_s",
                old.get("compute_s", 0.0), new.get("compute_s", 0.0),
            )
        )
        entries.append(
            DiffEntry(
                "site", key, "bytes",
                float(old.get("bytes", 0)), float(new.get("bytes", 0)),
                unit="bytes",
            )
        )
    for key, old, new in _paired(operator_totals(before), operator_totals(after)):
        entries.append(
            DiffEntry(
                "operator", key, "seconds",
                old.get("seconds", 0.0), new.get("seconds", 0.0),
            )
        )

    old_impacts = {
        impact["name"]: impact for impact in before.get("optimizations", ())
    }
    new_impacts = {
        impact["name"]: impact for impact in after.get("optimizations", ())
    }
    for key, old, new in _paired(old_impacts, new_impacts):
        entries.append(
            DiffEntry(
                "optimization", key, "saving_fraction",
                old.get("saving_fraction", 0.0),
                new.get("saving_fraction", 0.0),
                unit="ratio", higher_is_worse=False,
            )
        )

    return TraceDiff(
        kind="profile",
        before_label=before_label,
        after_label=after_label,
        entries=entries,
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# Artifact loading & top-level diff
# ---------------------------------------------------------------------------


def load_artifact(path: str):
    """Read and classify one artifact; returns ``(kind, payload)``.

    Kinds: ``"trace"`` (payload: :class:`~repro.obs.events.EventLog`) or
    ``"profile"`` (payload: dict). A flight-recorder dump is a
    ``"trace"`` whose ``origin`` names its ring.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    first_line = next(
        (line for line in text.splitlines() if line.strip()), ""
    )
    try:
        first = json.loads(first_line)
    except (json.JSONDecodeError, ValueError):
        first = None
    if isinstance(first, dict) and first.get("record") == "header":
        from repro.obs.events import EventLog

        return "trace", EventLog.loads(text)
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, ValueError) as error:
        raise ObservabilityError(
            f"{path!r} is neither a JSONL trace nor a JSON artifact: {error}"
        )
    if not isinstance(data, dict):
        raise ObservabilityError(f"{path!r} does not hold a JSON object")
    if "rounds" in data:
        if not all(
            isinstance(round_record, dict)
            and isinstance(round_record.get("sites"), dict)
            for round_record in data["rounds"]
        ):
            raise ObservabilityError(
                f"{path!r}: its rounds do not key sites by site id — a "
                "profile from before profiles became the stats snapshot; "
                "re-run `repro explain --analyze --json`"
            )
        return "profile", data
    raise ObservabilityError(
        f"cannot classify {path!r}: expected a JSONL trace or a profile "
        "(repro explain --analyze --json)"
    )


def diff_artifacts(
    before_path: str,
    after_path: str,
    threshold: float = DEFAULT_THRESHOLD,
    query_id=None,
) -> TraceDiff:
    """Load, classify and diff two artifact files.

    Traces are normalized to profiles, so a trace may be compared
    against a profile JSON.
    """
    sides = []
    for path in (before_path, after_path):
        kind, payload = load_artifact(path)
        if kind == "trace":
            if payload.origin is not None:
                raise ObservabilityError(
                    f"{path!r}: a flight dump holds spans and events, not a "
                    "run's stats — render it with `repro trace --flight`"
                )
            payload = profile_from_trace(payload, query_id=query_id)
        sides.append(payload)
    return diff_profiles(
        *sides,
        threshold=threshold,
        before_label=before_path,
        after_label=after_path,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_value(value: float, unit: str) -> str:
    if unit == "s":
        return f"{value * 1000.0:.2f}ms" if abs(value) < 1.0 else f"{value:.3f}s"
    if unit == "bytes":
        return f"{int(value)}B"
    if unit == "ratio":
        return f"{value:.3f}"
    return f"{value:g}"


def _fmt_delta(entry: DiffEntry) -> str:
    signed = f"{'+' if entry.delta >= 0 else ''}{_fmt_value(entry.delta, entry.unit)}"
    if entry.before:
        signed += f" ({entry.delta / abs(entry.before):+.0%})"
    return signed


def _table(headers, rows) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_diff(diff: TraceDiff) -> str:
    """The root-cause table: verdicts first, severity order."""
    lines = [
        f"repro diff [{diff.kind}] — {diff.before_label} -> {diff.after_label} "
        f"(threshold {diff.threshold:.0%})"
    ]
    regressions = diff.regressions()
    improvements = diff.improvements()
    unchanged = len(diff.entries) - len(regressions) - len(improvements)
    lines.append(
        f"{len(diff.entries)} series compared: {len(regressions)} regressed, "
        f"{len(improvements)} improved, {unchanged} unchanged; "
        f"attributed |time delta| {_fmt_value(diff.attributed_delta_s, 's')}"
    )
    rows = []
    for verdict, entries in ((REGRESSED, regressions), (IMPROVED, improvements)):
        for entry in entries:
            rows.append(
                [
                    verdict,
                    entry.dimension,
                    entry.key,
                    entry.metric,
                    _fmt_value(entry.before, entry.unit),
                    _fmt_value(entry.after, entry.unit),
                    _fmt_delta(entry),
                ]
            )
    if rows:
        lines.append(
            _table(
                ["verdict", "dimension", "key", "metric", "before", "after",
                 "delta"],
                rows,
            )
        )
        top = diff.top_regression()
        if top is not None:
            lines.append(
                f"top regression: {top.dimension} {top.key} {top.metric} "
                f"{_fmt_value(top.before, top.unit)} -> "
                f"{_fmt_value(top.after, top.unit)} ({_fmt_delta(top)})"
            )
    else:
        lines.append("no attributed regressions or improvements")
    return "\n".join(lines)
