"""EXPLAIN ANALYZE: a run's profile, and the one per-round renderer.

The paper measures a run as bytes per round and per site, plus site,
coordinator and communication time (Section 5). ``ExecutionStats``
records exactly that, and its ``to_dict()`` snapshot is the only record
of a run: round records in execution order, each holding its ``sites``
keyed by site id in tree order. A profile is that snapshot with three
additions, made by :func:`build_profile`:

- ``operators`` on each round record (the coordinator's spans under the
  round) and on each site record (the spans that site ran): span names
  aggregated into ``{name, kind, seconds, calls, rows, bytes}``, slowest
  first, empty when the run was untraced. The byte, tuple and wall
  numbers stay the snapshot's, so attribution is exact even with a null
  tracer; and ``positional`` on each round record: per site whose
  fragment shipped positionally against its own answer, the bytes of the
  key columns it kept and the fragment did not carry (the site's traced
  ``round.decode`` span says so, so it is empty when untraced);
- the plan (``plan_description``, ``notes``), each applied optimization
  priced by ablation in :mod:`repro.distributed.costing`
  (``optimizations``: ``OptimizationImpact.to_dict()`` annotated with the
  run's measured traffic) and, when the scheduler chose the topology,
  why (``topology_reason``, ``topology_estimated_saving_s``,
  ``topology_measured_saving_s``). Impacts and topology choices are
  duck-typed, so ``repro.obs`` stays import-free of the distributed layer;
- coverage, which makes the profile self-auditing: ``query_wall_s`` is
  the root ``query`` span's duration (the snapshot's ``wall_s`` when the
  run was untraced), ``time_coverage`` the share of it that the rounds
  account for (the snapshot's ``wall_s`` is the sum of round walls; the
  bar is >= 0.95), and ``bytes_coverage`` the share of ``bytes_total``
  that the site records account for (1.0 unless the record is
  inconsistent).

:func:`render_profile` prints a snapshot (``repro trace``) or a profile
(``repro explain --analyze``) as one block per round and a totals footer
that agrees with the stats to the digit.
"""

from __future__ import annotations

import copy

from repro.errors import ObservabilityError


def _fmt_seconds(seconds: float) -> str:
    return f"{seconds:.6f}s"


def _fmt_bytes(count: int) -> str:
    return f"{count}B"


def _segment(chars: str, seconds: float, scale: float) -> str:
    if seconds <= 0:
        return ""
    return chars * max(1, round(seconds * scale))


def _snapshot(stats, model=None) -> dict:
    """An ``ExecutionStats`` as its snapshot; a snapshot or profile as is."""
    if hasattr(stats, "to_dict"):
        stats = stats.to_dict(model)
    if not isinstance(stats, dict) or "rounds" not in stats:
        raise ObservabilityError(
            "expected an ExecutionStats or its to_dict() snapshot"
        )
    return stats


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


def _absorb(operators: dict, span) -> None:
    entry = operators.setdefault(
        (span.name, span.kind),
        {"name": span.name, "kind": span.kind,
         "seconds": 0.0, "calls": 0, "rows": 0, "bytes": 0},
    )
    entry["seconds"] += span.duration_s
    entry["calls"] += 1
    entry["rows"] += int(span.attributes.get("rows", 0) or 0)
    entry["bytes"] += int(span.attributes.get("bytes", 0) or 0)


def _slowest_first(operators: dict) -> list:
    return sorted(operators.values(), key=lambda entry: -entry["seconds"])


def build_profile(
    spans,
    stats,
    impacts=(),
    plan_description: str = "",
    notes=(),
    query_id=None,
    topology_choice=None,
) -> dict:
    """The run's snapshot plus operators, plan, impacts and coverage.

    ``stats`` is an ``ExecutionStats`` or its ``to_dict()`` snapshot (not
    modified). ``spans`` may be a live ``Tracer.spans`` list or
    ``EventLog.spans()``. ``impacts`` are ``OptimizationImpact``s or their
    dicts; ``topology_choice`` is a ``TopologyChoice`` or its dict.
    """
    profile = copy.deepcopy(_snapshot(stats))
    if query_id is not None:
        profile["query_id"] = query_id

    spans = list(spans or ())
    root = _query_span(spans, profile.get("query_id"))
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    round_spans = {
        span.attributes.get("index"): span
        for span in (
            children.get(root.span_id, spans) if root is not None else spans
        )
        if span.name == "round"
    }

    for round_record in profile["rounds"]:
        coordinator: dict = {}
        by_site = {site_id: {} for site_id in round_record["sites"]}
        positional: dict = {}  # site -> key bytes its fragment left behind
        round_span = round_spans.get(round_record["index"])
        stack = (
            list(children.get(round_span.span_id, ()))
            if round_span is not None
            else []
        )
        while stack:
            span = stack.pop()
            if span.attributes.get("speculative"):
                # An abandoned speculative attempt: the backup leg
                # re-recorded the same work, so absorbing this span (or
                # its subtree) would double-count stage totals.
                continue
            stack.extend(children.get(span.span_id, ()))
            site_id = span.attributes.get("site")
            if span.kind == "site" and site_id in by_site:
                _absorb(by_site[site_id], span)
                if span.name == "round.decode" and span.attributes.get("positional"):
                    positional[site_id] = int(span.attributes.get("keys_bytes", 0))
            else:
                _absorb(coordinator, span)
        round_record["operators"] = _slowest_first(coordinator)
        round_record["positional"] = {
            site_id: positional[site_id] for site_id in round_record["sites"]
            if site_id in positional
        }
        for site_id, site_record in round_record["sites"].items():
            site_record["operators"] = _slowest_first(by_site[site_id])

    wall_s = profile["wall_s"]
    profile["query_wall_s"] = root.duration_s if root is not None else wall_s
    profile["time_coverage"] = (
        min(1.0, wall_s / profile["query_wall_s"])
        if profile["query_wall_s"] > 0
        else 1.0
    )
    attributed_bytes = sum(
        site["bytes_down"] + site["bytes_up"]
        for round_record in profile["rounds"]
        for site in round_record["sites"].values()
    )
    profile["bytes_coverage"] = (
        attributed_bytes / profile["bytes_total"]
        if profile["bytes_total"] > 0
        else 1.0
    )

    profile["optimizations"] = [
        impact.to_dict() if hasattr(impact, "to_dict") else dict(impact)
        for impact in impacts
    ]
    profile["plan_description"] = plan_description
    profile["notes"] = list(notes)
    if topology_choice is not None:
        if hasattr(topology_choice, "to_dict"):
            topology_choice = topology_choice.to_dict()
        profile["topology"] = topology_choice.get("topology", profile["topology"])
        profile["topology_reason"] = topology_choice.get("reason", "")
        profile["topology_estimated_saving_s"] = topology_choice.get(
            "estimated_saving_s"
        )
        profile["topology_measured_saving_s"] = topology_choice.get(
            "measured_saving_s"
        )
    return profile


def profile_from_trace(log, query_id=None) -> dict:
    """Rebuild a profile from a JSONL trace (:class:`~repro.obs.events.EventLog`).

    With ``query_id`` the log is first filtered to that query's records;
    the log must hold a matching ``stats`` record. The last ``plan``
    record supplies the plan, and — in a trace ``repro explain --analyze
    --emit-trace`` wrote — the ``optimizations`` and the ``topology``
    choice, so the rebuilt profile is the one ``--json`` prints.
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
    snapshot = {
        key: value for key, value in stats_records[-1].items() if key != "record"
    }
    plan_records = log.records_of("plan")
    plan = plan_records[-1] if plan_records else {}
    return build_profile(
        log.spans(),
        snapshot,
        impacts=plan.get("optimizations", ()),
        plan_description=plan.get("describe", ""),
        notes=plan.get("notes", ()),
        query_id=query_id,
        topology_choice=plan.get("topology"),
    )


# ---------------------------------------------------------------------------
# Aggregation over snapshots and profiles (used by ``repro diff``)
# ---------------------------------------------------------------------------


def round_totals(profile: dict) -> dict:
    """``{"round 0 [base]": {"wall_s", "bytes", "tuples"}, ...}``."""
    totals: dict = {}
    for round_record in profile["rounds"]:
        sites = round_record["sites"].values()
        totals[f"round {round_record['index']} [{round_record['kind']}]"] = {
            "wall_s": round_record["wall_s"],
            "bytes": sum(site["bytes_down"] + site["bytes_up"] for site in sites),
            "tuples": sum(
                site["tuples_down"] + site["tuples_up"] for site in sites
            ),
        }
    return totals


def site_totals(profile: dict) -> dict:
    """Per-site compute/bytes/tuples/retries summed across all rounds."""
    totals: dict = {}
    for round_record in profile["rounds"]:
        for site_id, site in round_record["sites"].items():
            entry = totals.setdefault(
                site_id,
                {"compute_s": 0.0, "bytes": 0, "tuples": 0, "retries": 0},
            )
            entry["compute_s"] += site["compute_s"]
            entry["bytes"] += site["bytes_down"] + site["bytes_up"]
            entry["tuples"] += site["tuples_down"] + site["tuples_up"]
            entry["retries"] += site["retries"]
    return totals


def operator_totals(profile: dict) -> dict:
    """Span-name aggregates across all rounds, keyed ``"name [kind]"``."""
    totals: dict = {}
    for round_record in profile["rounds"]:
        for owner in (round_record, *round_record["sites"].values()):
            for operator in owner.get("operators", ()):
                entry = totals.setdefault(
                    f"{operator['name']} [{operator['kind']}]",
                    {"seconds": 0.0, "calls": 0, "rows": 0, "bytes": 0},
                )
                for metric in entry:
                    entry[metric] += operator[metric]
    return totals


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _format_operators(operators, limit: int = 4) -> str:
    parts = []
    for operator in operators[:limit]:
        part = (
            f"{operator['name']} {_fmt_seconds(operator['seconds'])} "
            f"x{operator['calls']}"
        )
        if operator["rows"]:
            part += f" rows={operator['rows']}"
        parts.append(part)
    if len(operators) > limit:
        parts.append(f"+{len(operators) - limit} more")
    return "; ".join(parts)


def _header(profile: dict) -> list:
    """A profile's opening lines: run, coverage, topology, speculation."""
    query_id = profile.get("query_id")
    lines = [
        f"EXPLAIN ANALYZE — {len(profile['rounds'])} round(s), "
        f"executor={profile['executor']}, "
        f"failure_mode={profile['failure_mode']}"
        + (f", query_id={query_id}" if query_id is not None else ""),
        f"wall {_fmt_seconds(profile['query_wall_s'])}; attributed to plan "
        f"nodes {_fmt_seconds(profile['wall_s'])} "
        f"({profile['time_coverage'] * 100:.1f}% of traced wall); "
        f"bytes {_fmt_bytes(profile['bytes_total'])} "
        f"({profile['bytes_coverage'] * 100:.1f}% attributed to sites)",
    ]
    topology = profile["topology"]
    reason = profile.get("topology_reason", "")
    if topology != "flat" or reason:
        line = f"merge topology [{topology}]"
        estimated = profile.get("topology_estimated_saving_s")
        if topology != "flat" and estimated is not None:
            line += f": estimated saving vs flat {_fmt_seconds(estimated)}"
            measured = profile.get("topology_measured_saving_s")
            if measured is not None:
                line += f", measured {_fmt_seconds(measured)}"
        if reason:
            line += f" — {reason}"
        lines.append(line)
    if profile["speculative_legs"]:
        lines.append(
            f"speculation: {profile['speculative_legs']} leg(s) re-executed, "
            f"{profile['speculation_wins']} backup win(s)"
        )
    return lines


def _sections(profile: dict) -> list:
    """A profile's closing lines: optimizations, notes, plan."""
    lines = []
    if profile["optimizations"]:
        lines.append("optimizations (measured vs unoptimized estimate):")
        for impact in profile["optimizations"]:
            entry = (
                f"  - {impact['name']}: {impact['description']} — estimated "
                f"{impact['estimated_without_tuples']:.0f} tuples without"
            )
            if impact["measured_tuples"] is not None:
                entry += f", measured {impact['measured_tuples']:.0f} with"
            else:
                entry += f", estimated {impact['estimated_with_tuples']:.0f} with"
            entry += f" (saved {impact['saving_fraction'] * 100:.1f}%)"
            lines.append(entry)
    if profile["notes"]:
        lines.append("optimizer notes:")
        lines.extend(f"  - {note}" for note in profile["notes"])
    if profile["plan_description"]:
        lines.append("plan:")
        lines.extend(
            f"  {line}" for line in profile["plan_description"].splitlines()
        )
    return lines


def render_profile(profile, model=None, width: int = 48) -> str:
    """One block per round, then the totals footer.

    ``profile`` is an ``ExecutionStats``, its snapshot, or a profile from
    :func:`build_profile`; a profile adds its header, each round's and
    each site's slowest operators, and the optimizations, optimizer notes
    and plan. Sites are listed in the snapshot's order, which is tree
    order. Bar legend: ``<`` down transfer, ``=`` site compute, ``>`` up
    transfer, ``#`` coordinator merge, all on one scale; the transfers
    are priced by ``model`` (a :class:`~repro.net.costmodel.CostModel`)
    and drawn only when one is given. The footer's modeled communication
    comes from the snapshot's ``breakdown``, present when the snapshot
    was taken with a model.
    """
    profile = _snapshot(profile, model)
    rounds = profile["rounds"]

    def transfer_s(count: int) -> float:
        return model.transfer_time(count) if model is not None and count else 0.0

    longest = max(
        [
            transfer_s(site["bytes_down"]) + site["compute_s"]
            + transfer_s(site["bytes_up"])
            for round_record in rounds
            for site in round_record["sites"].values()
        ]
        + [round_record["coordinator_compute_s"] for round_record in rounds]
        + [0.0]
    )
    scale = (width / longest) if longest > 0 else 0.0
    label_width = max(
        [len("merge")]
        + [len(site_id) for round_record in rounds for site_id in round_record["sites"]]
    )

    lines = _header(profile) if "time_coverage" in profile else []
    if model is not None:
        lines.append(
            "per-round timeline "
            f"(model: latency={model.latency_s}s, "
            f"bandwidth={model.bandwidth_bytes_per_s:.0f}B/s; "
            "bar: <down =compute >up #merge)"
        )
    for round_record in rounds:
        sites = round_record["sites"]
        header = (
            f"+- round {round_record['index']} [{round_record['kind']}] "
            f"{round_record['description']}".rstrip()
            + f"  wall={_fmt_seconds(round_record['wall_s'])} "
            f"down={_fmt_bytes(sum(site['bytes_down'] for site in sites.values()))} "
            f"up={_fmt_bytes(sum(site['bytes_up'] for site in sites.values()))}"
        )
        if round_record["excluded"]:
            header += f" EXCLUDED={','.join(round_record['excluded'])}"
        lines.append(header)
        positional = round_record.get("positional")
        if positional:
            shipped = (
                "each site" if len(positional) == len(sites)
                else f"{len(positional)} of {len(sites)} sites"
            )
            lines.append(
                f"|  round {round_record['index']} shipped {shipped} positionally "
                f"against its own answer: {sum(positional.values())} key bytes saved ("
                + ", ".join(f"{site_id} {count}" for site_id, count in positional.items())
                + ")"
            )
        for site_id, site in sites.items():
            bar = (
                _segment("<", transfer_s(site["bytes_down"]), scale)
                + _segment("=", site["compute_s"], scale)
                + _segment(">", transfer_s(site["bytes_up"]), scale)
            )
            lines.append(
                f"|  +- {site_id.ljust(label_width)}  {bar.ljust(width)}  "
                f"compute={_fmt_seconds(site['compute_s'])} "
                f"down={_fmt_bytes(site['bytes_down'])} "
                f"up={_fmt_bytes(site['bytes_up'])} "
                f"tuples={site['tuples_down'] + site['tuples_up']}"
                + (f" retries={site['retries']}" if site["retries"] else "")
            )
            if site.get("operators"):
                lines.append(f"|  |     {_format_operators(site['operators'])}")
        merge_s = round_record["coordinator_compute_s"]
        lines.append(
            f"|  +- {'merge'.ljust(label_width)}  "
            f"{_segment('#', merge_s, scale).ljust(width)}  "
            f"coordinator={_fmt_seconds(merge_s)}"
        )
        if round_record.get("operators"):
            lines.append(f"|        {_format_operators(round_record['operators'])}")

    lines.append(
        f"totals: rounds={len(rounds)} "
        f"bytes={profile['bytes_total']} "
        f"(down={profile['bytes_down']} up={profile['bytes_up']}) "
        f"tuples={profile['tuples_total']}"
    )
    footer = (
        f"        site_compute={_fmt_seconds(profile['site_compute_s'])} "
        f"coordinator_compute={_fmt_seconds(profile['coordinator_compute_s'])}"
    )
    breakdown = profile.get("breakdown")
    if breakdown:
        footer += (
            f" modeled_communication={_fmt_seconds(breakdown['communication_s'])} "
            f"total={_fmt_seconds(breakdown['total_s'])}"
        )
    lines.append(footer)
    if "time_coverage" in profile:
        lines.extend(_sections(profile))
    return "\n".join(lines)
