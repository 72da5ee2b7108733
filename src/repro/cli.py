"""Command-line interface: ``python -m repro``.

Subcommands:

- ``demo`` — build a distributed TPC-R warehouse and run the quickstart
  correlated query with and without optimizations;
- ``sql QUERY`` — run a query in the OLAP SQL dialect against a freshly
  generated distributed warehouse (TPC-R or flows), on a star or
  multi-tier topology;
- ``trace QUERY`` — run a query (same options as ``sql``) with tracing
  on and print an ASCII per-round timeline — one bar per site scaled to
  ``down_xfer + compute + up_xfer`` plus the coordinator merge — whose
  totals footer agrees with ``ExecutionStats``; ``--json`` emits the raw
  JSONL trace instead, ``--emit-trace PATH`` writes it alongside;
- ``explain QUERY`` — print the optimized GMDJ plan with every applied
  optimization priced by ablation against the cost model;
  ``--analyze`` additionally *runs* the query traced and renders an
  EXPLAIN ANALYZE tree attributing measured time/rows/bytes to rounds,
  sites and operators, with measured-vs-estimated savings per
  optimization;
- ``serve`` — the concurrent query service REPL; ``--metrics-port``
  additionally exposes the service registry as Prometheus text at
  ``http://127.0.0.1:PORT/metrics``;
- ``top`` — poll a ``/metrics`` endpoint and render a terminal
  dashboard (in-flight/queued, cache hit ratio, latency quantiles,
  per-site bytes);
- ``diff BEFORE AFTER`` — compare two observability artifacts (JSONL
  traces or ``explain --analyze --json`` profiles, in either pairing) and
  attribute wall-time/byte deltas to rounds, sites, operators and
  optimizations with thresholded verdicts; exits 1 when anything
  regressed;
- ``figures [NAME]`` — regenerate the paper's experiments and print
  their reports (fig2, fig2x, fig3, fig4, fig5, or all).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.data.flows import FlowConfig, generate_flows, router_partitioner
from repro.data.tpcr import (
    TPCRConfig,
    generate_tpcr,
    nation_partitioner,
    register_tpcr_fds,
)
from repro.distributed import (
    OptimizationOptions,
    SimulatedCluster,
    execute_query,
    execute_query_scheduled,
)
from repro.distributed.evaluator import ExecutionConfig
from repro.distributed.executor import EXECUTORS
from repro.distributed.recovery import FAILURE_MODES
from repro.queries.sql import parse_olap_statement


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Skalla: distributed OLAP query processing (Akinde et al., 2002)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run the quickstart demonstration")
    _add_cluster_options(demo)

    sql = commands.add_parser("sql", help="run an OLAP SQL query distributed")
    sql.add_argument("query", help="query text, e.g. \"SELECT NationKey, COUNT(*) AS c FROM TPCR GROUP BY NationKey\"")
    _add_cluster_options(sql, data="tpcr", topology="star")
    sql.add_argument("--max-rows", type=int, default=20, help="rows to print")

    trace = commands.add_parser(
        "trace", help="run a query traced and print a per-round timeline"
    )
    trace.add_argument(
        "query",
        nargs="?",
        default=None,
        help="query text (same dialect as 'sql'); omit with --flight",
    )
    trace.add_argument(
        "--flight",
        metavar="PATH",
        default=None,
        help="post-mortem mode: render flight-recorder dump(s) at PATH "
        "(a flight-*.jsonl file, or a directory written by "
        "'repro cluster dump') instead of running a query",
    )
    _add_cluster_options(trace, data="tpcr", topology="star")
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit the raw JSONL trace instead of the ASCII timeline",
    )
    trace.add_argument(
        "--emit-trace",
        metavar="PATH",
        help="also write the JSONL trace to PATH",
    )

    explain = commands.add_parser(
        "explain",
        help="print the optimized plan with per-optimization savings; "
        "--analyze runs it traced and renders EXPLAIN ANALYZE",
    )
    explain.add_argument("query", help="query text (same dialect as 'sql')")
    _add_cluster_options(explain, data="tpcr", topology="auto")
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the query traced and attribute measured "
        "time/rows/bytes to plan nodes",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit the plan/profile as JSON instead of the ASCII tree",
    )
    explain.add_argument(
        "--emit-trace",
        metavar="PATH",
        help="with --analyze: also write the run's JSONL trace to PATH",
    )

    serve = commands.add_parser(
        "serve",
        help="start the concurrent query service (REPL over stdin, or "
        "--self-test for the concurrency smoke test)",
    )
    _add_cluster_options(serve, data="flows")
    serve.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in concurrency smoke test and exit",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=8,
        help="concurrent client threads for --self-test",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=4, help="concurrent query limit"
    )
    serve.add_argument(
        "--max-queue", type=int, default=16, help="admission queue capacity"
    )
    serve.add_argument("--max-rows", type=int, default=20, help="rows to print")
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose the service metrics registry as Prometheus text at "
        "http://127.0.0.1:PORT/metrics (0 picks a free port)",
    )

    top = commands.add_parser(
        "top",
        help="poll a /metrics endpoint and render a terminal dashboard",
    )
    top.add_argument(
        "--url",
        default=None,
        help="full exposition URL (default: built from --host/--port)",
    )
    top.add_argument(
        "--cluster",
        metavar="DIR",
        default=None,
        help="scrape a running 'repro cluster up --dir DIR' deployment "
        "directly (per-site telemetry panel) instead of polling --url",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=9108)
    top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between frames"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="frames to render before exiting (0 = until interrupted)",
    )

    diff = commands.add_parser(
        "diff",
        help="attribute wall-time/byte deltas between two observability "
        "artifacts (traces, explain --analyze profiles)",
    )
    diff.add_argument("before", help="baseline artifact path")
    diff.add_argument("after", help="fresh artifact path")
    diff.add_argument(
        "--threshold",
        type=float,
        default=0.1,
        help="relative movement a series needs to earn a verdict",
    )
    diff.add_argument(
        "--query-id",
        type=int,
        default=None,
        help="when diffing traces: restrict to one query's records",
    )
    diff.add_argument(
        "--json",
        action="store_true",
        help="emit the diff as JSON instead of the root-cause table",
    )

    query = commands.add_parser(
        "query",
        help="run one query through the caching query service "
        "(--repeat to demonstrate cache hits)",
    )
    query.add_argument("query", help="query text (same dialect as 'sql')")
    _add_cluster_options(query, data="tpcr")
    query.add_argument(
        "--repeat", type=int, default=2, help="submissions of the same query"
    )
    query.add_argument("--max-rows", type=int, default=20, help="rows to print")

    figures = commands.add_parser("figures", help="regenerate paper experiments")
    figures.add_argument(
        "name",
        nargs="?",
        default="all",
        choices=("fig2", "fig2x", "fig3", "fig4", "fig5", "all"),
    )
    figures.add_argument("--scale", type=float, default=0.001)

    report = commands.add_parser(
        "report", help="regenerate the full markdown experiment report"
    )
    report.add_argument("--scale", type=float, default=0.001)

    site_server = commands.add_parser(
        "site-server",
        help="serve one site's partition over TCP (started per site by "
        "'repro cluster up' or by an ephemeral --executor sockets run)",
    )
    site_server.add_argument(
        "--store", required=True, metavar="DIR",
        help="partition store directory (written by 'repro cluster up')",
    )
    site_server.add_argument("--site", required=True, help="site id to serve")
    site_server.add_argument("--host", default="127.0.0.1")
    site_server.add_argument(
        "--port", type=int, default=0,
        help="listening port (0 picks a free one, announced on stdout as "
        "'READY site=<id> port=<port>')",
    )

    cluster_cmd = commands.add_parser(
        "cluster",
        help="manage a process-separated site deployment "
        "(up: write a partition store and launch one site-server process "
        "per site; down: stop them)",
    )
    cluster_sub = cluster_cmd.add_subparsers(dest="cluster_command", required=True)
    cluster_up = cluster_sub.add_parser(
        "up", help="deploy site-server processes serving a fresh warehouse"
    )
    cluster_up.add_argument(
        "--dir", required=True, metavar="DIR",
        help="directory for the partition store and deployment spec",
    )
    cluster_up.add_argument("--sites", type=int, default=4)
    cluster_up.add_argument("--scale", type=float, default=0.001)
    cluster_up.add_argument(
        "--data", choices=("tpcr", "flows"), default="tpcr",
        help="which synthetic warehouse to build (table name TPCR or Flow)",
    )
    cluster_up.add_argument("--host", default="127.0.0.1")
    cluster_down = cluster_sub.add_parser(
        "down", help="stop a running deployment"
    )
    cluster_down.add_argument("--dir", required=True, metavar="DIR")
    cluster_dump = cluster_sub.add_parser(
        "dump",
        help="write the coordinator's flight-recorder dump and copy every "
        "site's (live or killed alike) into --out",
    )
    cluster_dump.add_argument("--dir", required=True, metavar="DIR")
    cluster_dump.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="directory for the flight-*.jsonl files (default: --dir)",
    )
    return parser


def _add_cluster_options(parser, data=None, topology=None) -> None:
    """The flags every cluster-building subcommand shares.

    ``data`` / ``topology`` are that subcommand's default for ``--data`` /
    ``--topology``; ``None`` means it does not take the flag.
    """
    parser.add_argument("--sites", type=int, default=4, help="number of sites")
    parser.add_argument("--scale", type=float, default=0.001, help="TPC-R scale")
    parser.add_argument(
        "--optimizations",
        choices=("all", "none"),
        default="all",
        help="Skalla optimization toggles",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="serial",
        help="transport to the sites: 'serial' runs the sites in this "
        "process, one after another (any merge topology); 'sockets' runs "
        "each site as a separate OS process reached over TCP, all at once "
        "(flat topology only)",
    )
    parser.add_argument(
        "--cluster-dir",
        metavar="DIR",
        default=None,
        help="attach to the running deployment in DIR ('repro cluster up "
        "--dir DIR') instead of booting an ephemeral one; implies "
        "--executor sockets",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        help="fault-injection spec: a rule DSL string like "
        "'drop site=site1 round=1 dir=up; crash site=site1 rounds=1-2 times=4', "
        "or a path to a JSON rule file",
    )
    parser.add_argument(
        "--failure-mode",
        choices=FAILURE_MODES,
        default=None,
        help="how the coordinator reacts to failing site legs "
        "(default: fail_fast, or retry when --faults is given)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="leg re-runs before a site is declared failed (retry/degrade)",
    )
    if data is not None:
        parser.add_argument(
            "--data",
            choices=("tpcr", "flows"),
            default=data,
            help="which synthetic warehouse to build (table name TPCR or Flow)",
        )
    if topology is not None:
        parser.add_argument(
            "--topology",
            default=topology,
            help="merge topology: 'flat' (coordinator star; alias 'star'), "
            "'hierarchical:R' (R regional combiners; alias 'tree:R'), "
            "'chain:F' (fanout-F combiner tree), or 'auto' to let the cost "
            "model pick ('repro trace' renders the star only)",
        )


#: Process clusters booted by the current CLI invocation, closed by
#: ``main()`` on the way out so ephemeral site-server processes (and
#: their temp stores) never outlive the command.
_ACTIVE_DEPLOYMENTS: list = []


def _load_cluster_data(cluster, args) -> None:
    if getattr(args, "data", "tpcr") == "flows":
        config = FlowConfig(
            flow_count=max(100, int(5_000_000 * args.scale)),
            router_count=args.sites,
        )
        cluster.load_partitioned(
            "Flow", generate_flows(config), router_partitioner(config)
        )
        cluster.catalog.add_functional_dependency("SourceAS", "RouterId")
    else:
        cluster.load_partitioned(
            "TPCR",
            generate_tpcr(TPCRConfig(scale=args.scale)),
            nation_partitioner(args.sites),
        )
        register_tpcr_fds(cluster.catalog)


def _build_cluster(args):
    faults = getattr(args, "faults", None)
    fault_plan = None
    if faults:
        from repro.net.faults import FaultPlan

        fault_plan = FaultPlan.from_any(faults)

    if getattr(args, "cluster_dir", None) and getattr(args, "executor", "serial") != "sockets":
        # --cluster-dir only makes sense against the socket transport;
        # silently running in-process instead would fake the deployment.
        args.executor = "sockets"

    if getattr(args, "executor", "serial") == "sockets":
        from repro.distributed.deployment import ProcessCluster

        cluster_dir = getattr(args, "cluster_dir", None)
        if cluster_dir:
            deployed = ProcessCluster.attach(cluster_dir)
        else:
            import tempfile

            simulated = SimulatedCluster.with_sites(args.sites)
            _load_cluster_data(simulated, args)
            deployed = ProcessCluster.from_simulated(
                simulated,
                tempfile.mkdtemp(prefix="repro-cluster-"),
                ephemeral=True,
            )
        if fault_plan is not None:
            deployed.install_faults(fault_plan)
        _ACTIVE_DEPLOYMENTS.append(deployed)
        return deployed

    cluster = SimulatedCluster.with_sites(args.sites)
    if fault_plan is not None:
        cluster.install_faults(fault_plan)
    _load_cluster_data(cluster, args)
    return cluster


def _options(args) -> OptimizationOptions:
    if args.optimizations == "all":
        return OptimizationOptions.all()
    return OptimizationOptions.none()


def _config(args) -> ExecutionConfig:
    failure_mode = getattr(args, "failure_mode", None)
    if failure_mode is None:
        # With faults injected but no explicit mode, retrying is the only
        # default that still answers the query correctly.
        failure_mode = "retry" if getattr(args, "faults", None) else "fail_fast"
    return ExecutionConfig(
        executor=getattr(args, "executor", "serial"),
        failure_mode=failure_mode,
        max_retries=getattr(args, "max_retries", 2),
    )


def _print_recovery(stats, out) -> None:
    """One summary line when a run saw faults, retries, or exclusions."""
    if not (stats.faults or stats.retries or stats.degraded):
        return
    line = (
        f"recovery [{stats.failure_mode}]: faults={stats.fault_count} "
        f"retries={stats.retries}"
    )
    if stats.excluded_sites:
        excluded = ", ".join(
            f"round {index}: {site_id}" for index, site_id in stats.excluded_sites
        )
        line += f" EXCLUDED ({excluded}) — result is an under-approximation"
    print(line, file=out)


def run_demo(args, out) -> int:
    from repro.queries.olap import QueryBuilder
    from repro.relalg.aggregates import AggSpec, count_star
    from repro.relalg.expressions import base, detail

    cluster = _build_cluster(args)
    expression = (
        QueryBuilder("TPCR", keys=["NationKey"])
        .stage([count_star("cnt"), AggSpec("avg", detail.Price, "avg_price")])
        .stage([count_star("above")], extra=detail.Price >= base.avg_price)
        .build()
    )
    for label, options in (
        ("no optimizations", OptimizationOptions.none()),
        ("all optimizations", OptimizationOptions.all()),
    ):
        cluster.reset_network()
        result = execute_query(cluster, expression, options, config=_config(args))
        print(f"=== {label} ===", file=out)
        print(result.plan.describe(), file=out)
        print(
            f"synchronizations={result.plan.synchronization_count} "
            f"bytes={result.stats.bytes_total}",
            file=out,
        )
        _print_recovery(result.stats, out)
        print(result.relation.sorted_by(["NationKey"]).pretty(8), file=out)
        print(file=out)
    return 0


def _topology_label(raw: str) -> str:
    """Map the CLI's older spellings onto the scheduler's vocabulary."""
    if raw == "star":
        return "flat"
    if raw.startswith("tree:"):
        return "hierarchical:" + raw[len("tree:"):]
    return raw


def run_sql(args, out) -> int:
    from repro.errors import PlanError

    statement = parse_olap_statement(args.query)
    cluster = _build_cluster(args)
    try:
        result = execute_query_scheduled(
            cluster,
            statement.expression,
            _options(args),
            config=_config(args),
            topology=_topology_label(args.topology),
        )
    except PlanError as error:
        print(f"repro sql: {error}", file=sys.stderr)
        return 2
    choice = result.topology_choice
    _print_recovery(result.stats, out)
    print(result.plan.describe(), file=out)
    print(
        f"syncs={result.plan.synchronization_count} "
        f"bytes={result.stats.bytes_total} rounds={result.stats.round_count} "
        f"root-link bytes={choice.measured_root_link_bytes}",
        file=out,
    )
    print(f"merge topology={choice.topology} — {choice.reason}", file=out)
    print(statement.apply_post(result.relation).pretty(args.max_rows), file=out)
    return 0


def _run_trace_flight(args, out) -> int:
    """Post-mortem: render flight-recorder dump(s) instead of running."""
    import json
    import os

    from repro.errors import ObservabilityError
    from repro.obs import EventLog, load_flight_dir

    try:
        if os.path.isdir(args.flight):
            logs = load_flight_dir(args.flight)
        else:
            logs = [EventLog.load(args.flight)]
        if any(log.origin is None for log in logs):
            raise ObservabilityError(
                f"{args.flight}: a trace, not a flight dump (its header "
                "names no ring)"
            )
    except (OSError, ObservabilityError) as error:
        print(f"repro trace --flight: {error}", file=sys.stderr)
        return 2

    if args.json:
        for log in logs:
            out.write(log.dumps())
        return 0

    for log in logs:
        ring = log.origin
        label = f"site {ring['site_id']}" if ring["site_id"] else ring["process"]
        print(
            f"flight [{label}]: {len(log.records)} records "
            f"(capacity {ring['capacity']}, dropped {ring['dropped']})",
            file=out,
        )
        for entry in log.records:
            kind = entry.get("record", "event")
            detail = {
                key: value
                for key, value in entry.items()
                if key not in ("record", "t_s")
            }
            if kind == "span":
                start = detail.get("start_s")
                end = detail.get("end_s")
                if isinstance(start, (int, float)) and isinstance(
                    end, (int, float)
                ):
                    duration = f"{(end - start) * 1000:.2f}ms"
                else:
                    duration = "open"
                site = (detail.get("attributes") or {}).get("site")
                suffix = f" site={site}" if site else ""
                print(
                    f"  span  {detail.get('name', '?')} {duration}{suffix}",
                    file=out,
                )
            else:
                tag = "FAULT" if kind == "fault" else "event"
                print(
                    f"  {tag} {json.dumps(detail, sort_keys=True)}", file=out
                )
    return 0


def run_trace(args, out) -> int:
    from repro.net.costmodel import WAN
    from repro.obs import (
        ClockMap,
        MetricsRegistry,
        Tracer,
        build_trace,
        render_profile,
    )
    from repro.distributed.stats import verify_against_network

    if args.flight is not None:
        return _run_trace_flight(args, out)
    if args.query is None:
        print("trace: a query (or --flight PATH) is required", file=sys.stderr)
        return 2
    if _topology_label(args.topology) != "flat":
        print(
            f"tracing supports the star topology only, got {args.topology!r}",
            file=sys.stderr,
        )
        return 2
    statement = parse_olap_statement(args.query)
    cluster = _build_cluster(args)

    tracer = Tracer()
    registry = MetricsRegistry()
    cluster.reset_network(metrics=registry)
    result = execute_query(
        cluster,
        statement.expression,
        _options(args),
        config=_config(args),
        tracer=tracer,
        metrics=registry,
    )

    clock_map = (
        ClockMap.from_dict(result.stats.clock_offsets)
        if result.stats.clock_offsets
        else None
    )
    log = build_trace(tracer, registry, result.stats, model=WAN, clock_map=clock_map)
    if args.emit_trace:
        log.dump(args.emit_trace)
    if args.json:
        out.write(log.dumps())
        return 0

    mismatches = verify_against_network(result.stats, cluster.network)
    print(result.plan.describe(), file=out)
    _print_recovery(result.stats, out)
    print(render_profile(result.stats, WAN), file=out)
    print(
        f"trace: {len(tracer.spans)} spans, {len(registry)} metrics"
        + (f", clock-synced {len(clock_map)} site(s)" if clock_map else "")
        + (f", written to {args.emit_trace}" if args.emit_trace else ""),
        file=out,
    )
    for mismatch in mismatches:  # pragma: no cover - bookkeeping invariant
        print(f"WARNING stats/network mismatch — {mismatch}", file=sys.stderr)
    return 1 if mismatches else 0


def run_explain(args, out) -> int:
    import json

    from repro.distributed.costing import (
        StatisticsStore,
        estimate_optimization_impacts,
    )
    from repro.distributed.optimizer import plan_query

    statement = parse_olap_statement(args.query)
    cluster = _build_cluster(args)
    options = _options(args)
    statistics = StatisticsStore.from_cluster(cluster)

    if not args.analyze:
        from repro.distributed import choose_topology

        plan = plan_query(statement.expression, cluster.catalog, options)
        impacts = estimate_optimization_impacts(
            statement.expression, cluster.catalog, statistics,
            options=options, plan=plan,
        )
        choice = choose_topology(plan, statistics, cluster.catalog)
        if args.json:
            print(
                json.dumps(
                    {
                        "plan": plan.describe(),
                        "notes": list(plan.notes),
                        "optimizations": [
                            impact.to_dict() for impact in impacts
                        ],
                        "topology": choice.to_dict(),
                    },
                    indent=2,
                    sort_keys=True,
                ),
                file=out,
            )
            return 0
        print(plan.describe(), file=out)
        print(f"merge topology [{choice.topology}]: {choice.reason}", file=out)
        if impacts:
            print("optimizations (estimated by ablation):", file=out)
            for impact in impacts:
                print(
                    f"  - {impact.name}: {impact.description}; "
                    f"estimated {impact.estimated_without_tuples:.0f} tuples "
                    f"without, {impact.estimated_with_tuples:.0f} with "
                    f"({impact.saving_fraction:.1%} saved)",
                    file=out,
                )
        for note in plan.notes:
            print(f"  note: {note}", file=out)
        return 0

    from repro.distributed import execute_plan_scheduled
    from repro.errors import PlanError
    from repro.net.costmodel import WAN
    from repro.obs import MetricsRegistry, Tracer, build_trace
    from repro.obs.profile import build_profile, render_profile

    tracer = Tracer()
    registry = MetricsRegistry()
    cluster.reset_network(metrics=registry)
    plan = plan_query(statement.expression, cluster.catalog, options)
    config = _config(args)
    try:
        result = execute_plan_scheduled(
            cluster, plan, config,
            tracer=tracer, metrics=registry, query_id=1,
            statistics=statistics, topology=_topology_label(args.topology),
        )
    except PlanError as error:
        print(f"repro explain: {error}", file=sys.stderr)
        return 2
    impacts = estimate_optimization_impacts(
        statement.expression, cluster.catalog, statistics,
        options=options, measured_stats=result.stats, plan=result.plan,
    )
    profile = build_profile(
        tracer.finished(),
        result.stats.to_dict(WAN),
        impacts=impacts,
        plan_description=result.plan.describe(),
        notes=result.plan.notes,
        query_id=1,
        topology_choice=result.topology_choice,
    )
    if args.emit_trace:
        # The trace carries everything the profile adds to the snapshot,
        # so `profile_from_trace` rebuilds exactly what --json prints.
        log = build_trace(tracer, registry, result.stats, model=WAN, query_id=1)
        log.append(
            "plan",
            describe=profile["plan_description"],
            notes=profile["notes"],
            optimizations=profile["optimizations"],
            topology=result.topology_choice.to_dict(),
            query_id=1,
        )
        log.dump(args.emit_trace)
    if args.json:
        print(
            json.dumps(profile, indent=2, sort_keys=True, default=str),
            file=out,
        )
    else:
        print(render_profile(profile), file=out)
    _print_recovery(result.stats, out)
    if result.stats.transport == "sockets":
        print(result.stats.transport_summary(), file=out)
    time_coverage = profile["time_coverage"]
    bytes_coverage = profile["bytes_coverage"]
    ok = time_coverage >= 0.95 and bytes_coverage >= 0.999
    if not ok:  # pragma: no cover - attribution invariant
        print(
            f"WARNING: attribution below acceptance bars — time "
            f"{time_coverage:.1%} (need >= 95%), bytes "
            f"{bytes_coverage:.1%} (need 100%)",
            file=sys.stderr,
        )
    return 0 if ok else 1


def run_top(args, out) -> int:
    from repro.obs.top import cluster_top_loop, top_loop

    if args.cluster:
        from repro.distributed.deployment import ProcessCluster
        from repro.errors import DeploymentError
        from repro.obs import (
            MetricsRegistry,
            parse_prometheus_text,
            prometheus_text,
        )

        try:
            deployed = ProcessCluster.attach(args.cluster)
        except DeploymentError as error:
            print(f"repro top --cluster: {error}", file=sys.stderr)
            return 2
        _ACTIVE_DEPLOYMENTS.append(deployed)

        def scrape_cluster():
            # Round-trip through the exposition so the panel sees exactly
            # what a Prometheus scrape of this registry would.
            registry = deployed.scrape(MetricsRegistry())
            return parse_prometheus_text(prometheus_text(registry))

        return cluster_top_loop(
            scrape_cluster,
            label=f"cluster {args.cluster}",
            interval_s=args.interval,
            iterations=args.iterations,
            out=out,
        )

    url = args.url or f"http://{args.host}:{args.port}/metrics"
    return top_loop(
        url, interval_s=args.interval, iterations=args.iterations, out=out
    )


def run_diff(args, out) -> int:
    import json

    from repro.errors import ObservabilityError
    from repro.obs.diff import diff_artifacts, render_diff

    try:
        diff = diff_artifacts(
            args.before,
            args.after,
            threshold=args.threshold,
            query_id=args.query_id,
        )
    except (OSError, ObservabilityError) as error:
        print(f"repro diff: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(render_diff(diff), file=out)
    return 1 if diff.regressions() else 0


def _service_metrics_line(service) -> str:
    metrics = service.metrics
    return (
        f"cache: hits={int(metrics.value_of('service.cache.hit'))} "
        f"misses={int(metrics.value_of('service.cache.miss'))} "
        f"refreshes={int(metrics.value_of('service.cache.refresh'))} "
        f"rejected={int(metrics.value_of('service.admission.rejected'))}"
    )


def run_serve(args, out) -> int:
    from repro.service import QueryService
    from repro.service.selftest import run_self_test

    if args.self_test:
        return run_self_test(
            out,
            sites=args.sites,
            executor=args.executor,
            clients=args.clients,
        )

    cluster = _build_cluster(args)
    table = "Flow" if args.data == "flows" else "TPCR"
    service = QueryService(
        cluster,
        _config(args),
        _options(args),
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
    )
    print(
        f"serving {table} over {args.sites} sites [{args.executor}] — "
        "enter SQL (blank line or 'exit' to quit, '\\metrics' for counters)",
        file=out,
    )
    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs.export import start_metrics_server

        # Against a process deployment, /healthz goes degraded (503 +
        # dead-site list) when any site-server stops answering pings.
        health_probe = getattr(cluster, "dead_sites", None)
        metrics_server = start_metrics_server(
            service.metrics, port=args.metrics_port, health_probe=health_probe
        )
        print(f"metrics: {metrics_server.url}", file=out)
    try:
        with service:
            for line in sys.stdin:
                statement_text = line.strip()
                if not statement_text or statement_text.lower() in ("exit", "quit"):
                    break
                if statement_text == "\\metrics":
                    print(_service_metrics_line(service), file=out)
                    continue
                try:
                    result = service.submit(statement_text)
                except Exception as error:  # noqa: BLE001 - REPL keeps serving
                    print(f"error: {type(error).__name__}: {error}", file=out)
                    continue
                print(
                    f"[{result.source}] query {result.query_id} "
                    f"({result.wall_s * 1000:.1f} ms)",
                    file=out,
                )
                print(result.relation.pretty(args.max_rows), file=out)
            print(_service_metrics_line(service), file=out)
    finally:
        if metrics_server is not None:
            # Explicit stop (not just close): releases the listening
            # socket and joins the serving thread, so a quick restart of
            # `repro serve --metrics-port` can rebind without EADDRINUSE.
            metrics_server.stop()
    return 0


def run_query(args, out) -> int:
    from repro.service import QueryService

    if args.repeat < 1:
        print("--repeat must be >= 1", file=sys.stderr)
        return 2
    cluster = _build_cluster(args)
    with QueryService(cluster, _config(args), _options(args)) as service:
        results = [service.submit(args.query) for _ in range(args.repeat)]
        for result in results:
            print(
                f"[{result.source}] query {result.query_id} "
                f"({result.wall_s * 1000:.1f} ms)",
                file=out,
            )
        print(_service_metrics_line(service), file=out)
        print(results[-1].relation.pretty(args.max_rows), file=out)
    return 0


def run_figures(args, out) -> int:
    from repro.bench import figure2, figure2_aware, figure3, figure4, figure5

    name = args.name
    if name in ("fig2", "all"):
        series, formula = figure2(scale=args.scale)
        print(series.show(), file=out)
        for point in formula:
            print(
                f"  n={point.sites}: predicted={point.predicted_ratio:.4f} "
                f"measured={point.measured_ratio:.4f}",
                file=out,
            )
        print(file=out)
    if name in ("fig2x", "all"):
        print(figure2_aware(scale=args.scale).show(), file=out)
        print(file=out)
    if name in ("fig3", "all"):
        result = figure3(scale=args.scale)
        print(result["high"].show(), file=out)
        print(result["low"].show(), file=out)
        print(file=out)
    if name in ("fig4", "all"):
        result = figure4(scale=args.scale)
        print(result["high"].show(), file=out)
        print(result["low"].show(), file=out)
        print(file=out)
    if name in ("fig5", "all"):
        print(figure5(base_scale=args.scale).show(), file=out)
        print(file=out)
    return 0


def run_site_server(args, out) -> int:
    from repro.distributed.siteserver import run_site_server as serve_site
    from repro.errors import DeploymentError

    try:
        serve_site(args.store, args.site, host=args.host, port=args.port)
    except DeploymentError as error:
        print(f"repro site-server: {error}", file=sys.stderr)
        return 2
    return 0


def run_cluster(args, out) -> int:
    from repro.distributed.deployment import (
        ProcessCluster,
        shutdown_deployment,
    )
    from repro.distributed.siteserver import write_partition_store
    from repro.errors import DeploymentError

    if args.cluster_command == "up":
        simulated = SimulatedCluster.with_sites(args.sites)
        _load_cluster_data(simulated, args)
        write_partition_store(simulated, args.dir)
        # The site-server children run in their own sessions, so they
        # keep serving after this command exits; the deployment spec is
        # what later attaches/downs find.
        deployed = ProcessCluster.deploy(args.dir, host=args.host)
        table = "Flow" if args.data == "flows" else "TPCR"
        print(
            f"cluster up: {deployed.site_count} site-server processes "
            f"serving {table} from {args.dir}",
            file=out,
        )
        for site_id in deployed.site_ids:
            print(
                f"  {site_id}: {deployed.host}:{deployed._ports[site_id]}",
                file=out,
            )
        print(
            "attach with: repro sql '<query>' --executor sockets "
            f"--cluster-dir {args.dir}",
            file=out,
        )
        # Drop connections but leave the processes running.
        deployed.network.close()
        return 0

    if args.cluster_command == "down":
        try:
            stopped = shutdown_deployment(args.dir)
        except DeploymentError as error:
            print(f"repro cluster down: {error}", file=sys.stderr)
            return 2
        print(f"cluster down: {stopped} site(s) acknowledged shutdown", file=out)
        return 0

    if args.cluster_command == "dump":
        try:
            deployed = ProcessCluster.attach(args.dir)
        except DeploymentError as error:
            print(f"repro cluster dump: {error}", file=sys.stderr)
            return 2
        try:
            paths = deployed.dump_flight(args.out)
            dead = deployed.dead_sites()
        finally:
            deployed.network.close()
        print(f"cluster dump: {len(paths)} flight record(s)", file=out)
        for path in paths:
            print(f"  {path}", file=out)
        if dead:
            print(
                f"  dead site(s): {', '.join(dead)} — their dumps are the "
                "last per-request crash dumps",
                file=out,
            )
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return run_demo(args, out)
        if args.command == "sql":
            return run_sql(args, out)
        if args.command == "trace":
            return run_trace(args, out)
        if args.command == "explain":
            return run_explain(args, out)
        if args.command == "serve":
            return run_serve(args, out)
        if args.command == "top":
            return run_top(args, out)
        if args.command == "diff":
            return run_diff(args, out)
        if args.command == "query":
            return run_query(args, out)
        if args.command == "figures":
            return run_figures(args, out)
        if args.command == "site-server":
            return run_site_server(args, out)
        if args.command == "cluster":
            return run_cluster(args, out)
        if args.command == "report":
            from repro.bench.report import make_markdown_report

            print(make_markdown_report(scale=args.scale), file=out)
            return 0
        return 2  # pragma: no cover - argparse enforces the choices
    finally:
        while _ACTIVE_DEPLOYMENTS:
            _ACTIVE_DEPLOYMENTS.pop().close()


if __name__ == "__main__":
    sys.exit(main())
