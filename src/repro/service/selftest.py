"""Concurrency smoke test for the query service (``repro serve --self-test``).

Builds a small flows warehouse, fires a batch of mixed queries from
client threads through one :class:`~repro.service.QueryService`, and
checks three things end to end:

1. every concurrent answer equals the serial single-query reference,
   row for row;
2. the cache accounting reconciles: hits + misses + refreshes equals
   queries served, and the number of *evaluations actually run* equals
   the misses;
3. an append followed by re-queries upgrades cached entries through
   their sub-aggregate state (``refresh``), again matching a fresh
   evaluation exactly.

Exit status 0 = all checks passed. The test runs on an in-process
cluster under the ``serial`` engine; it refuses ``sockets`` with one line
and exit status 1, because it appends and a site server takes no appends.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

from repro.data.flows import FlowConfig, generate_flows, router_partitioner
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.evaluator import ExecutionConfig
from repro.service.service import HIT, REFRESH, QueryService

QUERIES = (
    "SELECT SourceAS, COUNT(*) AS cnt, SUM(NumPackets) AS packets "
    "FROM Flow GROUP BY SourceAS",
    "SELECT DestAS, COUNT(*) AS cnt, MAX(NumPackets) AS biggest "
    "FROM Flow GROUP BY DestAS",
)


def _build_cluster(sites: int, flow_count: int) -> tuple:
    config = FlowConfig(flow_count=flow_count, router_count=sites)
    cluster = SimulatedCluster.with_sites(sites)
    cluster.load_partitioned(
        "Flow", generate_flows(config), router_partitioner(config)
    )
    return cluster, config


def run_self_test(
    out=None,
    *,
    sites: int = 3,
    executor: str = "serial",
    clients: int = 8,
    flow_count: int = 400,
) -> int:
    out = out or sys.stdout
    if executor == "sockets":
        print("self-test: not over sockets: it appends, and a site server takes none", file=out)
        return 1
    cluster, flow_config = _build_cluster(sites, flow_count)
    service = QueryService(
        cluster,
        ExecutionConfig(executor=executor),
        max_in_flight=max(2, clients // 2),
        max_queue=clients * 2,
    )
    failures = []
    with service:
        # Serial reference answers, computed through the same service
        # (cold cache misses) before any concurrency.
        reference = {sql: service.submit(sql).relation for sql in QUERIES}
        baseline_misses = service.metrics.value_of("service.cache.miss")

        batch = [QUERIES[index % len(QUERIES)] for index in range(clients)]
        with ThreadPoolExecutor(max_workers=clients) as pool:
            results = list(pool.map(service.submit, batch))
        for sql, result in zip(batch, results):
            if result.relation.rows != reference[sql].rows:
                failures.append(f"concurrent answer diverged for: {sql}")
        hits = service.metrics.value_of("service.cache.hit")
        misses = service.metrics.value_of("service.cache.miss")
        if hits != clients:
            failures.append(f"expected {clients} cache hits, saw {hits}")
        if misses != baseline_misses:
            failures.append(
                f"concurrent batch should be all hits, saw "
                f"{misses - baseline_misses} extra miss(es)"
            )

        # Append a delta and re-query: entries must upgrade via refresh.
        delta_config = FlowConfig(
            flow_count=50, router_count=sites, seed=flow_config.seed + 1
        )
        delta_rows = generate_flows(delta_config)
        # Split with the same partitioner that loaded the warehouse, so
        # appended rows respect the catalog's site predicates.
        per_site = dict(
            zip(cluster.site_ids, router_partitioner(delta_config).split(delta_rows))
        )
        service.append("Flow", per_site)
        for sql in QUERIES:
            upgraded = service.submit(sql)
            if upgraded.source != REFRESH:
                failures.append(
                    f"expected refresh upgrade after append, got "
                    f"{upgraded.source!r} for: {sql}"
                )
        fresh_cluster, _ = _build_cluster(sites, flow_count)
        fresh_cluster.append("Flow", per_site)
        with QueryService(
            fresh_cluster, ExecutionConfig(executor="serial")
        ) as fresh_service:
            for sql in QUERIES:
                expected = fresh_service.submit(sql).relation
                upgraded = service.submit(sql)  # now a pure hit
                if upgraded.source != HIT:
                    failures.append(
                        f"expected hit after upgrade, got {upgraded.source!r}"
                    )
                if upgraded.relation.rows != expected.rows:
                    failures.append(f"refreshed answer diverged for: {sql}")

        refreshes = service.metrics.value_of("service.cache.refresh")
        queries = service.metrics.value_of("service.queries")
        total_hits = service.metrics.value_of("service.cache.hit")
        total_misses = service.metrics.value_of("service.cache.miss")
        if total_hits + total_misses + refreshes != queries:
            failures.append(
                f"cache accounting does not reconcile: {total_hits} hits + "
                f"{total_misses} misses + {refreshes} refreshes != "
                f"{queries} queries"
            )

        print(
            f"self-test [{executor}] sites={sites} clients={clients}: "
            f"queries={int(queries)} hits={int(total_hits)} "
            f"misses={int(total_misses)} refreshes={int(refreshes)}",
            file=out,
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=out)
        return 1
    print("self-test passed", file=out)
    return 0
