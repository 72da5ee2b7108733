"""Tests for the concurrent query service and its result cache.

The service's determinism contract is checked the strict way everywhere:
``.rows ==`` (bit-identical tuples, not multiset-with-tolerance),
because hits are served verbatim and refresh-upgraded answers must be
value-identical to a fresh evaluation over the grown data.
"""

import gc
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import InProcessFanOut
from repro.data.flows import FlowConfig, generate_flows, router_partitioner
from repro.distributed import SimulatedCluster
from repro.distributed.evaluator import ExecutionConfig, execute_plan
from repro.distributed.executor import EXECUTORS
from repro.distributed.optimizer import plan_query
from repro.distributed.site import SkallaSite
from repro.errors import AdmissionError, QueryTimeoutError, ServiceError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.net.faults import FaultPlan
from repro.obs import Tracer
from repro.queries.sql import parse_olap_statement
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.service import FRESH, HIT, REFRESH, PlanSignature, QueryService
from repro.service import service as service_module
from repro.service.service import DEGRADED

SITES = 3
FLOWS = 300

COUNT_BY_SOURCE = (
    "SELECT SourceAS, COUNT(*) AS cnt, SUM(NumPackets) AS packets "
    "FROM Flow GROUP BY SourceAS"
)
MAX_BY_DEST = (
    "SELECT DestAS, COUNT(*) AS cnt, MAX(NumPackets) AS biggest "
    "FROM Flow GROUP BY DestAS"
)


def build_cluster(sites: int = SITES, flow_count: int = FLOWS) -> SimulatedCluster:
    config = FlowConfig(flow_count=flow_count, router_count=sites)
    cluster = SimulatedCluster.with_sites(sites)
    cluster.load_partitioned(
        "Flow", generate_flows(config), router_partitioner(config)
    )
    return cluster


def make_delta(cluster, sites: int = SITES, count: int = 40, seed: int = 99):
    """Per-site delta rows split with the loading partitioner, so the
    appended rows respect the catalog's site predicates."""
    config = FlowConfig(flow_count=count, router_count=sites, seed=seed)
    rows = generate_flows(config)
    return dict(zip(cluster.site_ids, router_partitioner(config).split(rows)))


def grown_reference(sql, per_site, sites: int = SITES, flow_count: int = FLOWS):
    """Fresh serial evaluation on an identically loaded + grown cluster."""
    cluster = build_cluster(sites, flow_count)
    for site_id, delta in per_site.items():
        cluster.site(site_id).warehouse.append("Flow", delta)
    with QueryService(cluster, ExecutionConfig(executor="serial")) as service:
        return service.submit(sql).relation


# ---------------------------------------------------------------------------
# Cache correctness
# ---------------------------------------------------------------------------


class TestCache:
    def test_hit_is_bit_identical_to_fresh_evaluation(self):
        with QueryService(build_cluster()) as service:
            first = service.submit(COUNT_BY_SOURCE)
            second = service.submit(COUNT_BY_SOURCE)
        assert first.source == FRESH
        assert second.source == HIT
        assert second.from_cache
        assert second.relation.rows == first.relation.rows
        assert second.relation.schema.names == first.relation.schema.names

    def test_distinct_queries_get_distinct_slots(self):
        with QueryService(build_cluster()) as service:
            assert service.submit(COUNT_BY_SOURCE).source == FRESH
            assert service.submit(MAX_BY_DEST).source == FRESH
            assert service.submit(COUNT_BY_SOURCE).source == HIT
            assert service.submit(MAX_BY_DEST).source == HIT

    def test_commutatively_equal_expressions_share_one_slot(self):
        """AND order and comparison orientation are normalized away by
        the canonical fingerprint: the rewritten query is a cache hit."""
        key = base.SourceAS == detail.SourceAS
        extra = detail.NumPackets > 5
        aggs = [count_star("cnt"), AggSpec("sum", detail.NumPackets, "packets")]
        original = GMDJExpression(
            DistinctBase("Flow", ["SourceAS"]),
            [MDStep("Flow", [MDBlock(aggs, key & extra)])],
        )
        flipped = GMDJExpression(
            DistinctBase("Flow", ["SourceAS"]),
            [MDStep("Flow", [MDBlock(aggs, (5 < detail.NumPackets) & key)])],
        )
        assert original.fingerprint() == flipped.fingerprint()
        with QueryService(build_cluster()) as service:
            first = service.submit(original)
            second = service.submit(flipped)
        assert first.source == FRESH
        assert second.source == HIT
        assert second.relation.rows == first.relation.rows

    def test_append_upgrades_entry_via_refresh(self):
        cluster = build_cluster()
        with QueryService(cluster) as service:
            before = service.submit(COUNT_BY_SOURCE)
            per_site = make_delta(cluster)
            versions = service.append("Flow", per_site)
            assert set(versions) == set(cluster.site_ids)
            upgraded = service.submit(COUNT_BY_SOURCE)
            again = service.submit(COUNT_BY_SOURCE)
        assert upgraded.source == REFRESH
        assert upgraded.relation.rows != before.relation.rows
        assert upgraded.relation.rows == grown_reference(
            COUNT_BY_SOURCE, per_site
        ).rows
        # The upgraded entry is a plain hit afterwards.
        assert again.source == HIT
        assert again.relation.rows == upgraded.relation.rows

    def test_fresh_query_after_append_reads_the_grown_partitions(self):
        """An engine the service keeps across queries must read the
        partitions as they are now, not as they were when it was built."""
        cluster = build_cluster()
        with QueryService(cluster) as service:
            service.submit(MAX_BY_DEST)
            per_site = make_delta(cluster)
            service.append("Flow", per_site)
            result = service.submit(COUNT_BY_SOURCE)
        assert result.source == FRESH
        assert result.relation.rows == grown_reference(
            COUNT_BY_SOURCE, per_site
        ).rows

    def test_append_bypassing_the_service_refreshes_not_a_wrong_hit(self):
        cluster = build_cluster()
        with QueryService(cluster) as service:
            service.submit(COUNT_BY_SOURCE)
            per_site = make_delta(cluster)
            # Straight to the warehouses: the sites' append logs hold the
            # rows all the same, so the entry refreshes from them — and is
            # never served stale.
            for site_id, delta in per_site.items():
                cluster.site(site_id).warehouse.append("Flow", delta)
            result = service.submit(COUNT_BY_SOURCE)
        assert result.source == REFRESH
        assert result.relation.rows == grown_reference(
            COUNT_BY_SOURCE, per_site
        ).rows

    @pytest.mark.parametrize("legs, replaced", [("serial", 1), ("fanout", 2)])
    def test_a_replaced_partition_is_a_miss_not_a_refresh(self, legs, replaced, monkeypatch):
        """A site whose table was re-registered since the cached view's
        version refuses the refresh round (its append log starts over);
        the submit is then a plain miss. With the legs fanned out, two such
        sites fail as one MultiLegError of refusals."""
        if legs == "fanout":
            monkeypatch.setattr(
                service_module, "create_engine",
                lambda _executor, sites, tracer, _network: InProcessFanOut(sites, tracer),
            )

        def replace(cluster, per_site):
            for site_id in cluster.site_ids[:replaced]:
                warehouse = cluster.site(site_id).warehouse
                warehouse.register("Flow", warehouse.table("Flow").union_all(per_site[site_id]))

        cluster = build_cluster()
        config = ExecutionConfig()
        with QueryService(cluster, config) as service:
            service.submit(COUNT_BY_SOURCE)
            per_site = make_delta(cluster)
            replace(cluster, per_site)
            result = service.submit(COUNT_BY_SOURCE)
            again = service.submit(COUNT_BY_SOURCE)
        cold = build_cluster()
        replace(cold, per_site)
        with QueryService(cold, config) as cold_service:
            expected = cold_service.submit(COUNT_BY_SOURCE).relation
        assert result.source == FRESH
        assert result.relation.rows == expected.rows
        assert again.source == HIT

    def test_a_refreshable_miss_evaluates_the_plan_once(self, monkeypatch):
        """Caching a miss adds no site work: the view starts from the run's
        own synchronized sub-aggregates, so the sites see exactly the calls
        of the same plan run outside the service."""
        calls = Counter()
        for name in ("compute_base", "evaluate_round", "evaluate_merged_round"):
            def counted(site, *args, _name=name, _method=getattr(SkallaSite, name), **kwargs):
                calls[_name] += 1
                return _method(site, *args, **kwargs)

            monkeypatch.setattr(SkallaSite, name, counted)
        config = ExecutionConfig(executor="serial")
        expression = parse_olap_statement(COUNT_BY_SOURCE).expression
        cluster = build_cluster()
        execute_plan(cluster, plan_query(expression, cluster.catalog), config)
        alone = dict(calls)
        calls.clear()
        with QueryService(cluster, config) as service:
            result = service.submit(expression)
            entry = service.cache.get(result.signature)
        assert result.source == FRESH
        assert entry.view is not None
        assert sum(alone.values()) > 0
        assert dict(calls) == alone

    def test_a_degraded_run_is_never_cached(self):
        cluster = build_cluster()
        cluster.install_faults(FaultPlan.parse("crash site=site1 times=2"))
        config = ExecutionConfig(
            executor="serial", failure_mode="degrade", max_retries=1
        )
        with QueryService(cluster, config) as service:
            degraded = service.submit(COUNT_BY_SOURCE)
            cluster.install_faults(None)
            again = service.submit(COUNT_BY_SOURCE)
            uncacheable = service.metrics.value_of("service.cache.uncacheable")
        assert degraded.outcome == DEGRADED
        assert again.source == FRESH
        assert again.outcome == FRESH
        assert uncacheable == 1
        with QueryService(build_cluster(), ExecutionConfig(executor="serial")) as clean:
            assert again.relation.rows == clean.submit(COUNT_BY_SOURCE).relation.rows

    def test_a_refresh_retries_a_dropped_reply(self):
        """A refresh's rounds are the evaluator's: under ``retry`` a reply
        lost on its way up is asked for again, as in a fresh run."""
        cluster = build_cluster()
        config = ExecutionConfig(failure_mode="retry", retry_backoff_s=0.0)
        with QueryService(cluster, config) as service:
            service.submit(COUNT_BY_SOURCE)
            per_site = make_delta(cluster)
            service.append("Flow", per_site)
            cluster.install_faults(
                FaultPlan.parse("drop site=site0 round=1 dir=up times=1")
            )
            refreshed = service.submit(COUNT_BY_SOURCE)
        assert refreshed.source == REFRESH
        assert refreshed.stats.retries >= 1
        assert refreshed.relation.rows == grown_reference(
            COUNT_BY_SOURCE, per_site
        ).rows

    def test_a_degraded_refresh_is_a_miss_and_leaves_the_view(self):
        """A refresh round that excluded a site would fold a delta without
        that site's rows: the submit is a full evaluation instead, and the
        view still refreshes exactly once the site is back."""
        cluster = build_cluster()
        config = ExecutionConfig(
            failure_mode="degrade", max_retries=1, retry_backoff_s=0.0
        )
        with QueryService(cluster, config) as service:
            service.submit(COUNT_BY_SOURCE)
            per_site = make_delta(cluster)
            service.append("Flow", per_site)
            # Each submit's network crashes site1 twice in round 1: the
            # refresh and the full evaluation after it both lose the site.
            cluster.install_faults(FaultPlan.parse("crash site=site1 round=1 times=2"))
            degraded = service.submit(COUNT_BY_SOURCE)
            cluster.install_faults(None)
            again = service.submit(COUNT_BY_SOURCE)
        assert degraded.source == FRESH
        assert degraded.outcome == DEGRADED
        assert again.source == REFRESH
        assert again.relation.rows == grown_reference(COUNT_BY_SOURCE, per_site).rows

    def test_a_refresh_is_traced_round_by_round(self):
        tracer = Tracer()
        cluster = build_cluster()
        with QueryService(cluster, tracer=tracer) as service:
            service.submit(COUNT_BY_SOURCE)
            service.append("Flow", make_delta(cluster))
            mark = len(tracer.spans)
            refreshed = service.submit(COUNT_BY_SOURCE)
        spans = list(tracer.spans)[mark:]
        by_id = {span.span_id: span for span in tracer.spans}

        def ancestors(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                yield span.name

        assert refreshed.source == REFRESH
        rounds = [span for span in spans if span.name == "round"]
        assert len(rounds) == len(refreshed.stats.rounds) >= 1
        evaluated = [span for span in spans if span.name == "round.evaluate"]
        assert evaluated
        assert all("round" in ancestors(span) for span in evaluated)
        encoded = {span.kind for span in spans if span.name == "round.encode"}
        assert encoded == {"coordinator", "site"}

    def test_a_refresh_ships_row_blocks(self):
        """The refresh's site requests carry the config's row block size,
        so its replies come up in more messages than whole ones."""
        per_site = make_delta(build_cluster())

        def refresh_up_messages(row_block_size):
            cluster = build_cluster()
            config = ExecutionConfig(row_block_size=row_block_size)
            with QueryService(cluster, config) as service:
                service.submit(COUNT_BY_SOURCE)
                service.append("Flow", per_site)

                def up_messages():
                    return sum(
                        service.metrics.value_of("net.messages", direction="up", site=site_id)
                        for site_id in cluster.site_ids
                    )

                before = up_messages()
                refreshed = service.submit(COUNT_BY_SOURCE)
                assert refreshed.source == REFRESH
                assert refreshed.relation.rows == grown_reference(
                    COUNT_BY_SOURCE, per_site
                ).rows
                return up_messages() - before

        whole = refresh_up_messages(0)
        assert refresh_up_messages(4) > whole > 0

    def test_an_appended_delta_is_not_kept_past_a_full_read(self):
        """The service logs the versions it appended, not the rows: once
        a full read folds the sites' append logs, nothing holds a delta."""

        class Delta(Relation):  # a Relation with a __weakref__ slot
            pass

        cluster = build_cluster()
        with QueryService(cluster) as service:
            service.submit(COUNT_BY_SOURCE)
            per_site = {
                site_id: Delta(delta.schema, delta.rows)
                for site_id, delta in make_delta(cluster).items()
            }
            freed = [weakref.ref(delta) for delta in per_site.values()]
            service.append("Flow", per_site)
            assert service.submit(COUNT_BY_SOURCE).source == REFRESH
            cluster.conceptual_table("Flow")
            del per_site
            gc.collect()
            assert [ref() for ref in freed] == [None] * len(freed)

    def test_catalog_change_invalidates(self):
        cluster = build_cluster()
        with QueryService(cluster) as service:
            first = service.submit(COUNT_BY_SOURCE)
            cluster.catalog.add_functional_dependency("SourceAS", "DestAS")
            second = service.submit(COUNT_BY_SOURCE)
            assert second.source == FRESH  # plan could differ: no hit
            assert first.signature.plan_key != second.signature.plan_key
            # The new catalog's slot works normally from here on.
            assert service.submit(COUNT_BY_SOURCE).source == HIT

    def test_signature_version_gaps(self):
        cluster = build_cluster()
        expression = GMDJExpression(
            DistinctBase("Flow", ["SourceAS"]),
            [MDStep("Flow", [MDBlock([count_star("cnt")], base.SourceAS == detail.SourceAS)])],
        )
        old = PlanSignature.compute(cluster, expression)
        assert old.version_gaps(old) == ()
        per_site = make_delta(cluster)
        for site_id, delta in per_site.items():
            cluster.site(site_id).warehouse.append("Flow", delta)
        new = PlanSignature.compute(cluster, expression)
        gaps = old.version_gaps(new)
        assert gaps is not None and len(gaps) == SITES
        assert all(table == "Flow" and newer > older for table, _site, older, newer in gaps)
        # Backwards (a drop/re-register) is never upgrade-comparable.
        assert new.version_gaps(old) is None
        # Neither is a different catalog.
        cluster.catalog.add_functional_dependency("SourceAS", "DestAS")
        assert new.version_gaps(PlanSignature.compute(cluster, expression)) is None


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


class TestConcurrency:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_concurrent_mixed_workload_equals_serial(self, executor, tmp_path):
        import contextlib

        reference_cluster = build_cluster()
        reference = {}
        with QueryService(
            reference_cluster, ExecutionConfig(executor="serial")
        ) as reference_service:
            for sql in (COUNT_BY_SOURCE, MAX_BY_DEST):
                reference[sql] = reference_service.submit(sql).relation

        clients = 8
        batch = [
            (COUNT_BY_SOURCE, MAX_BY_DEST)[index % 2] for index in range(clients)
        ]
        with contextlib.ExitStack() as stack:
            cluster = build_cluster()
            if executor == "sockets":
                # The sockets engine needs real site processes behind it.
                from repro.distributed.deployment import ProcessCluster

                cluster = stack.enter_context(
                    ProcessCluster.from_simulated(cluster, str(tmp_path / "store"))
                )
            service = stack.enter_context(
                QueryService(
                    cluster, ExecutionConfig(executor=executor), max_in_flight=4
                )
            )
            with ThreadPoolExecutor(max_workers=clients) as pool:
                results = list(pool.map(service.submit, batch))
            entries = [service.cache.get(result.signature) for result in results]
            metrics = service.metrics
            hits = metrics.value_of("service.cache.hit")
            misses = metrics.value_of("service.cache.miss")
            refreshes = metrics.value_of("service.cache.refresh")
            queries = metrics.value_of("service.queries")

        for sql, result in zip(batch, results):
            assert result.relation.rows == reference[sql].rows, sql
        # Accounting reconciles: every query was served exactly one way,
        # and the misses are exactly the evaluations actually run.
        assert hits + misses + refreshes == queries == clients
        assert refreshes == 0
        # Every cached entry can refresh, over sockets too: its view
        # starts from the run, not from the sites' objects.
        assert all(entry.view is not None for entry in entries)
        fresh_count = sum(1 for result in results if result.source == FRESH)
        assert fresh_count == misses >= 2  # both distinct queries evaluated

    def test_span_parent_integrity_under_concurrency(self):
        tracer = Tracer()
        clients = 6
        batch = [
            (COUNT_BY_SOURCE, MAX_BY_DEST)[index % 2] for index in range(clients)
        ]
        with QueryService(
            build_cluster(), tracer=tracer, max_in_flight=3
        ) as service:
            with ThreadPoolExecutor(max_workers=clients) as pool:
                results = list(pool.map(service.submit, batch))

        service_spans = tracer.spans_named("service.query")
        assert len(service_spans) == clients
        # service.query spans are roots and carry the serving outcome.
        by_id = {span.span_id: span for span in tracer.spans}
        outcomes = sorted(span.attributes["outcome"] for span in service_spans)
        assert outcomes == sorted(result.source for result in results)
        # Every evaluation ("query") span parents back through its
        # service.execute stage span to exactly one service.query span,
        # and misses line up one-to-one.
        query_spans = tracer.spans_named("query")
        fresh_count = sum(1 for result in results if result.source == FRESH)
        assert len(query_spans) == fresh_count
        for span in query_spans:
            parent = by_id[span.parent_id]
            assert parent.name == "service.execute"
            root = by_id[parent.parent_id]
            assert root.name == "service.query"
            assert root.attributes["outcome"] == FRESH
        # No span lost its parent (concurrent interleaving on the shared
        # tracer must not cross-wire the thread-local stacks).
        for span in tracer.spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id

    def test_append_is_writer_exclusive_and_upgrade_survives_races(self):
        cluster = build_cluster()
        with QueryService(cluster, max_in_flight=4) as service:
            service.submit(COUNT_BY_SOURCE)
            per_site = make_delta(cluster)
            service.append("Flow", per_site)
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = list(
                    pool.map(service.submit, [COUNT_BY_SOURCE] * 6)
                )
        expected = grown_reference(COUNT_BY_SOURCE, per_site).rows
        for result in results:
            assert result.relation.rows == expected
        # Exactly one thread performed the upgrade; the rest hit.
        sources = sorted(result.source for result in results)
        assert sources.count(REFRESH) == 1
        assert sources.count(HIT) == 5


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_queue_full_rejects(self):
        with QueryService(
            build_cluster(), max_in_flight=1, max_queue=0
        ) as service:
            service._acquire_slot(1.0)  # occupy the only slot
            try:
                with pytest.raises(AdmissionError):
                    service.submit(COUNT_BY_SOURCE)
            finally:
                service._release_slot()
            # Slot free again: the same query is served normally.
            assert service.submit(COUNT_BY_SOURCE).source == FRESH
            assert service.metrics.value_of("service.admission.rejected") == 1

    def test_waiter_times_out(self):
        with QueryService(
            build_cluster(), max_in_flight=1, max_queue=4
        ) as service:
            service._acquire_slot(1.0)
            try:
                with pytest.raises(QueryTimeoutError) as excinfo:
                    service.submit(COUNT_BY_SOURCE, timeout_s=0.05)
            finally:
                service._release_slot()
            assert excinfo.value.waited_s >= 0.05
            assert service.metrics.value_of("service.admission.timeout") == 1

    def test_fifo_admission_order(self):
        order = []
        lock = threading.Lock()
        with QueryService(
            build_cluster(), max_in_flight=1, max_queue=8
        ) as service:
            service._acquire_slot(1.0)  # force all clients to queue
            started = threading.Barrier(4)

            def client(tag):
                started.wait()
                # Stagger enqueueing deterministically: each client waits
                # for its predecessor to be in the queue.
                while len(service._queue) < tag:
                    pass
                result = service.submit(COUNT_BY_SOURCE)
                with lock:
                    order.append((tag, result.query_id))

            threads = [
                threading.Thread(target=client, args=(tag,)) for tag in range(4)
            ]
            for thread in threads:
                thread.start()
            while len(service._queue) < 4:
                pass
            service._release_slot()
            for thread in threads:
                thread.join()
        # Queue positions were 0..3; admission (and thus query id
        # assignment) must follow that FIFO order.
        assert [tag for tag, _query_id in sorted(order, key=lambda item: item[1])] == [
            0,
            1,
            2,
            3,
        ]

    def test_closed_service_refuses_new_work(self):
        service = QueryService(build_cluster())
        assert service.submit(COUNT_BY_SOURCE).source == FRESH
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceError):
            service.submit(COUNT_BY_SOURCE)

    def test_validation(self):
        cluster = build_cluster()
        with pytest.raises(ServiceError):
            QueryService(cluster, max_in_flight=0)
        with pytest.raises(ServiceError):
            QueryService(cluster, max_queue=-1)
        with pytest.raises(ServiceError):
            QueryService(cluster, admission_timeout_s=0)
        with QueryService(cluster) as service:
            with pytest.raises(ServiceError):
                service.submit(42)


# ---------------------------------------------------------------------------
# Service observability: pre-registered families, latency histogram, query ids
# ---------------------------------------------------------------------------


class TestServiceObservability:
    def test_metric_families_exist_before_any_traffic(self):
        # A /metrics scrape right after startup must show the service
        # families at zero instead of a missing series.
        with QueryService(build_cluster()) as service:
            metrics = service.metrics
            assert metrics.get("service.in_flight") is not None
            assert metrics.get("service.queue.depth") is not None
            assert metrics.get("service.queries") is not None
            assert metrics.get("service.cache.hit") is not None
            assert metrics.get("service.admission.rejected") is not None
            latency = metrics.get("service.latency_s")
            assert latency is not None and latency.count == 0

    def test_latency_histogram_observes_every_submission(self):
        with QueryService(build_cluster()) as service:
            service.submit(COUNT_BY_SOURCE)
            service.submit(COUNT_BY_SOURCE)  # cache hit still has a latency
            service.submit(MAX_BY_DEST)
            latency = service.metrics.get("service.latency_s")
            assert latency.count == 3
            assert latency.sum > 0.0
            assert latency.quantile(0.5) >= 0.0

    def test_prometheus_exposition_of_a_live_service(self):
        from repro.obs import parse_prometheus_text, prometheus_text

        with QueryService(build_cluster()) as service:
            service.submit(COUNT_BY_SOURCE)
            samples = parse_prometheus_text(prometheus_text(service.metrics))
        assert samples["service_queries_total"] == [({}, 1.0)]
        assert "service_latency_s_bucket" in samples
        assert "service_in_flight" in samples

    def test_query_id_threads_into_stats_and_spans(self):
        tracer = Tracer()
        with QueryService(build_cluster(), tracer=tracer) as service:
            first = service.submit(COUNT_BY_SOURCE)
            second = service.submit(MAX_BY_DEST)
        assert first.query_id == 1
        assert second.query_id == 2
        # Fresh evaluations stamp the service query id into the run's stats.
        assert first.stats.query_id == first.query_id
        assert second.stats.query_id == second.query_id
        # Each evaluator root span carries the id it served.
        query_spans = tracer.spans_named("query")
        tagged = {span.attributes.get("query_id") for span in query_spans}
        assert {first.query_id, second.query_id} <= tagged

    def test_cache_hit_keeps_original_stats_query_id(self):
        with QueryService(build_cluster()) as service:
            fresh = service.submit(COUNT_BY_SOURCE)
            hit = service.submit(COUNT_BY_SOURCE)
        assert hit.source == HIT
        assert hit.query_id == 2
        # A pure hit reuses the original evaluation's stats wholesale.
        assert hit.stats.query_id == fresh.query_id


# ---------------------------------------------------------------------------
# Query-lifecycle stages: per-submission breakdown + per-stage/outcome metrics
# ---------------------------------------------------------------------------


class TestLifecycleStages:
    def test_fresh_submission_records_every_stage(self):
        from repro.service.service import STAGES

        with QueryService(build_cluster()) as service:
            result = service.submit(COUNT_BY_SOURCE)
        assert result.outcome == FRESH
        assert set(result.stages) == set(STAGES)
        assert all(seconds >= 0.0 for seconds in result.stages.values())

    def test_hit_skips_plan_and_execute(self):
        with QueryService(build_cluster()) as service:
            service.submit(COUNT_BY_SOURCE)
            hit = service.submit(COUNT_BY_SOURCE)
        assert hit.outcome == HIT
        assert "admission" in hit.stages and "lookup" in hit.stages
        assert "plan" not in hit.stages and "execute" not in hit.stages

    def test_stages_sum_to_end_to_end_latency(self):
        # The acceptance bar: the stage breakdown explains >= 95% of the
        # measured wall time (the remainder is inter-stage glue).
        with QueryService(build_cluster()) as service:
            result = service.submit(COUNT_BY_SOURCE)
        assert result.stage_total_s == pytest.approx(
            sum(result.stages.values())
        )
        assert result.stage_total_s >= 0.95 * result.wall_s
        assert result.stage_total_s <= result.wall_s

    def test_per_stage_histograms_observe_each_submission(self):
        with QueryService(build_cluster()) as service:
            service.submit(COUNT_BY_SOURCE)
            service.submit(COUNT_BY_SOURCE)  # hit
            metrics = service.metrics
        # merge is observed per entry, not per submission: the fresh run
        # merges twice (canonical order + SQL post clauses), the hit once
        # (post clauses over the cached relation).
        for stage, expected in (
            ("admission", 2), ("lookup", 2), ("plan", 1),
            ("execute", 1), ("merge", 3),
        ):
            histogram = metrics.get("service.stage_s", stage=stage)
            assert histogram is not None
            assert histogram.count == expected, stage

    def test_per_outcome_latency_histograms(self):
        with QueryService(build_cluster()) as service:
            service.submit(COUNT_BY_SOURCE)
            service.submit(COUNT_BY_SOURCE)
            metrics = service.metrics
        fresh = metrics.get("service.latency_by_outcome_s", outcome=FRESH)
        hit = metrics.get("service.latency_by_outcome_s", outcome=HIT)
        assert fresh.count == 1 and hit.count == 1
        # The undifferentiated family still sees every submission.
        assert metrics.get("service.latency_s").count == 2

    def test_rejection_lands_in_the_rejected_outcome_series(self):
        from repro.service.service import REJECTED

        with QueryService(
            build_cluster(), max_in_flight=1, max_queue=0
        ) as service:
            service._acquire_slot(1.0)
            try:
                with pytest.raises(AdmissionError):
                    service.submit(COUNT_BY_SOURCE)
            finally:
                service._release_slot()
            rejected = service.metrics.get(
                "service.latency_by_outcome_s", outcome=REJECTED
            )
            assert rejected.count == 1

    def test_stage_families_exist_before_any_traffic(self):
        from repro.service.service import OUTCOMES, STAGES

        with QueryService(build_cluster()) as service:
            metrics = service.metrics
            for stage in STAGES:
                assert metrics.get("service.stage_s", stage=stage) is not None
            for outcome in OUTCOMES:
                assert (
                    metrics.get("service.latency_by_outcome_s", outcome=outcome)
                    is not None
                )

    def test_stage_spans_nest_under_the_service_query_root(self):
        tracer = Tracer()
        with QueryService(build_cluster(), tracer=tracer) as service:
            service.submit(COUNT_BY_SOURCE)
        by_id = {span.span_id: span for span in tracer.spans}
        stage_spans = [
            span for span in tracer.spans if span.name.startswith("service.")
            and span.name != "service.query"
        ]
        assert stage_spans
        for span in stage_spans:
            assert by_id[span.parent_id].name == "service.query"
