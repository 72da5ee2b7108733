"""Incremental refresh of distributed query results (append-only).

The motivating deployment (Section 1) collects flow records continuously
at each router; analysts keep standing OLAP results that must follow the
data. Because Skalla's aggregates ship as *mergeable sub-aggregates*
(Theorem 1), an append is one more source of sub-aggregates: an
already-computed result absorbs it without recomputation over the old
data.

:class:`IncrementalView` keeps the global state in **sub-aggregate form**
(one merged row of component values per group — the same shape a
regional coordinator forwards in the tree topology), finalizes on read,
and records per site the table version it has absorbed. The state starts
as the run that answered the query left it: the coordinator's Theorem-1
synchronization already holds every group's merged components
(``DistributedResult.sub_results``), so no site evaluates the query a
second time. Appends land in the sites' append logs; a refresh is an
ordinary round — one :class:`~repro.distributed.executor.SiteRequest`
leg per site whose version moved, played through the engine over the
site's channel:

1. the state's groups ship down, and the site evaluates the blocks over
   the rows appended since the absorbed version only
   (``SiteRequest.since``, ``LocalWarehouse.appended_since``), answering
   with the touched groups' delta sub-aggregates — and, when the base is
   a distinct projection of the appended table, with the keys of those
   rows the groups lack;
2. the answer's keys that the state's key codes miss are the *new*
   groups. If there are any, a second round ships them down to every
   site, which evaluates them against its **full** partition — with
   general GMDJ conditions old detail rows can contribute to a brand-new
   group.

The answers fold into the state as columns with
:func:`repro.gmdj.operator.merge_sub_results`; the refreshed result is
what full re-evaluation over old+new data returns
(``tests/test_property_incremental.py`` draws the append sequences).

Scope: append-only (no retractions), single-GMDJ queries (possibly
multi-block, i.e. coalesced) with distributive/algebraic aggregates.
Correlated chains are rejected — a later stage's condition reads earlier
aggregates whose values change with the delta, so those queries must
re-run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
import numpy as np

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.executor import SerialEngine, SiteRequest
from repro.distributed.stats import ExecutionStats, SiteRoundStats
from repro.errors import PlanError
from repro.gmdj import operator
from repro.gmdj.expression import DistinctBase, GMDJExpression, LiteralBase
from repro.net import message as msg
from repro.net import serialize
from repro.obs.tracer import NULL_TRACER
from repro.relalg.operators import union_all
from repro.relalg.relation import Relation


@dataclass
class RefreshResult:
    """The refreshed (finalized) relation plus accounting."""

    relation: Relation
    stats: ExecutionStats
    new_groups: int


class IncrementalView:
    """A standing single-GMDJ distributed query result.

    ``run`` is the :class:`~repro.distributed.evaluator.DistributedResult`
    that answered ``expression``; the view's state is that run's
    synchronized sub-aggregates (its ``sub_results``), so nothing is
    evaluated twice. Without one, the view runs the query once itself.
    A run that ended in ``degrade`` mode *excluded* sites: their detail
    tuples are missing from its state, so refreshing would silently merge
    deltas onto an under-approximation and present it as exact. Such a
    run is rejected loudly here instead.
    """

    def __init__(self, cluster: SimulatedCluster, expression: GMDJExpression, run=None):
        if len(expression.steps) != 1:
            raise PlanError(
                "incremental refresh supports single-GMDJ queries only: a "
                "correlated chain's later conditions read earlier aggregates, "
                "which a delta changes — re-run such queries instead"
            )
        step = expression.steps[0]
        if step.has_holistic:
            raise PlanError("holistic aggregates cannot be refreshed incrementally")
        source = expression.base_source
        if not isinstance(source, (LiteralBase, DistinctBase)):
            raise PlanError(f"unsupported base source {source!r}")
        if run is None:
            # Not a module import: it slows every start-up that imports this.
            from repro.distributed.evaluator import execute_query

            run = execute_query(cluster, expression)
        if run.stats.degraded:
            excluded = sorted({site for _round, site in run.stats.excluded_sites})
            raise PlanError(
                "cannot build an incremental view from a degraded run: "
                f"site(s) {', '.join(excluded)} were excluded, so their "
                "detail tuples are missing from the base state; re-run the "
                "query without degradation before refreshing"
            )
        self.cluster = cluster
        self.expression = expression
        self.step = step
        self.key_attrs = list(expression.key)
        #: The distinct base the appends to the detail table grow, if any.
        self._grows = (
            source if isinstance(source, DistinctBase) and source.table == step.detail
            else None
        )
        #: The sites a fresh evaluation reads the detail table at (one replica
        #: of a replicated table; every base site, pruned ones too, when the
        #: appends grow the base), and per site the version the state absorbed.
        self._sites = run.plan.base.sites if self._grows else run.plan.rounds[0].sites
        self._versions = self._data_versions()
        #: The state (one merged sub-aggregate row per group, key attributes
        #: first) and its groups (the base of the finalized result).
        self._h = run.sub_results
        self._base = (
            source.relation if isinstance(source, LiteralBase)
            else self._h.distinct_project(self.key_attrs)
        )

    def _data_versions(self) -> dict:
        return {
            site_id: version
            for _table, site_id, version in self.cluster.data_versions([self.step.detail])
            if site_id in self._sites
        }

    # -- reads ---------------------------------------------------------------------

    def relation(self) -> Relation:
        """The finalized result, computed from the sub-aggregate state."""
        return operator.super_aggregate(
            self._base, self._h, self.key_attrs, self.step.blocks
        )

    @property
    def group_count(self) -> int:
        return len(self._h)

    # -- maintenance -----------------------------------------------------------------

    def refresh(self, *, network=None, engine=None) -> RefreshResult:
        """Absorb the rows appended since the last refresh; return the result.

        The refresh reads everything each site's detail table gained since
        the version the view holds, whoever appended it
        (:meth:`~repro.distributed.cluster.SimulatedCluster.append`; the
        query service appends once, then upgrades every affected cached
        view). ``network`` substitutes a private channel set (per-query
        isolation under the concurrent service) for the cluster's shared
        one; ``engine`` is the leg engine to share (the service's), else
        the legs run serially.
        """
        if network is None:
            network = self.cluster.network
        if engine is None:
            engine = SerialEngine(self.cluster.sites, NULL_TRACER)
        versions = self._data_versions()
        moved = [site_id for site_id in versions if versions[site_id] != self._versions[site_id]]
        holding = [site_id for site_id in versions if versions[site_id]]
        stats = ExecutionStats()
        round_stats = stats.new_round("md", "incremental refresh")
        answers = self._round(
            network, engine, round_stats, moved, self._base, 0, self._versions,
            independent_reduction=True, source=self._grows,
        )
        started = time.perf_counter()
        merged = union_all([self._h, *answers])
        firsts, codes = merged.to_columnar().codes(merged.schema.positions(self.key_attrs))
        known, base = len(self._h), self._base
        new_base = Relation.from_columnar(merged.to_columnar().gather(firsts[known:]))
        new_base = new_base.distinct_project(self.key_attrs)
        if len(new_base):
            # Their rows answered over the delta give way to the second
            # round's, over every full partition.
            round_stats.coordinator_compute_s += time.perf_counter() - started
            answers = self._round(
                network, engine, round_stats, holding, new_base, 1, {},
                independent_reduction=False,
            )
            started = time.perf_counter()
            kept = merged.to_columnar().gather(np.flatnonzero(codes < known))
            merged = union_all([Relation.from_columnar(kept), *answers])
            base = base.union_all(new_base)
        self._h = operator.merge_sub_results(merged, self.key_attrs, self.step.blocks)
        self._base, self._versions = base, versions
        round_stats.coordinator_compute_s += time.perf_counter() - started
        return RefreshResult(self.relation(), stats, len(new_base))

    def _round(self, network, engine, round_stats, site_ids, base, number, since, **fields) -> list:
        """One round over ``site_ids``: ``base`` down each site's channel,
        the site's turn played by ``engine`` over the rows appended since
        its ``since`` version (absent: the whole partition), the answer
        decoded. Answers come back in site order, whatever order the legs
        finish in."""
        if not site_ids:
            return []
        started = time.perf_counter()
        payload = serialize.encode_relation(base)
        round_stats.coordinator_compute_s += time.perf_counter() - started
        for site_id in site_ids:  # reporting order is site order
            round_stats.sites.setdefault(site_id, SiteRoundStats())

        def leg(site_id):
            channel, edge = network.channel(site_id), round_stats.sites[site_id]
            shipment = msg.Message(msg.SHIP_BASE, "coordinator", site_id, number, payload)
            channel.send_to_site(shipment)
            edge.bytes_down += shipment.size_bytes
            edge.tuples_down += len(base)
            request = SiteRequest(
                "round", site_id, number, steps=(self.step,),
                key_attrs=tuple(self.key_attrs), since=since.get(site_id, 0), **fields,
            )
            reply = engine.evaluate(request, channel)
            edge.compute_s += reply.compute_s
            edge.bytes_up += sum(len(block) + msg.HEADER_BYTES for block in reply.payloads)
            edge.tuples_up += reply.rows
            started = time.perf_counter()
            answer = union_all(
                [channel.receive_at_coordinator().relation() for _block in reply.payloads]
            )
            return answer, time.perf_counter() - started

        legs = engine.run_legs(site_ids, leg)
        round_stats.coordinator_compute_s += sum(seconds for _answer, seconds in legs)
        return [answer for answer, _seconds in legs]
