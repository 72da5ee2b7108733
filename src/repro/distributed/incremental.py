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
second time. Appends land in the sites' append logs; a refresh is up to
two ordinary rounds of Alg. GMDJDistribEval, walked by the evaluator like
any other (:func:`~repro.distributed.evaluator.open_run`), so retry and
degrade, speculation, row blocking and round spans hold for them, and
fault rules name them as rounds 1 and 2:

1. the state's groups ship down to every site whose version moved, and
   the site evaluates the blocks over the rows appended since the
   absorbed version only (the round's ``since``,
   ``LocalWarehouse.appended_since``), answering with the touched groups'
   delta sub-aggregates — and, when the base is a distinct projection of
   the appended table, with the keys of those rows the groups lack;
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
from repro.distributed.plan import MDRound
from repro.distributed.stats import ExecutionStats
from repro.errors import PlanError
from repro.gmdj import operator
from repro.gmdj.expression import DistinctBase, GMDJExpression, LiteralBase
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
        self._plan = run.plan
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

    def refresh(self, config=None, tracer=None, engine=None, network=None) -> RefreshResult:
        """Absorb the rows appended since the last refresh; return the result.

        The refresh reads everything each site's detail table gained since
        the version the view holds, whoever appended it
        (:meth:`~repro.distributed.cluster.SimulatedCluster.append`; the
        query service appends once, then upgrades every affected cached
        view). Its rounds are the evaluator's, numbered 1 and 2, with its
        retry and degrade, speculation, row blocking and spans; they take
        ``config``/``tracer``/``engine``/``network`` as
        :func:`~repro.distributed.evaluator.execute_plan` does. A round
        that excluded a site leaves the view as it was, and
        ``stats.degraded`` says so.
        """
        # Not a module import: it slows every start-up that imports this.
        from repro.distributed.evaluator import open_run

        versions = self._data_versions()
        moved = tuple(site for site in versions if versions[site] != self._versions[site])
        holding = tuple(site for site in versions if versions[site])
        if not moved:
            return RefreshResult(self.relation(), ExecutionStats(), 0)
        steps = (self.step,)
        with open_run(
            self.cluster, self._plan, config, tracer, engine=engine, network=network
        ) as walk:
            answers = walk.round(
                1, MDRound(steps, moved, independent_reduction=True), moved,
                "md", "incremental refresh: appended rows",
                held=self._base, since=self._versions, grows=self._grows,
            )
            started = time.perf_counter()
            merged = union_all([self._h, *answers.values()])
            firsts, codes = merged.to_columnar().codes(merged.schema.positions(self.key_attrs))
            known, base = len(self._h), self._base
            new_base = Relation.from_columnar(merged.to_columnar().gather(firsts[known:]))
            new_base = new_base.distinct_project(self.key_attrs)
            if len(new_base) and not walk.stats.degraded:
                # Their rows answered over the delta give way to the second
                # round's, over every full partition.
                walk.stats.rounds[-1].coordinator_compute_s += time.perf_counter() - started
                answers = walk.round(
                    2, MDRound(steps, holding), holding,
                    "md", "incremental refresh: new groups", held=new_base,
                )
                started = time.perf_counter()
                kept = merged.to_columnar().gather(np.flatnonzero(codes < known))
                merged = union_all([Relation.from_columnar(kept), *answers.values()])
                base = base.union_all(new_base)
            if walk.stats.degraded:
                return RefreshResult(self.relation(), walk.stats, 0)
            self._h = operator.merge_sub_results(merged, self.key_attrs, self.step.blocks)
            self._base, self._versions = base, versions
            walk.stats.rounds[-1].coordinator_compute_s += time.perf_counter() - started
        return RefreshResult(self.relation(), walk.stats, len(new_base))
