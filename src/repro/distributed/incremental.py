"""Incremental refresh of distributed query results (append-only).

The motivating deployment (Section 1) collects flow records continuously
at each router; analysts keep standing OLAP results that must follow the
data. Because Skalla's aggregates ship as *mergeable sub-aggregates*
(Theorem 1), an already-computed result can absorb new detail tuples
without recomputation over the old data.

:class:`IncrementalView` keeps the global state in **sub-aggregate form**
(one merged row of component values per group — the same shape a
regional coordinator forwards in the tree topology) and finalizes on
read. A refresh with per-site deltas Δᵢ ships:

1. the current group list down to each site, which evaluates the blocks
   over **Δᵢ only** and returns the touched groups' delta sub-aggregates;
2. for *new* groups appearing only in the delta (possible when the base
   is a distinct projection), the new group keys down, which each site
   evaluates against its **full** (post-append) partition — necessary
   because with general GMDJ conditions old detail rows can contribute
   to a brand-new group.

Both contributions merge into the state with
:func:`repro.gmdj.operator.merge_sub_results`; the refreshed result is
exactly what full re-evaluation over old+new data returns (tested,
including randomized delta splits).

Scope: append-only (no retractions), single-GMDJ queries (possibly
multi-block, i.e. coalesced) with distributive/algebraic aggregates.
Correlated chains are rejected — a later stage's condition reads earlier
aggregates whose values change with the delta, so those queries must
re-run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress
from typing import Mapping

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.stats import ExecutionStats
from repro.errors import PlanError, SchemaError
from repro.gmdj import operator
from repro.gmdj.expression import DistinctBase, GMDJExpression, LiteralBase
from repro.net import message as msg
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

    ``source_stats`` — when the view's base state comes from a prior
    distributed run (the query service caches sub-aggregates this way),
    pass that run's :class:`ExecutionStats`. A run that ended in
    ``degrade`` mode *excluded* sites: their detail tuples were never
    captured in the state, so refreshing would silently merge deltas
    onto an under-approximation and present it as exact. Such stats are
    rejected loudly here instead.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        expression: GMDJExpression,
        source_stats: ExecutionStats = None,
    ):
        if source_stats is not None and source_stats.degraded:
            excluded = sorted({site for _round, site in source_stats.excluded_sites})
            raise PlanError(
                "cannot build an incremental view from a degraded run: "
                f"site(s) {', '.join(excluded)} were excluded, so their "
                "detail tuples are missing from the base state; re-run the "
                "query without degradation (or re-seed from the warehouses) "
                "before refreshing"
            )
        if len(expression.steps) != 1:
            raise PlanError(
                "incremental refresh supports single-GMDJ queries only: a "
                "correlated chain's later conditions read earlier aggregates, "
                "which a delta changes — re-run such queries instead"
            )
        step = expression.steps[0]
        if step.has_holistic:
            raise PlanError("holistic aggregates cannot be refreshed incrementally")
        self.cluster = cluster
        self.expression = expression
        self.step = step
        self.key_attrs = list(expression.key)
        #: Global state: one merged sub-aggregate row per group.
        self._h: Relation = self._initial_state()

    # -- construction -------------------------------------------------------------

    def _initial_state(self) -> Relation:
        base = self._current_base_relation(initial=True)
        pieces = []
        for site_id in self.cluster.site_ids:
            site = self.cluster.site(site_id)
            if not site.warehouse.has_table(self.step.detail):
                continue
            detail = site.warehouse.table(self.step.detail)
            h_i, _touched = operator.evaluate_sub(base, detail, self.step.blocks)
            pieces.append(h_i)
        return operator.merge_sub_results(
            union_all(pieces), self.key_attrs, self.step.blocks
        )

    def _current_base_relation(self, initial: bool = False) -> Relation:
        source = self.expression.base_source
        if isinstance(source, LiteralBase):
            return source.relation
        if isinstance(source, DistinctBase):
            if initial:
                conceptual = self.cluster.conceptual_table(source.table)
                return conceptual.distinct_project(list(source.attrs))
            return self._h.distinct_project(list(source.attrs))
        raise PlanError(f"unsupported base source {source!r}")

    # -- reads ---------------------------------------------------------------------

    def relation(self) -> Relation:
        """The finalized result, computed from the sub-aggregate state."""
        base = self._current_base_relation()
        return operator.super_aggregate(base, self._h, self.key_attrs, self.step.blocks)

    @property
    def group_count(self) -> int:
        return len(self._h)

    # -- maintenance -----------------------------------------------------------------

    def refresh(
        self,
        deltas: Mapping[str, Relation],
        *,
        apply_appends: bool = True,
        network=None,
    ) -> RefreshResult:
        """Absorb per-site appended rows and return the refreshed result.

        By default the deltas are also appended to the site warehouses,
        keeping the cluster consistent for later full queries. Pass
        ``apply_appends=False`` when the caller already applied them (the
        query service appends once, then upgrades every affected cached
        view) — the warehouses must then hold the post-append partitions
        before this call. ``network`` substitutes a private channel set
        (per-query isolation under the concurrent service); default is
        the cluster's shared network.
        """
        detail_name = self.step.detail
        if network is None:
            network = self.cluster.network
        stats = ExecutionStats()
        round_stats = stats.new_round("md", "incremental refresh")

        old_base = self._current_base_relation()
        new_base = self._new_groups_base(deltas)
        fragments = [self._h]

        for site_id, delta in deltas.items():
            site = self.cluster.site(site_id)
            site_schema = site.warehouse.schema(detail_name)
            if delta.schema != site_schema:
                raise SchemaError(
                    f"delta for {site_id!r} has schema {delta.schema!r}, "
                    f"table has {site_schema!r}"
                )

            def over_delta(received_base):
                if apply_appends:
                    site.warehouse.append(detail_name, delta)
                h_delta, touched = operator.evaluate_sub(
                    received_base, delta, self.step.blocks
                )
                return Relation(h_delta.schema, compress(h_delta.rows, touched))

            fragments.append(
                self._site_round(network, round_stats, site_id, 0, old_base, over_delta)
            )

        # New groups must see every site's FULL data, old rows included.
        if len(new_base):
            for site_id in self.cluster.site_ids:
                site = self.cluster.site(site_id)
                if not site.warehouse.has_table(detail_name):
                    continue

                def over_partition(received_base):
                    h_new, _touched = operator.evaluate_sub(
                        received_base,
                        site.warehouse.table(detail_name),
                        self.step.blocks,
                    )
                    return h_new

                fragments.append(
                    self._site_round(
                        network, round_stats, site_id, 1, new_base, over_partition
                    )
                )

        started = time.perf_counter()
        self._h = operator.merge_sub_results(
            union_all(fragments), self.key_attrs, self.step.blocks
        )
        round_stats.coordinator_compute_s += time.perf_counter() - started
        return RefreshResult(self.relation(), stats, len(new_base))

    def _site_round(
        self, network, round_stats, site_id, round_index, base, evaluate
    ) -> Relation:
        """One site's exchange, both ends: ship ``base`` down, play the
        site's turn (this process hosts the site: take the shipment,
        ``evaluate`` it, send the sub-aggregates up), take the reply in."""
        channel = network.channel(site_id)
        site_stats = round_stats.site(site_id)
        shipment = msg.Message.with_relation(
            msg.SHIP_BASE, "coordinator", site_id, round_index, base
        )
        channel.send_to_site(shipment)
        site_stats.bytes_down += shipment.size_bytes
        site_stats.tuples_down += len(base)

        (received,) = channel.take_at_site()
        started = time.perf_counter()
        answer = evaluate(received.relation())
        reply = msg.Message.with_relation(
            msg.SUB_RESULT, site_id, "coordinator", round_index, answer
        )
        site_stats.compute_s += time.perf_counter() - started
        channel.send_to_coordinator(reply)
        site_stats.bytes_up += reply.size_bytes
        site_stats.tuples_up += len(answer)

        started = time.perf_counter()
        fragment = channel.receive_at_coordinator().relation()
        round_stats.coordinator_compute_s += time.perf_counter() - started
        return fragment

    def _new_groups_base(self, deltas: Mapping[str, Relation]) -> Relation:
        """Groups appearing in the delta but not in the current state."""
        source = self.expression.base_source
        if not isinstance(source, DistinctBase):
            schema = self._h.schema.project(self.key_attrs)
            return Relation.empty(schema)
        key_attrs = list(source.attrs)
        known = {
            tuple(row[position] for position in self._h.schema.positions(key_attrs))
            for row in self._h.rows
        }
        fresh = []
        seen = set(known)
        for delta in deltas.values():
            positions = delta.schema.positions(key_attrs)
            for row in delta.rows:
                key = tuple(row[position] for position in positions)
                if key not in seen:
                    seen.add(key)
                    fresh.append(key)
        schema = self._h.schema.project(key_attrs)
        return Relation(schema, fresh)
