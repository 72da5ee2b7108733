"""Egil — the GMDJ distributed-plan optimizer (Section 4 of the paper).

Egil turns a :class:`~repro.gmdj.expression.GMDJExpression` into a
:class:`~repro.distributed.plan.Plan`, applying whichever of the four
optimizations its toggles enable *and* whose correctness preconditions
can be proved from the distribution catalog:

1. **Coalescing** — adjacent steps over the same detail table merge when
   the outer conditions do not reference inner outputs (Section 4.3).
2. **Synchronization reduction** — consecutive steps whose conditions all
   entail equality on a common partition attribute chain locally without
   intermediate synchronization (Theorem 5 / Corollary 1); if
   additionally the base is a distinct-projection of the same detail
   table and every condition entails key equality (no site pruned), the
   base round merges into the first chain round (Proposition 2, Example 4).
3. **Distribution-aware group reduction** (Theorem 4) — per-site ship
   filters ¬ψᵢ derived from the *declared* site predicates φᵢ; and, from
   the *observed* distribution, a round whose every condition entails
   some condition of the round before it (same detail table) ships each
   site only the groups it answered with in that round.
4. **Distribution-independent group reduction** — sites drop untouched
   groups from their sub-results (Proposition 1); needs no catalog
   knowledge at all.

Every optimization degrades gracefully: when a precondition cannot be
proved, the affected rewrite is skipped and the plan stays correct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import HolisticAggregateError, PlanError
from repro.gmdj.analysis import (
    conditions_entail,
    derive_ship_filter,
    entailed_partition_attribute,
    site_can_match,
    theta_entails_key,
)
from repro.gmdj.coalesce import coalesce
from repro.gmdj.expression import DistinctBase, GMDJExpression
from repro.distributed.plan import BaseRound, MDRound, Plan
from repro.warehouse.catalog import DistributionCatalog


@dataclass(frozen=True)
class OptimizationOptions:
    """Independent toggles for the four optimizations (for ablations)."""

    coalescing: bool = True
    sync_reduction: bool = True
    aware_group_reduction: bool = True
    independent_group_reduction: bool = True
    #: Skip sites whose φᵢ makes every condition unsatisfiable.
    site_pruning: bool = True

    @classmethod
    def none(cls) -> "OptimizationOptions":
        return cls(False, False, False, False, False)

    @classmethod
    def all(cls) -> "OptimizationOptions":
        return cls()


def plan_query(
    expression: GMDJExpression,
    catalog: DistributionCatalog,
    options: Optional[OptimizationOptions] = None,
) -> Plan:
    """Build a distributed evaluation plan for ``expression``."""
    options = options or OptimizationOptions()
    if expression.has_holistic:
        raise HolisticAggregateError(
            "expression uses a holistic aggregate; only distributive and "
            "algebraic aggregates can be evaluated distributively "
            "(evaluate centrally instead)"
        )
    notes = []

    if options.coalescing:
        coalesced = coalesce(expression)
        if coalesced is not expression:
            saved = len(expression.steps) - len(coalesced.steps)
            notes.append(f"coalescing merged {saved + len(coalesced.steps)} steps "
                         f"into {len(coalesced.steps)} (saved {saved} rounds)")
            expression = coalesced
        else:
            notes.append("coalescing skipped: no adjacent mergeable steps")

    rounds = _group_into_rounds(expression, catalog, options, notes)
    base_round = _plan_base(expression, catalog, options, rounds, notes)
    if base_round.merged_into_chain:
        rounds[0] = replace(rounds[0], merged_base=True)

    if options.aware_group_reduction:
        rounds = [_attach_ship_filters(md_round, catalog, notes) for md_round in rounds]
        rounds = _mark_observed_reduction(rounds, notes)
        if not any(
            md_round.observed_reduction
            or any(
                ship_filter is not None
                for ship_filter in md_round.ship_filters.values()
            )
            for md_round in rounds
        ):
            notes.append(
                "aware group reduction skipped: no ship filter derivable "
                "from the registered site predicates, and no round entails "
                "the round before it"
            )
    if options.independent_group_reduction:
        rounds = [replace(md_round, independent_reduction=True) for md_round in rounds]
        notes.append("independent group reduction enabled on all rounds")

    return Plan(expression, base_round, tuple(rounds), tuple(notes))


# ---------------------------------------------------------------------------
# Round formation (synchronization reduction)
# ---------------------------------------------------------------------------


def _group_into_rounds(expression, catalog, options, notes) -> list:
    """Partition the step chain into rounds, chaining under Corollary 1."""
    rounds: list = []
    pending: list = []
    pending_attr: Optional[str] = None

    def flush():
        nonlocal pending, pending_attr
        if pending:
            rounds.append(_make_round(pending, catalog, options))
            pending = []
            pending_attr = None

    for step in expression.steps:
        if not options.sync_reduction:
            rounds.append(_make_round([step], catalog, options))
            continue
        partition_attrs = (
            catalog.partition_attributes(step.detail)
            if catalog.is_registered(step.detail)
            else ()
        )
        conditions = [block.condition for block in step.blocks]
        step_attr = entailed_partition_attribute(conditions, partition_attrs)
        if not pending:
            pending = [step]
            pending_attr = step_attr
            continue
        same_table = pending[-1].detail == step.detail
        if same_table and pending_attr is not None and step_attr == pending_attr:
            pending.append(step)
        else:
            flush()
            pending = [step]
            pending_attr = step_attr
    flush()

    chained = sum(1 for md_round in rounds if md_round.is_chain)
    if chained:
        notes.append(
            f"synchronization reduction chained steps in {chained} round(s) "
            f"(Corollary 1)"
        )
    elif options.sync_reduction and len(expression.steps) > 1:
        notes.append(
            "synchronization reduction skipped: no adjacent steps share an "
            "entailed partition attribute"
        )
    return rounds


def _make_round(steps, catalog, options) -> MDRound:
    detail = steps[0].detail
    if not catalog.is_registered(detail):
        raise PlanError(
            f"detail table {detail!r} has no registered distribution; "
            "register it in the DistributionCatalog first"
        )
    if catalog.is_replicated(detail):
        # Every replica holds the full relation: one site answers, and
        # its sub-aggregates ARE the global sub-aggregates. Running more
        # sites would multiply every contribution.
        return MDRound(steps=tuple(steps), sites=(catalog.sites(detail)[0],))
    sites = list(catalog.sites(detail))
    if options.site_pruning and catalog.has_site_predicates(detail):
        conditions = [block.condition for step in steps for block in step.blocks]
        kept = []
        for site_id in sites:
            phi = catalog.phi(detail, site_id)
            if phi is None or site_can_match(conditions, phi):
                kept.append(site_id)
        sites = kept or sites
    return MDRound(steps=tuple(steps), sites=tuple(sites))


# ---------------------------------------------------------------------------
# Base planning (Proposition 2)
# ---------------------------------------------------------------------------


def _plan_base(expression, catalog, options, rounds, notes) -> BaseRound:
    source = expression.base_source
    if not isinstance(source, DistinctBase):
        return BaseRound(source=source, sites=())
    if not catalog.is_registered(source.table):
        raise PlanError(
            f"base table {source.table!r} has no registered distribution"
        )
    if catalog.is_replicated(source.table):
        # One replica computes B0 for everyone; Proposition 2 is moot
        # (B = B_i at the single participating site, so the merge below
        # would be correct, but a single distinct projection is cheaper
        # and keeps the plan uniform).
        return BaseRound(source=source, sites=(catalog.sites(source.table)[0],))
    base_sites = catalog.sites(source.table)

    if options.sync_reduction and rounds:
        first = rounds[0]
        same_table = all(step.detail == source.table for step in first.steps)
        key_entailed = theta_entails_key(
            [block.condition for block in first.all_blocks()], source.key
        )
        # A pruned site holds base groups too: only a round at every site derives B0.
        if same_table and key_entailed and set(first.sites) == set(base_sites):
            notes.append(
                "base-values synchronization eliminated (Proposition 2): "
                "sites derive B0 locally inside round 1"
            )
            return BaseRound(source=source, sites=base_sites, merged_into_chain=True)

    return BaseRound(source=source, sites=base_sites)


# ---------------------------------------------------------------------------
# Distribution-aware group reduction (Theorem 4)
# ---------------------------------------------------------------------------


def _attach_ship_filters(md_round: MDRound, catalog, notes) -> MDRound:
    detail = md_round.steps[0].detail
    if not catalog.has_site_predicates(detail):
        return md_round
    conditions = list(md_round.conditions())
    # What the round's own steps add to X does not exist when the fragment
    # is cut (a sync-reduced chain reads it in its later steps' θ).
    generated = [
        name for block in md_round.all_blocks() for name in block.output_names()
    ]
    filters = {}
    derived = 0
    for site_id in md_round.sites:
        phi = catalog.phi(detail, site_id)
        if phi is None:
            filters[site_id] = None
            continue
        ship_filter = derive_ship_filter(conditions, phi, generated)
        filters[site_id] = ship_filter
        if ship_filter is not None:
            derived += 1
    if derived:
        notes.append(
            f"aware group reduction: ship filters derived for {derived}/"
            f"{len(md_round.sites)} sites (Theorem 4)"
        )
    return replace(md_round, ship_filters=filters)


def _mark_observed_reduction(rounds: list, notes: list) -> list:
    """Theorem 4 with an observed φᵢ: mark the rounds that may narrow.

    Round k+1 qualifies when it reads the detail table round k read and
    each of its θ entails some θ of round k
    (:func:`~repro.gmdj.analysis.conditions_entail`): a group site i left
    out of its round-k Hᵢ — untouched there, or never shipped to it — is
    then untouched by site i in round k+1 as well. The first MD round has
    no MD round before it and never qualifies.
    """
    marked = list(rounds)
    for index in range(1, len(rounds)):
        earlier, later = rounds[index - 1], rounds[index]
        if earlier.steps[0].detail == later.steps[0].detail and conditions_entail(
            later.conditions(), earlier.conditions()
        ):
            marked[index] = replace(later, observed_reduction=True)
            notes.append(
                f"aware group reduction: round {index + 1} ships each site "
                f"only the groups it answered with in round {index} "
                "(Theorem 4, observed distribution)"
            )
    return marked
