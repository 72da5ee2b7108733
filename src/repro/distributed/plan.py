"""Distributed evaluation plans.

A plan is "a sequence of rounds, where a round consists of: (i) each
Skalla site performing some computation and communicating the results to
the coordinator, and (ii) the coordinator synchronizing the local results
into a global result, and (possibly) communicating the global result back
to the sites" (Section 3.1).

Two round shapes cover the whole design space of the paper:

- :class:`BaseRound` — compute B₀. Either the coordinator already holds
  it (literal base), or the sites each compute the base query over their
  partition and ship the pieces up (one round of traffic). Under
  Proposition 2 the base round disappears entirely — it is *merged* into
  the first MD round (``merged_into_chain``).
- :class:`MDRound` — one or more GMDJ steps. A round with a single step
  is the vanilla Alg. GMDJDistribEval round: ship X down (unless the
  sites already hold their fragment), evaluate sub-aggregates, ship Hᵢ
  up, synchronize. A round with *several* steps is a
  synchronization-reduced local chain (Theorem 5 / Corollary 1): the
  sites evaluate the whole sub-chain locally and ship the concatenated
  sub-aggregates once.

Per-round optimization annotations:

- ``ship_filters`` — per-site base filters ¬ψᵢ (Theorem 4,
  distribution-aware group reduction from a *declared* φᵢ);
- ``observed_reduction`` — the same theorem from an *observed* φᵢ: each
  site is shipped only the groups it answered with in the round before;
- ``independent_reduction`` — drop untouched base tuples from Hᵢ
  (Proposition 1);
- ``merged_base`` on the first MD round — Proposition 2 applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import PlanError
from repro.gmdj.expression import BaseSource, GMDJExpression
from repro.relalg.expressions import Expr


@dataclass(frozen=True)
class BaseRound:
    """Computation of the base-values relation B₀."""

    source: BaseSource
    #: Sites that evaluate the base query (S_B); empty for a literal base
    #: already held by the coordinator.
    sites: tuple = ()
    #: When True, B₀ is never synchronized on its own: the base query is
    #: evaluated by the sites inside the first MD round (Proposition 2).
    merged_into_chain: bool = False

    @property
    def is_distributed(self) -> bool:
        return bool(self.sites)


@dataclass(frozen=True)
class MDRound:
    """One synchronization round covering one or more GMDJ steps."""

    steps: tuple
    #: Participating sites (S_MD); may be a strict subset of all sites.
    sites: tuple
    #: Per-site ship filter ¬ψᵢ over base fields, or None = ship all.
    ship_filters: dict = field(default_factory=dict)
    #: Theorem 4, observed φᵢ: every θ of this round entails some θ of the
    #: round before it (same detail table), so each site is shipped only
    #: the groups it answered with there.
    observed_reduction: bool = False
    #: Proposition 1: sites drop base tuples with |RNG| = 0 from Hᵢ.
    independent_reduction: bool = False
    #: Proposition 2: this round also computes B₀ locally at the sites
    #: (no base shipment down, base attrs come back inside Hᵢ).
    merged_base: bool = False

    def __post_init__(self):
        if not self.steps:
            raise PlanError("an MDRound needs at least one step")
        if not self.sites:
            raise PlanError("an MDRound needs at least one site")
        details = {step.detail for step in self.steps}
        if len(details) > 1 and len(self.steps) > 1:
            raise PlanError(
                "a multi-step (sync-reduced) round must use a single detail table"
            )

    @property
    def is_chain(self) -> bool:
        return len(self.steps) > 1

    def all_blocks(self) -> tuple:
        blocks: list = []
        for step in self.steps:
            blocks.extend(step.blocks)
        return tuple(blocks)

    def conditions(self) -> tuple:
        return tuple(block.condition for block in self.all_blocks())

    def ship_filter(self, site_id: str) -> Optional[Expr]:
        return self.ship_filters.get(site_id)


@dataclass
class Plan:
    """A full distributed evaluation plan for a GMDJ expression."""

    expression: GMDJExpression
    base: BaseRound
    rounds: tuple
    #: Human-readable record of which optimizations fired (for tests,
    #: EXPERIMENTS.md and ablation benchmarks).
    notes: tuple = ()

    def __post_init__(self):
        planned_steps = [step for md_round in self.rounds for step in md_round.steps]
        if len(planned_steps) != len(self.expression.steps):
            raise PlanError(
                f"plan covers {len(planned_steps)} steps, expression has "
                f"{len(self.expression.steps)}"
            )
        if self.base.merged_into_chain:
            if not self.rounds or not self.rounds[0].merged_base:
                raise PlanError(
                    "base merged into chain but first MD round lacks merged_base"
                )

    @property
    def synchronization_count(self) -> int:
        """Number of synchronizations (the paper's m + 1 for the naive plan)."""
        count = len(self.rounds)
        if self.base.is_distributed and not self.base.merged_into_chain:
            count += 1
        return count

    @property
    def sites(self) -> tuple:
        """Every site some round of the plan touches, in first-use order."""
        touched = list(self.base.sites)
        for md_round in self.rounds:
            touched.extend(md_round.sites)
        return tuple(dict.fromkeys(touched))

    def participating_site_counts(self) -> tuple:
        """``(s_0, [s_1..s_m])`` for Theorem 2's bound."""
        base_sites = (
            0
            if self.base.merged_into_chain or not self.base.is_distributed
            else len(self.base.sites)
        )
        return base_sites, [len(md_round.sites) for md_round in self.rounds]

    def applied_optimizations(self) -> tuple:
        """``(name, description)`` pairs for every optimization this plan uses.

        Derived from the plan *shape* (not the notes, which are prose):
        the names match :class:`~repro.distributed.optimizer.\
OptimizationOptions` fields so cost ablation can toggle each one off —
        ``merged_base`` is the exception, riding on ``sync_reduction``.
        """
        applied = []
        coalescing_notes = [
            note for note in self.notes if note.startswith("coalescing merged")
        ]
        if coalescing_notes:
            applied.append(("coalescing", "; ".join(coalescing_notes)))
        chained = sum(1 for md_round in self.rounds if md_round.is_chain)
        if chained:
            applied.append((
                "sync_reduction",
                f"local chains in {chained} round(s) (Theorem 5 / Corollary 1)",
            ))
        if self.base.merged_into_chain:
            applied.append((
                "merged_base",
                "base synchronization merged into round 1 (Proposition 2)",
            ))
        filtered_legs = sum(
            1
            for md_round in self.rounds
            for site in md_round.sites
            if md_round.ship_filters.get(site) is not None
        )
        reductions = []
        if filtered_legs:
            reductions.append(
                f"ship filters on {filtered_legs} site leg(s) (Theorem 4)"
            )
        reductions.extend(
            f"observed distribution: round {number} ships each site the "
            f"groups it answered with in round {number - 1}"
            for number, md_round in enumerate(self.rounds, start=1)
            if md_round.observed_reduction
        )
        if reductions:
            applied.append(("aware_group_reduction", "; ".join(reductions)))
        if any(md_round.independent_reduction for md_round in self.rounds):
            applied.append((
                "independent_group_reduction",
                "sites drop |RNG|=0 groups from H_i (Proposition 1)",
            ))
        return tuple(applied)

    def describe(self) -> str:
        lines = []
        if self.base.merged_into_chain:
            lines.append("base: merged into first MD round (Proposition 2)")
        elif self.base.is_distributed:
            lines.append(f"base: distributed over {len(self.base.sites)} sites")
        else:
            lines.append("base: literal at coordinator")
        for index, md_round in enumerate(self.rounds, start=1):
            flags = []
            if md_round.is_chain:
                flags.append(f"chain of {len(md_round.steps)} steps (sync reduction)")
            if md_round.independent_reduction:
                flags.append("independent group reduction")
            if any(
                md_round.ship_filters.get(site) is not None for site in md_round.sites
            ):
                flags.append("aware group reduction")
            if md_round.observed_reduction:
                flags.append("observed-distribution group reduction")
            if md_round.merged_base:
                flags.append("merged base")
            suffix = f" [{'; '.join(flags)}]" if flags else ""
            lines.append(
                f"round {index}: {len(md_round.steps)} step(s) on "
                f"{len(md_round.sites)} site(s){suffix}"
            )
        if self.notes:
            lines.append("notes: " + "; ".join(self.notes))
        return "\n".join(lines)
