"""The Skalla coordinator: base-result structure and synchronization.

The coordinator maintains the base-result structure X — the global
relation whose schema grows by the finalized aggregate columns of each
round — indexed on the key attributes K so that each incoming sub-result
tuple synchronizes in O(1) (Section 3.2). Synchronization is Theorem 1:
the multiset union of site sub-results H is folded into X with
super-aggregates keyed by θ_K.

For Proposition 2 rounds (no separate base synchronization) the
coordinator *assembles* X from the shipped Hᵢ themselves:
``X = MD(π_B(H), H, l'', θ_K)`` with π_B deduplicated.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional, Sequence

from repro.errors import PlanError
from repro.gmdj import operator
from repro.gmdj.blocks import MDBlock
from repro.obs.tracer import NULL_TRACER
from repro.relalg import compiler
from repro.relalg.expressions import BASE_VAR, Expr
from repro.relalg.operators import union_all
from repro.relalg.relation import Relation


class Coordinator:
    """Holds and synchronizes the global base-result structure X.

    ``tracer`` records a ``round.merge`` span around every Theorem-1
    merge / base synchronization; the default no-op tracer keeps the
    untraced path free.
    """

    def __init__(self, key_attrs: Sequence[str], tracer=NULL_TRACER):
        self.key_attrs = tuple(key_attrs)
        self.tracer = tracer
        self._x: Optional[Relation] = None

    # -- state --------------------------------------------------------------------

    @property
    def x(self) -> Relation:
        if self._x is None:
            raise PlanError("base-result structure not initialized yet")
        return self._x

    @property
    def has_base(self) -> bool:
        return self._x is not None

    # -- base-values synchronization -------------------------------------------------

    def set_base(self, relation: Relation) -> None:
        """Install a literal base-values relation."""
        self._x = relation

    def sync_base(self, fragments: Sequence[Relation]) -> Relation:
        """Union the sites' base-query results into B₀ (deduplicated)."""
        if not fragments:
            raise PlanError("no base fragments to synchronize")
        with self.tracer.span(
            "round.merge", kind="coordinator", phase="base", fragments=len(fragments)
        ) as span:
            self._x = union_all(fragments).distinct()
            span.set(rows=len(self._x))
        return self._x

    # -- round synchronization ----------------------------------------------------

    def fragment_for_site(
        self, *ship_filters: Optional[Expr], held: Optional[Relation] = None
    ) -> Relation:
        """The fragment shipped down one edge, after aware group reduction.

        ``ship_filters`` are the optimizer's ¬ψᵢ over base fields (relvar
        ``"b"``) of the sites the edge leads to — one for a site's own
        edge, one per site beneath a combiner's — and the fragment is the
        rows of ``held`` (default: all of X) that *some* of those sites
        can use. A ``None`` filter means that site needs every row.
        """
        held = self.x if held is None else held
        if any(ship_filter is None for ship_filter in ship_filters):
            return held
        predicate = compiler.compile_predicate(
            reduce(or_, ship_filters), {BASE_VAR: held.schema}, (BASE_VAR,)
        )
        return held.select_fn(predicate)

    def begin_sync(self, blocks: Sequence[MDBlock]) -> operator.SyncSession:
        """Open an incremental synchronization round against current X.

        Fragments (whole site sub-results, or row blocks of them) are
        absorbed as they arrive — Section 3.2's streaming merge — and the
        caller commits the finalized structure with :meth:`commit_sync`.
        """
        return operator.SyncSession(self.x, self.key_attrs, blocks)

    def commit_sync(
        self, session: operator.SyncSession, excluded: Sequence[str] = ()
    ) -> Relation:
        """Finalize a sync round.

        ``excluded`` names the sites degrade mode dropped from the round
        (their banks were already reset by the recovery layer); it is
        recorded on the merge span so traces show which merges are
        under-approximations.
        """
        with self.tracer.span(
            "round.merge", kind="coordinator", phase="commit"
        ) as span:
            self._x = session.finish()
            span.set(rows=len(self._x))
            if excluded:
                span.set(excluded=",".join(sorted(excluded)))
        return self._x

    def synchronize(self, sub_results: Sequence[Relation], blocks: Sequence[MDBlock]) -> Relation:
        """Theorem 1: fold the sites' Hᵢ into X with super-aggregates."""
        if not sub_results:
            raise PlanError("no sub-results to synchronize")
        session = self.begin_sync(blocks)
        for fragment in sub_results:
            session.absorb(fragment)
        return self.commit_sync(session)

    def assemble_from_chain(
        self,
        sub_results: Sequence[Relation],
        blocks: Sequence[MDBlock],
    ) -> Relation:
        """Proposition 2: build X directly from merged-base sub-results.

        The shipped Hᵢ carry the key attributes (here: the full base
        schema, since merged bases are distinct projections), so
        ``π_B(H)`` deduplicated *is* the base-values relation.
        """
        if not sub_results:
            raise PlanError("no sub-results to assemble")
        with self.tracer.span(
            "round.merge",
            kind="coordinator",
            phase="assemble",
            fragments=len(sub_results),
        ) as span:
            h = union_all(sub_results)
            base = h.distinct_project(self.key_attrs)
            self._x = operator.super_aggregate(base, h, self.key_attrs, blocks)
            span.set(rows=len(self._x))
        return self._x
