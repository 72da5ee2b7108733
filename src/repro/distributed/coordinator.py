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
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlanError
from repro.gmdj import operator
from repro.gmdj.blocks import MDBlock
from repro.obs.tracer import NULL_TRACER
from repro.relalg import compiler
from repro.relalg.expressions import BASE_VAR, Expr
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
        #: The finished session X came from, if it came from one: what its
        #: fold observed (:meth:`touched_by`) and its bank (``sub_results()``).
        self.session: Optional[operator.SyncSession] = None

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
        self._install(relation)

    def _install(self, x: Relation, session: Optional[operator.SyncSession] = None) -> None:
        """X and the synchronization it came from change together."""
        self._x = x
        self.session = session

    def sync_base(self, fragments: Sequence[Relation]) -> Relation:
        """Union the sites' base-query results into B₀ (deduplicated)."""
        if not fragments:
            raise PlanError("no base fragments to synchronize")
        with self.tracer.span(
            "round.merge", kind="coordinator", phase="base", fragments=len(fragments)
        ) as span:
            self._install(Relation.union_all(*fragments).distinct())
            span.set(rows=len(self._x))
        return self._x

    # -- round synchronization ----------------------------------------------------

    def fragment_for_site(
        self,
        *ship_filters: Optional[Expr],
        held: Optional[Relation] = None,
        positions: Optional[Iterable[int]] = None,
        fields: Optional[Sequence[str]] = None,
    ) -> Tuple[Relation, Optional[np.ndarray]]:
        """The fragment shipped down one edge, after aware group reduction,
        and the rows of ``held`` it keeps (``None``: all of them, in order).

        Theorem 4 has two sources for what the sites an edge leads to can
        use, and both are necessary conditions, so they compose:

        - ``positions`` — the *observed* distribution: row positions in
          ``held`` of the groups those sites answered with in the round
          before (:meth:`touched_by`; any order, repeats allowed). The
          fragment keeps only those rows, in the order of ``positions``
          (a repeat is kept once, where it first comes): a site's answer
          order, so the fragment can ship positionally against it.
          ``None`` means nothing was observed: every row qualifies.
        - ``ship_filters`` — the optimizer's ¬ψᵢ over base fields (relvar
          ``"b"``) from the *declared* φᵢ — one for a site's own edge, one
          per site beneath a combiner's: a row stays when *some* of those
          sites can use it. A ``None`` filter means that site needs every
          row.

        ``fields`` projects the fragment to those attributes of ``held``
        (in ``held``'s order): the fields the round reads. ``None`` keeps
        every attribute. ``held`` defaults to all of X. An answer by row
        address names the fragment's rows, and the kept rows say which
        rows of ``held`` those are.
        """
        held = self.x if held is None else held
        rows = None
        if positions is not None:
            rows = np.asarray(positions, dtype=np.int64)
            seen = np.zeros(len(held), dtype=bool)
            seen[rows] = True
            if np.count_nonzero(seen) < len(rows):  # a repeat: keep the first
                _groups, firsts = np.unique(rows, return_index=True)
                rows = rows[np.sort(firsts)]
        if not any(ship_filter is None for ship_filter in ship_filters):
            cut = held if rows is None else Relation.from_columnar(held.to_columnar().gather(rows))
            mask = compiler.compile_mask(reduce(or_, ship_filters), {BASE_VAR: cut.schema})
            admitted = mask(len(cut), {BASE_VAR: (cut.to_columnar(), None)})
            rows = np.asarray(admitted if rows is None else rows[admitted], dtype=np.int64)
        fragment = held
        if fields is not None:
            names = [name for name in held.schema.names if name in fields]
            if len(names) < len(held.schema):
                fragment = held.project(names)
        if rows is not None:
            fragment = Relation.from_columnar(fragment.to_columnar().gather(rows))
        return fragment, rows

    def touched_by(self, source: str) -> Optional[Iterable[int]]:
        """Positions in X of the groups ``source`` answered with in the
        round just synchronized, or ``None`` when that round was not
        observing or folded nothing from ``source``.

        ``source`` is a root edge: a site, or a combiner — whose set is
        the union of what its subtree answered, because that is what was
        folded from it.
        """
        touched = self.session and self.session.touched()
        matches = (touched or {}).get(source)
        return None if matches is None else np.concatenate(matches)

    def begin_sync(
        self, blocks: Sequence[MDBlock], observes: bool = False
    ) -> operator.SyncSession:
        """Open an incremental synchronization round against current X.

        Fragments (whole site sub-results, or row blocks of them) are
        absorbed as they arrive — Section 3.2's streaming merge — and the
        caller commits the finalized structure with :meth:`commit_sync`.
        ``observes`` asks the session to remember which rows of X each
        source folded into (:meth:`touched_by`, for the round after).
        The session before it keeps only that: its bank is never read.
        """
        if self.session is not None:
            self.session.release()
        return operator.SyncSession(self.x, self.key_attrs, blocks, observes=observes)

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
            self._install(session.finish(), session)
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
        sources: Optional[Sequence[str]] = None,
    ) -> Relation:
        """Proposition 2: build X directly from merged-base sub-results.

        The shipped Hᵢ carry the key attributes (here: the full base
        schema, since merged bases are distinct projections), so
        ``π_B(H)`` deduplicated *is* the base-values relation.

        ``sources`` names where each sub-result came from and asks the
        assembly to observe (:meth:`touched_by`): the same fold over the
        same rows in the same order, taken one sub-result at a time.
        """
        if not sub_results:
            raise PlanError("no sub-results to assemble")
        with self.tracer.span(
            "round.merge",
            kind="coordinator",
            phase="assemble",
            fragments=len(sub_results),
        ) as span:
            h = Relation.union_all(*sub_results)
            base = h.distinct_project(self.key_attrs)
            session = operator.SyncSession(
                base, self.key_attrs, blocks,
                observes=sources is not None, in_order=True,
            )
            for source, fragment in (
                [("", h)] if sources is None else zip(sources, sub_results)
            ):
                session.absorb(fragment, source)
            self._install(session.finish(), session)
            span.set(rows=len(self._x))
        return self._x
