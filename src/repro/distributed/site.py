"""Skalla sites: the local-warehouse side of Alg. GMDJDistribEval.

A site owns its partition of every fact relation and performs all
detail-data processing — detail tuples never leave the site (Section 3).
Per round, a site:

1. receives its (possibly group-reduced) fragment of the base-result
   structure X — or derives the base locally under Proposition 2;
2. evaluates the round's GMDJ step(s) against its local detail partition,
   producing the sub-aggregate relation Hᵢ; multi-step rounds chain
   locally without synchronization (Theorem 5 / Corollary 1);
3. optionally applies distribution-independent group reduction
   (Proposition 1): rows with |RNG| = 0 across all of the round's
   conditions are dropped from Hᵢ;
4. ships Hᵢ — its sub-aggregate columns, with the fragment rows they
   answer (by row address) or, when the round ships no fragment or grows
   the base, with the key attributes — back to the coordinator;
5. when the next round ships it only the groups it answered with
   (observed reduction) and the site is a child of the root, keeps that
   answer's key list, so the next fragment can come without K,
   positionally against it (:meth:`SkallaSite.remember_answer`,
   :meth:`SkallaSite.rejoin`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from repro.errors import SerializationError, StateMismatch, WarehouseError
from repro.gmdj import operator
from repro.gmdj.expression import BaseSource, DistinctBase, MDStep
from repro.net import serialize
from repro.net.serialize import carried_keys
from repro.relalg.columnar import ColumnarRelation
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema
from repro.warehouse.storage import LocalWarehouse


#: Most bytes of answers a site keeps for positional fragments: format v3
#: blocks that lead with the key columns of the rows answered (a keyed
#: answer's own reply blocks; an answer by row address, its key columns).
#: Every request of a query takes that query's kept answers out
#: (:meth:`SkallaSite.take_answers`), the one its fragment names or none,
#: so an answer outlives its query's next request to the site only when
#: that request never comes (the site is excluded from the next round, or
#: the query fails); then it stays until the oldest query's answers go
#: first. S5 at 10 000 rows keeps about 65 kB a site from round 1 to round 2.
ROUND_STATE_BYTES = 16 << 20


def _size(entry: tuple) -> int:
    """Bytes of a kept answer ``(rows, blocks)``."""
    return sum(map(len, entry[1]))


class SkallaSite:
    """One local data warehouse plus its query-evaluation logic."""

    def __init__(self, site_id: str, warehouse: LocalWarehouse):
        self.site_id = site_id
        self.warehouse = warehouse
        #: query id -> {digest: (rows, blocks leading with K)}, oldest query first.
        self._answers: OrderedDict = OrderedDict()
        self._answer_bytes = 0
        self._answers_lock = threading.Lock()

    # -- round state -------------------------------------------------------------

    def remember_answer(
        self, query, digest: bytes, blocks: Sequence[bytes], rows: int
    ) -> None:
        """Keep the key list of query ``query``'s answer under the digest
        that names it (:func:`~repro.net.serialize.answer_digest`), within
        :data:`ROUND_STATE_BYTES`: the format v3 ``blocks``, ``rows`` rows
        in all, lead with the key columns, one row per answered row in
        answer order."""
        size = sum(map(len, blocks))
        if size > ROUND_STATE_BYTES:
            return
        with self._answers_lock:
            kept = self._answers.setdefault(query, {})
            self._answers.move_to_end(query)
            earlier = kept.pop(digest, None)
            if earlier is not None:
                self._answer_bytes -= _size(earlier)
            kept[digest] = (rows, tuple(blocks))
            self._answer_bytes += size
            while self._answer_bytes > ROUND_STATE_BYTES:
                _query, evicted = self._answers.popitem(last=False)
                self._answer_bytes -= sum(map(_size, evicted.values()))

    def take_answers(self, query) -> dict:
        """Take out the answers kept for query ``query``, as ``{digest:
        (rows, blocks)}``. The query's next request to the
        site does, whether its fragment is positional or keyed: a later
        request (a retry, a backup of the same leg) finds none."""
        with self._answers_lock:
            kept = self._answers.pop(query, {})
            self._answer_bytes -= sum(map(_size, kept.values()))
        return kept

    def forget_answers(self) -> None:
        """Drop every kept answer, as a restart would."""
        with self._answers_lock:
            self._answers.clear()
            self._answer_bytes = 0

    @property
    def answer_bytes(self) -> int:
        """Bytes of the answers kept (at most :data:`ROUND_STATE_BYTES`)."""
        return self._answer_bytes

    def rejoin(
        self, answers: dict, digest: bytes, fragment: Relation, key_attrs: Sequence[str]
    ) -> tuple:
        """``(keyed fragment, key bytes)``: the fragment a positional one
        stands for — the key columns of the answer ``digest`` names among
        ``answers`` (:meth:`take_answers`), row for row, then
        ``fragment``'s — and the bytes of those columns' blocks, which the
        fragment did not ship.

        Raises :class:`~repro.errors.StateMismatch` when ``answers`` holds
        none under ``digest``, or it has other keys or another row count,
        and :class:`~repro.errors.SerializationError` for a digest that is
        not :data:`~repro.net.serialize.DIGEST_BYTES` bytes.
        """
        if type(digest) is not bytes or len(digest) != serialize.DIGEST_BYTES:
            raise SerializationError(
                f"a round-state digest is {serialize.DIGEST_BYTES} bytes, got {digest!r}"
            )
        entry = answers.get(digest)
        if entry is None:
            raise StateMismatch(f"{self.site_id}: no answer {digest.hex()} kept")
        rows, blocks = entry
        if rows != len(fragment):
            raise StateMismatch(
                f"{self.site_id}: answer {digest.hex()} has {rows} rows, "
                f"the fragment positional against it {len(fragment)}"
            )
        parts = [serialize.decode_leading(block, len(key_attrs)) for block in blocks]
        keys = parts[0][0].union_all(*(part for part, _size in parts[1:]))
        if keys.schema.names != tuple(key_attrs) or set(key_attrs) & set(fragment.schema.names):
            raise StateMismatch(
                f"{self.site_id}: answer {digest.hex()} is keyed by "
                f"{keys.schema.names}, not {tuple(key_attrs)} beside "
                f"{fragment.schema.names}"
            )
        columns = [
            *keys.to_columnar().value_lists().held(),
            *fragment.to_columnar().value_lists().held(),
        ]
        schema = Schema([*keys.schema.attributes, *fragment.schema.attributes])
        keyed = ColumnarRelation.from_value_lists(schema, columns, rows)
        return Relation.from_columnar(keyed), sum(size for _part, size in parts)

    # -- round handlers ----------------------------------------------------------

    def compute_base(self, source: BaseSource) -> Relation:
        """Evaluate the base-values query over the local partition.

        Only the table the source reads is read: a full read concatenates
        that table's append log, and no other table's."""
        name = source.table_name
        return source.evaluate({} if name is None else {name: self.warehouse.table(name)})

    def evaluate_round(
        self,
        base_fragment: Relation,
        steps: Sequence[MDStep],
        key_attrs: Sequence[str],
        independent_reduction: bool,
        since: int = 0,
        grows: Optional[DistinctBase] = None,
        addressed: bool = False,
    ) -> Relation:
        """Evaluate one round's steps locally; return the shipped Hᵢ.

        ``base_fragment`` is this site's fragment of X (already decoded
        from the wire). For multi-step rounds the steps chain locally:
        each step's *finalized* output becomes the next step's base —
        correct precisely under the optimizer-verified Corollary 1
        precondition that every group's detail data is site-local.

        ``since`` (a table version; 0 is the whole partition) evaluates
        over the rows appended after it: an incremental refresh's round.
        ``grows`` is the distinct base those rows extend: their keys the
        fragment lacks join it as groups and are answered even untouched,
        so the coordinator learns every new group.

        ``addressed`` answers by row address and returns ``(Hᵢ,
        answered)``: Hᵢ over every fragment row, in order, with the key
        attributes only if the fragment carries all of them (a fragment
        carries the fields its round reads), and the rows Proposition 1
        keeps (``None`` without ``independent_reduction``).
        """
        detail = self._detail(steps[0].detail, since)
        fresh_from = len(base_fragment)
        if grows is not None:
            base_fragment = _grown(base_fragment, detail.distinct_project(list(grows.attrs)))
        current_base = base_fragment
        if addressed:
            key_attrs = carried_keys(key_attrs, base_fragment.schema.names)
        # H_i's columns, column group by column group: the key attributes,
        # then each step's sub columns (its sub-result minus its base's).
        held = base_fragment.to_columnar().value_lists().held()
        columns = [held[position] for position in base_fragment.schema.positions(key_attrs)]
        touched_any = None

        for index, step in enumerate(steps):
            if step.detail != steps[0].detail:
                raise WarehouseError(
                    "chained steps must share one detail table"
                )
            is_last = index == len(steps) - 1
            if is_last:
                sub, touched = operator.evaluate_sub(current_base, detail, step.blocks)
            else:
                full, sub, touched = operator.evaluate_both(
                    current_base, detail, step.blocks
                )
            columns += sub.to_columnar().value_lists().held()[len(current_base.schema):]
            touched_any = touched if touched_any is None else touched_any | touched
            if not is_last:
                current_base = full

        attributes = list(base_fragment.schema.project(key_attrs).attributes)
        for step in steps:
            for block in step.blocks:
                attributes.extend(block.sub_attributes())
        h_i = ColumnarRelation.from_value_lists(Schema(attributes), columns, len(base_fragment))
        if addressed:
            answered = np.flatnonzero(touched_any) if independent_reduction else None
            return Relation.from_columnar(h_i), answered
        if independent_reduction:
            touched_any[fresh_from:] = True
            h_i = h_i.gather(np.flatnonzero(touched_any))
        return Relation.from_columnar(h_i)

    def _detail(self, table_name: str, since: int) -> Relation:
        if not since:
            return self.warehouse.table(table_name)
        rows = self.warehouse.appended_since(table_name, since)
        if rows is None:
            raise WarehouseError(
                f"{self.site_id}: {table_name!r} was replaced after version "
                f"{since}, so the rows appended since are unknown"
            )
        return rows

    def evaluate_merged_round(
        self,
        source: BaseSource,
        steps: Sequence[MDStep],
        key_attrs: Sequence[str],
    ) -> Relation:
        """Proposition 2 round: derive Bᵢ locally, then evaluate the steps.

        Every row of the local base is a locally generated group, so
        independent group reduction has nothing to drop here.
        """
        local_base = self.compute_base(source)
        return self.evaluate_round(
            local_base, steps, key_attrs, independent_reduction=False
        )


def _grown(fragment: Relation, keys: Relation) -> Relation:
    """``fragment`` (distinct keys) followed by the ``keys`` it lacks: the
    first-seen rows of their concatenation's key codes."""
    both = fragment.union_all(keys).to_columnar()
    firsts, _codes = both.codes(range(len(fragment.schema)))
    return Relation.from_columnar(both.gather(firsts))
