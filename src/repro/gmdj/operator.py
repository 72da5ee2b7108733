"""Centralized GMDJ evaluation (Definition 1 of the paper).

The evaluation strategy is the hash-based MD-join of Chatziantoniou et
al. (ICDE 2001), the paper's reference [7]: for each block, the equality
atoms of the condition index the base-values relation — a hash table, or
for a key of several ``int64`` attributes the detail's sorted composite
keys (:class:`~repro.relalg.columnar.KeyMatcher`); a single scan of the
detail relation probes it and updates per-base-row aggregate state,
checking any residual (non-equality) conjuncts per candidate pair.
Conditions without equality atoms degrade to a nested-loop scan — still
correct, and exactly why GMDJ groups may overlap, unlike SQL ``GROUP BY``
groups.

Aggregate state has one runtime representation: **flat component
columns**. ``columns[i]`` is the list, over base rows, of the i-th
sub-aggregate component in ``sub_result_schema`` order — what the site
kernel accumulates into, what H_i ships as explicit columns (Theorem 1),
what the coordinator folds arriving fragments' typed columns into (a
*bank*), and what finalize reads. A holistic aggregate (centralized
:func:`evaluate` only) has one column, each group's input values.

Relations stay columns end to end: every output here is column-backed
(:meth:`Relation.from_columnar`), the input's held columns plus the new
ones, so the rows of a result are built only by a caller that reads them.

Three entry points:

- :func:`evaluate` — the full operator, producing finalized aggregates
  (what a centralized warehouse computes);
- :func:`evaluate_sub` — the site-side variant, producing *sub-aggregate*
  columns and per-row touch flags (a bool array: |RNG| > 0 over the
  disjunction of all block conditions), used by Skalla sites and Proposition 1 reduction;
- :func:`super_aggregate` — the coordinator-side second GMDJ of Theorem
  1: combines shipped sub-results ``H`` into the global result via key
  equality θ_K and super-aggregates.
"""

from __future__ import annotations

import threading
from itertools import chain, count, repeat
from typing import Optional, Sequence

import numpy as np

from repro.errors import HolisticAggregateError
from repro.gmdj.blocks import MDBlock, result_schema, sub_result_schema
from repro.obs.metrics import active_registry
from repro.relalg import compiler
from repro.relalg.columnar import ColumnarRelation, typed_view
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR, Field
from repro.relalg.predicates import split_condition
from repro.relalg.relation import Relation

# Cached counter handles for the scan hot path: the registry lookup
# (string formatting + dict probe) per operator call is measurable at
# GMDJ call rates, so the handles are resolved once per active registry
# and refreshed only when the active registry changes identity.
_COUNTER_CACHE: tuple = ()


def _hot_counters() -> tuple:
    """``(tuples_examined, tuples_emitted)`` counters of the active registry."""
    global _COUNTER_CACHE
    registry = active_registry()
    cache = _COUNTER_CACHE
    if not cache or cache[0] is not registry:
        cache = (
            registry,
            registry.counter("gmdj.tuples_examined"),
            registry.counter("gmdj.tuples_emitted"),
        )
        _COUNTER_CACHE = cache
    return cache[1], cache[2]


def _layout(blocks) -> tuple:
    """``(slots, components)`` of the blocks' aggregate state columns.

    ``components`` lists the state components (see
    :meth:`~repro.relalg.aggregates.AggSpec.state_components`) in
    ``sub_result_schema`` order, one per column; ``slots`` holds one
    ``(function, offset, count)`` per aggregate, whose columns are
    ``columns[offset:offset + count]``.
    """
    slots: list = []
    components: list = []
    for block in blocks:
        for spec in block.aggregates:
            own = spec.state_components()
            slots.append((spec.function, len(components), len(own)))
            components.extend(own)
    return slots, components


def _sub_names(blocks) -> list:
    """Names of the blocks' sub-aggregate columns, in ``_layout`` order."""
    return [attribute.name for block in blocks for attribute in block.sub_attributes()]


def _key_index(keys: Sequence, indices: Sequence[int]) -> dict:
    """Hash index ``key -> indices`` (in order) over row-aligned sequences."""
    index = dict(zip(keys, zip(indices)))
    if len(index) != len(indices):  # duplicate keys: keep every index
        index = {}
        for key, position in zip(keys, indices):
            index.setdefault(key, []).append(position)
    return index


def _finalized(slots, columns) -> list:
    """One finalized column per aggregate of the layout."""
    return [
        function.finalize_columns(columns[offset : offset + count])
        for function, offset, count in slots
    ]


def _extended(base: Relation, schema, columns) -> Relation:
    """``base`` with one more attribute per row-aligned column, backed by
    the base's held columns plus ``columns``: no row is built, and what is
    cached about the base's columns carries over."""
    return Relation.from_columnar(base.to_columnar().extended(schema, columns))


def _reject_holistic(blocks) -> None:
    for block in blocks:
        if block.has_holistic:
            raise HolisticAggregateError(
                "holistic aggregates cannot produce shippable sub-results"
            )


def evaluate(base: Relation, detail: Relation, blocks: Sequence[MDBlock]) -> Relation:
    """``MD(B, R, (l_1..l_m), (theta_1..theta_m))`` with finalized aggregates."""
    slots, columns, _touched = _accumulate(base, detail, blocks, track_touch=False)
    full = _extended(base, result_schema(base.schema, blocks), _finalized(slots, columns))
    _hot_counters()[1].inc(len(full))
    return full


def evaluate_sub(
    base: Relation, detail: Relation, blocks: Sequence[MDBlock]
) -> tuple:
    """Site-side GMDJ: sub-aggregate columns plus touch flags.

    Returns ``(H_i, touched)`` where ``H_i`` carries one column per
    sub-aggregate component (Theorem 1's ``l'``) and ``touched`` is a bool
    array whose entry ``k`` is True iff base row ``k`` had
    ``|RNG(b, R_i, theta_1 v ... v theta_m)| > 0`` — the Proposition 1
    group-reduction test.
    """
    _reject_holistic(blocks)
    _slots, columns, touched = _accumulate(base, detail, blocks, track_touch=True)
    sub = _extended(base, sub_result_schema(base.schema, blocks), columns)
    _hot_counters()[1].inc(len(sub))
    return sub, touched


def evaluate_both(
    base: Relation, detail: Relation, blocks: Sequence[MDBlock]
) -> tuple:
    """One scan producing finalized *and* sub-aggregate outputs.

    Used by synchronization-reduced local chains (Theorem 5 / Corollary
    1): the finalized relation feeds the next GMDJ of the chain locally,
    while the sub-aggregate columns are what eventually gets shipped.

    Returns ``(full, sub, touched)``; ``full`` and ``sub`` are row-aligned
    with ``base``.
    """
    _reject_holistic(blocks)
    slots, columns, touched = _accumulate(base, detail, blocks, track_touch=True)
    full = _extended(base, result_schema(base.schema, blocks), _finalized(slots, columns))
    sub = _extended(base, sub_result_schema(base.schema, blocks), columns)
    _hot_counters()[1].inc(len(full))
    return full, sub, touched


class SyncSession:
    """Incremental Theorem-1 synchronization against a fixed base.

    Section 3.2: "the coordinator can synchronize H with those
    sub-results it has already received while receiving blocks of H from
    slower sites, rather than having to wait for all of H to be
    assembled". A session reaches the base rows from K through one index,
    key -> position: when K is two or more ``int64`` attributes and the
    base's keys are distinct, the base's composite keys
    (:meth:`ColumnarRelation.matcher`, prepared once), which finds a
    fragment whose keys are ``int64`` too by one ``searchsorted``; else a
    hash index, built on first use. It absorbs sub-result fragments in any
    order and finalizes once, in columns: :meth:`absorb` finds each
    fragment row once and keeps the fragment's sub-aggregate columns with
    each row's base position; :meth:`finish` folds them into typed component
    columns over the base rows (a *bank*) by grouped scatters
    (:func:`repro.relalg.compiler.fold_combine`) and returns X backed by
    the base's columns plus the finalized ones.

    Fragments are absorbed in *completion* order when site execution is
    parallel, which would make float super-aggregation fold-order
    dependent. To keep results bit-identical across executors, each
    ``source`` (site) folds into its own bank in arrival order, and the
    banks merge in sorted source order with the same fold. When no bank
    holds two values for a group and every kind is built in, a bank's
    entry is its one value as shipped, so both levels are one fold over
    the sources' values in sorted source order, which is what runs.

    ``in_order`` is for a caller whose fragments already arrive in a
    deterministic order (the merged-base assembly, which has collected
    them all): every source folds into one bank, in arrival order.

    ``observes`` makes the session remember, per source, the base rows
    each absorbed row folded into — the groups that source answered with,
    as positions in the base (and so in :meth:`finish`'s relation, which
    keeps the base's row order). It is what the next round's
    observed-distribution group reduction ships that source: the probe's
    positions, one array per fragment.
    """

    def __init__(
        self,
        base: Relation,
        key_attrs: Sequence[str],
        blocks: Sequence[MDBlock],
        observes: bool = False,
        in_order: bool = False,
    ):
        self._base = base
        self._key_attrs = tuple(key_attrs)
        self._blocks = tuple(blocks)
        self._slots, self._components = _layout(self._blocks)
        self._sub_names = _sub_names(self._blocks)
        columnar, positions = base.to_columnar(), base.schema.positions(self._key_attrs)
        matcher = columnar.matcher(positions)
        # Distinct keys: a key's code is its position in the base.
        distinct = matcher is not None and len(columnar.codes(positions)[0]) == len(base)
        self._matcher = matcher if distinct else None
        self._index: Optional[tuple] = None  # (hash index, overlapping), built on first use
        self._observes = observes
        self._in_order = in_order
        self._banks: dict = {}  # source -> [(sub columns, base positions)] in arrival order
        self._touched: dict = {}  # source -> [base positions per absorbed fragment]
        self._lock = threading.Lock()

    def _hash_index(self) -> tuple:
        """``(index, overlapping)``: the base's keys -> position, or -> every
        position when two base rows share a key."""
        if self._index is None:
            keys = self._base.to_columnar().keys(self._base.schema.positions(self._key_attrs))
            index = dict(zip(keys, count()))
            overlapping = len(index) != len(keys)
            if overlapping:  # duplicate keys in X: key -> every position
                index = _key_index(keys, range(len(keys)))
            self._index = (index, overlapping)  # published complete
        return self._index

    def _probe(self, columnar, positions: Sequence[int]) -> tuple:
        """``(rows, bases)``: per (fragment row, base row) pair, row-major,
        the row (``rows`` ``None``: every row, once) and its base position."""
        columns = None if self._matcher is None else columnar.int_keys(positions)
        if columns is not None:
            return _found(self._matcher.find(columns))
        index, overlapping = self._hash_index()
        keys = columnar.keys(positions)
        if not overlapping:
            found = np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.int64, count=len(keys))
            return _found(found)
        matches = list(map(index.get, keys, repeat(())))
        sizes = np.fromiter(map(len, matches), dtype=np.int64, count=len(matches))
        bases = np.fromiter(chain.from_iterable(matches), dtype=np.int64, count=sizes.sum())
        return np.repeat(np.arange(len(matches)), sizes), bases

    def absorb(self, h: Relation, source: str = "") -> None:
        """Fold one sub-result fragment into the session (O(|h|)).

        ``source`` identifies the fragment's origin (site id); fragments
        sharing a source fold together in arrival order, distinct
        sources merge deterministically at :meth:`finish`.
        """
        columnar = h.to_columnar()
        held = columnar.value_lists().held()
        rows, bases = self._probe(columnar, h.schema.positions(self._key_attrs))
        sub_positions = h.schema.positions(self._sub_names)
        columns = [_gather(held[position], rows) for position in sub_positions]
        with self._lock:
            self._banks.setdefault("" if self._in_order else source, []).append((columns, bases))
            if self._observes:
                self._touched.setdefault(source, []).append(bases)

    def reset_source(self, source: str) -> None:
        """Discard everything absorbed from one source (site).

        The retry layer calls this between leg attempts: a failed leg may
        have absorbed a partial fragment before raising, and the re-run
        leg will absorb the full fragment again. Because each source folds
        into its own bank, dropping the bank is an exact undo — and what
        the abandoned attempt was observed to touch goes with it.
        """
        with self._lock:
            self._banks.pop(source, None)
            self._touched.pop(source, None)

    def touched(self) -> Optional[dict]:
        """What an observing session saw: per source that answered, the
        base positions each absorbed row folded into, one array per
        absorbed fragment in absorb order. ``None`` when the session was
        not asked."""
        return self._touched if self._observes else None

    def _bank(self) -> list:
        """All source banks combined in sorted source order."""
        size = len(self._base)
        banks = [self._banks[source] for source in sorted(self._banks)]
        if len(banks) > 1 and not self._single_valued(banks, size):
            merged = np.arange(size)
            banks = [[(_fold(self._components, bank, size), merged) for bank in banks]]
        return _fold(self._components, list(chain.from_iterable(banks)), size)

    def _single_valued(self, banks: list, size: int) -> bool:
        """Built-in kinds (``combine(initial(), v)`` is ``v``, or ``0 + v``)
        and no bank with two values for a group: one pass folds it all."""
        if not compiler.VECTORIZED_COMPONENT_KINDS.issuperset(
            component.kind for component in self._components
        ):
            return False
        for bank in banks:
            groups = _groups(bank)
            if len(groups) > size or np.bincount(groups, minlength=size).max(initial=0) > 1:
                return False
        return True

    def finish(self) -> Relation:
        """Finalize super-aggregates into the next base-result structure."""
        return _extended(
            self._base,
            result_schema(self._base.schema, self._blocks),
            _finalized(self._slots, self._bank()),
        )


def _found(found: np.ndarray) -> tuple:
    """``SyncSession._probe``'s pairs when each row finds at most one base
    position (``found``: that position, or -1)."""
    rows = np.flatnonzero(found >= 0)
    return (None, found) if len(rows) == len(found) else (rows, found[rows])


def _groups(fragments: list) -> np.ndarray:
    """The base position of every value of ``fragments``, in order."""
    if len(fragments) == 1:
        return fragments[0][1]
    return np.concatenate([bases for _columns, bases in fragments] or [np.zeros(0, np.int64)])


def _gather(column, rows):
    """A held column's values at ``rows`` (``None``: all of them)."""
    if rows is None:
        return column
    if type(column) is np.ndarray:
        return column[rows]
    return list(map(column.__getitem__, rows.tolist()))


def _fold(components, fragments: list, size: int) -> list:
    """One bank column per component: the values of ``fragments`` —
    ``(sub columns, base positions)`` — combined into ``size`` groups, in
    order (:func:`repro.relalg.compiler.fold_combine`)."""
    vectors = [
        typed_view([columns[index] for columns, _bases in fragments])
        for index in range(len(components))
    ]
    return compiler.fold_combine(components, _groups(fragments), vectors, size)


def super_aggregate(
    base: Relation,
    h: Relation,
    key_attrs: Sequence[str],
    blocks: Sequence[MDBlock],
) -> Relation:
    """Theorem 1's outer GMDJ: ``MD(B, H, (l''_1..l''_m), theta_K)``.

    ``h`` is the multiset union of site sub-results; rows of ``h`` are
    matched to rows of ``base`` by equality on ``key_attrs`` and their
    sub-aggregate components are combined, then finalized. Implemented
    as a one-fragment :class:`SyncSession`.
    """
    session = SyncSession(base, key_attrs, blocks)
    session.absorb(h)
    return session.finish()


def merge_sub_results(
    h: Relation, key_attrs: Sequence[str], blocks: Sequence[MDBlock]
) -> Relation:
    """Combine sub-result rows sharing a key into one row per key.

    Sub-aggregate components are associative and commutative, so partial
    results can be merged *without finalizing* — the output is again a
    valid sub-result relation with the same schema. This is what lets an
    intermediate coordinator in a multi-tier topology (the paper's
    future-work architecture, Section 6) compress its children's H
    relations before forwarding them upward.

    Rows keep the first-seen order of their keys; non-key, non-aggregate
    base attributes (if any) are taken from the first row of each key.
    The fold is :class:`SyncSession`'s, over the key's first-seen codes
    (``ColumnarRelation.codes``), rows in order; the result is
    column-backed.
    """
    if not len(h):
        return h
    _slots, components = _layout(blocks)
    columnar = h.to_columnar()
    held = columnar.value_lists().held()
    firsts, codes = columnar.codes(h.schema.positions(key_attrs))
    sub_positions = h.schema.positions(_sub_names(blocks))
    bank = _fold(components, [([held[position] for position in sub_positions], codes)], len(firsts))
    merged = [_gather(column, firsts) for column in held]
    for position, column in zip(sub_positions, bank):
        merged[position] = column
    return Relation.from_columnar(ColumnarRelation.from_value_lists(h.schema, merged, len(firsts)))


# ---------------------------------------------------------------------------
# The scan
# ---------------------------------------------------------------------------


def _accumulate(base, detail, blocks, track_touch):
    """Run the MD-join scan; returns ``(slots, columns, touched)``.

    ``columns`` are the flat state columns of the blocks' aggregates and
    ``slots`` their per-aggregate layout (see :func:`_layout`).
    ``touched`` is a bool array over the base rows, maintained only when
    ``track_touch``.

    Per block: the base-only conjuncts prefilter the base rows and the
    equality atoms match the survivors' keys against the detail's distinct
    keys — by their ``int64`` composites (:func:`_matched`) when the keys
    allow, else through a hash table over the survivors; the detail-only
    conjuncts are one selection vector
    (:func:`repro.relalg.compiler.compile_mask`); probe, residuals,
    aggregate inputs and component folds are one vector kernel
    (:func:`repro.relalg.compiler.compile_grouped_accumulate`) over the
    relations' cached typed views and key codes, producing the state
    columns themselves. Every group folds its values in detail-row order
    by ``Component.update``'s rule, custom kinds and holistic aggregates
    included, so the result is bit-identical by ``repr`` to one
    accumulator per (group, aggregate) fed row by row — the oracle kept
    in ``tests/oracle/``.
    """
    slots, _components = _layout(blocks)
    base_schemas = {BASE_VAR: base.schema}
    schemas = {BASE_VAR: base.schema, DETAIL_VAR: detail.schema, None: detail.schema}
    detail_aliases = {None: DETAIL_VAR}
    detail_columns, base_columns = detail.to_columnar(), base.to_columnar()
    touched = np.zeros(len(base), dtype=bool) if track_touch else None
    state = []
    tuples_examined = 0

    for block in blocks:
        split = split_condition(block.condition, BASE_VAR, DETAIL_VAR)

        candidate_base = range(len(base))
        if split.base_only:
            base_admits = compiler.compile_predicate(
                split.base_only, base_schemas, (BASE_VAR,)
            )
            candidate_base = [
                index for index, row in enumerate(base.rows) if base_admits(row)
            ]

        rows = None
        if split.detail_only:
            mask = compiler.compile_mask(split.detail_only, schemas, detail_aliases)
            rows = mask(len(detail), {DETAIL_VAR: (detail_columns, None)})
        tuples_examined += len(detail) if rows is None else len(rows)

        if split.hashable:
            key_exprs = [atom.detail_expr for atom in split.atoms]
            probe = _matched(base_columns, detail_columns, split.atoms, candidate_base)
            if probe is None:
                base_exprs = [atom.base_expr for atom in split.atoms]
                table = _key_index(
                    _base_keys(base, base_columns, base_exprs, candidate_base), candidate_base
                )
                # NULL keys never match under SQL equality semantics.
                for key in [key for key in table if None in key]:
                    del table[key]
                probe = table.get
        else:
            probe = candidate_base
            key_exprs = None

        kernel = compiler.compile_grouped_accumulate(
            key_exprs,
            [spec.input_expr for spec in block.aggregates],
            [spec.state_components() for spec in block.aggregates],
            split.residual,
            schemas,
            detail_aliases,
        )
        state.extend(kernel(detail_columns, rows, base_columns, probe, touched))

    _hot_counters()[0].inc(tuples_examined)
    return slots, state, touched


def _matched(base, detail, atoms, candidates) -> Optional[np.ndarray]:
    """Per distinct detail key (the detail's cached factorization), the
    candidate base row with that key, or -1.

    Taken when every equality atom is a plain base field against a plain
    detail field, both sides' keys are ``int64`` composites
    (:meth:`ColumnarRelation.matcher`, cached on the detail) and no two
    candidates share a key; ``None`` otherwise, for the hash table.
    """
    if len(atoms) < 2 or not all(
        isinstance(atom.base_expr, Field) and atom.base_expr.relvar == BASE_VAR
        and isinstance(atom.detail_expr, Field) and atom.detail_expr.relvar in (DETAIL_VAR, None)
        for atom in atoms
    ):
        return None
    matcher = detail.matcher(detail.schema.positions([atom.detail_expr.name for atom in atoms]))
    if matcher is None:
        return None
    columns = base.int_keys(base.schema.positions([atom.base_expr.name for atom in atoms]))
    if columns is None:
        return None
    if type(candidates) is range:
        rows = np.arange(len(base))
    else:
        rows = np.asarray(candidates, dtype=np.int64)
        columns = [data[rows] for data in columns]
    codes = matcher.find(columns)
    hit = codes >= 0
    found = np.full(len(matcher), -1, dtype=np.int64)
    found[codes[hit]] = rows[hit]
    # Two candidates with one key (overlapping groups): the table lists both.
    return found if np.count_nonzero(found >= 0) == np.count_nonzero(hit) else None


def _base_keys(base, columnar, exprs, candidates) -> list:
    """The key tuple of each candidate base row over the equality atoms'
    base sides: read from the key columns when every side is a plain base
    field, else one row kernel call per row."""
    if all(isinstance(expr, Field) and expr.relvar == BASE_VAR for expr in exprs):
        keys = columnar.keys(base.schema.positions([expr.name for expr in exprs]))
        if len(exprs) == 1:
            keys = list(zip(keys))
    else:
        base_key = compiler.compile_values(exprs, {BASE_VAR: base.schema}, (BASE_VAR,))
        keys = list(map(base_key, base.rows))
    return keys if len(candidates) == len(keys) else list(map(keys.__getitem__, candidates))
