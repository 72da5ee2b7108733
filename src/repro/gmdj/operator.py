"""Centralized GMDJ evaluation (Definition 1 of the paper).

The evaluation strategy is the hash-based MD-join of Chatziantoniou et
al. (ICDE 2001), the paper's reference [7]: for each block, the equality
atoms of the condition build a hash table over the base-values relation;
a single scan of the detail relation probes it and updates per-base-row
accumulators, checking any residual (non-equality) conjuncts per
candidate pair. Conditions without equality atoms degrade to a
nested-loop scan — still correct, and exactly why GMDJ groups may
overlap, unlike SQL ``GROUP BY`` groups.

Aggregate state has one runtime representation: **flat component
columns**. ``columns[i]`` is the list, over base rows, of the i-th
sub-aggregate component in ``sub_result_schema`` order — what the site
kernel accumulates into, what H_i ships as explicit columns (Theorem 1),
what the coordinator folds arriving fragments into, and what finalize
reads. Per-group accumulator objects exist only inside the row-engine
scan (the differential oracle) and for holistic aggregates.

Three entry points:

- :func:`evaluate` — the full operator, producing finalized aggregates
  (what a centralized warehouse computes);
- :func:`evaluate_sub` — the site-side variant, producing *sub-aggregate*
  columns and per-row touch flags (|RNG| > 0 over the disjunction of all
  block conditions), used by Skalla sites and Proposition 1 reduction;
- :func:`super_aggregate` — the coordinator-side second GMDJ of Theorem
  1: combines shipped sub-results ``H`` into the global result via key
  equality θ_K and super-aggregates.
"""

from __future__ import annotations

import threading
from operator import add
from typing import Optional, Sequence

from repro.errors import HolisticAggregateError
from repro.gmdj.blocks import MDBlock, result_schema, sub_result_schema
from repro.obs.metrics import active_registry
from repro.relalg import compiler
from repro.relalg.engine import active_engine
from repro.relalg.expressions import BASE_VAR, DETAIL_VAR
from repro.relalg.predicates import split_condition
from repro.relalg.relation import Relation, tuple_getter

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

    ``components`` lists the sub-aggregate components in
    ``sub_result_schema`` order, one per column; ``slots`` holds one
    ``(function, offset, count)`` per aggregate, whose columns are
    ``columns[offset:offset + count]``.
    """
    slots: list = []
    components: list = []
    for block in blocks:
        for spec in block.aggregates:
            own = [component for _suffix, component in spec.function.components()]
            slots.append((spec.function, len(components), len(own)))
            components.extend(own)
    return slots, components


def _sub_names(blocks) -> list:
    """Names of the blocks' sub-aggregate columns, in ``_layout`` order."""
    return [attribute.name for block in blocks for attribute in block.sub_attributes()]


def _fresh_bank(components, count: int) -> list:
    """One column of ``count`` initial values per component."""
    return [
        [component.initial()] * count
        if component.kind in compiler.VECTORIZED_COMPONENT_KINDS
        # A custom component's initial value may be mutable: one per row.
        else [component.initial() for _row in range(count)]
        for component in components
    ]


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
    """``base`` with one more attribute per row-aligned column."""
    if not columns:  # no blocks: ``zip()`` of nothing would drop every row
        return Relation(schema, base.rows)
    return Relation(schema, map(add, base.rows, zip(*columns)))


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
    _hot_counters()[1].inc(len(full.rows))
    return full


def evaluate_sub(
    base: Relation, detail: Relation, blocks: Sequence[MDBlock]
) -> tuple:
    """Site-side GMDJ: sub-aggregate columns plus touch flags.

    Returns ``(H_i, touched)`` where ``H_i`` carries one column per
    sub-aggregate component (Theorem 1's ``l'``) and ``touched[k]`` is
    True iff base row ``k`` had ``|RNG(b, R_i, theta_1 v ... v theta_m)| > 0``
    — the Proposition 1 group-reduction test.
    """
    _reject_holistic(blocks)
    _slots, columns, touched = _accumulate(base, detail, blocks, track_touch=True)
    sub = _extended(base, sub_result_schema(base.schema, blocks), columns)
    _hot_counters()[1].inc(len(sub.rows))
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
    _hot_counters()[1].inc(len(full.rows))
    return full, sub, touched


class SyncSession:
    """Incremental Theorem-1 synchronization against a fixed base.

    Section 3.2: "the coordinator can synchronize H with those
    sub-results it has already received while receiving blocks of H from
    slower sites, rather than having to wait for all of H to be
    assembled". A session holds the aggregate state as component columns
    over the base rows (a *bank*), reached from K through a hash index;
    it absorbs sub-result fragments in any order and finalizes once.

    Fragments are absorbed in *completion* order when site execution is
    parallel, which would make float super-aggregation fold-order
    dependent. To keep results bit-identical across executors, each
    ``source`` (site) folds into its own bank, and :meth:`finish` merges
    the banks in sorted source order — a deterministic combine tree
    regardless of arrival order. Per-schema absorb kernels are cached so
    row blocking does not look them up per fragment.

    ``in_order`` is for a caller whose fragments already arrive in a
    deterministic order (the merged-base assembly, which has collected
    them all): every source folds into one bank, in arrival order.

    ``observes`` makes the session remember, per source, the base rows
    each absorbed row folded into — the groups that source answered with,
    as positions in the base (and so in :meth:`finish`'s relation, which
    keeps the base's row order). It is what the next round's
    observed-distribution group reduction ships that source; the fold has
    the positions in hand, so remembering them is one ``list.append`` per
    absorbed row and a session that is not asked pays nothing.
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
        key_of = tuple_getter(base.schema.positions(self._key_attrs))
        self._index = _key_index(list(map(key_of, base.rows)), range(len(base.rows)))
        self._observes = observes
        self._in_order = in_order
        self._banks: dict = {}  # source -> component columns
        self._touched: dict = {}  # source -> base indices of each absorbed row
        self._kernels: dict = {}  # h schema -> absorb kernel
        self._lock = threading.Lock()

    def _bank_for(self, source: str) -> list:
        bank = self._banks.get(source)
        if bank is None:
            with self._lock:
                bank = self._banks.get(source)
                if bank is None:
                    bank = _fresh_bank(self._components, len(self._base.rows))
                    self._banks[source] = bank
        return bank

    def _kernel_for(self, schema):
        kernel = self._kernels.get(schema)
        if kernel is None:
            kernel = compiler.compile_grouped_combine(
                self._components,
                schema.positions(self._key_attrs),
                schema.positions(_sub_names(self._blocks)),
                records_touch=self._observes,
            )
            with self._lock:
                self._kernels[schema] = kernel
        return kernel

    def absorb(self, h: Relation, source: str = "") -> None:
        """Fold one sub-result fragment into the session (O(|h|)).

        ``source`` identifies the fragment's origin (site id); fragments
        sharing a source fold together in arrival order, distinct
        sources merge deterministically at :meth:`finish`.
        """
        touch = (
            self._touched.setdefault(source, []).append if self._observes else None
        )
        bank = self._bank_for("" if self._in_order else source)
        self._kernel_for(h.schema)(h.rows, self._index.get, bank, touch)

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
        base indices of each row folded from it (one entry per absorbed
        row, in absorb order). ``None`` when the session was not asked."""
        return self._touched if self._observes else None

    def _merged_bank(self) -> list:
        """All source banks combined in sorted source order."""
        if len(self._banks) == 1:
            return next(iter(self._banks.values()))
        count = len(self._base.rows)
        merged = _fresh_bank(self._components, count)
        # A bank is a fragment keyed by base position: row ``(i, *values)``
        # has key ``(i,)``, which is also the base indices it folds into —
        # so ``tuple`` (the identity on tuples) is the probe.
        fold = compiler.compile_grouped_combine(
            self._components, (0,), range(1, len(self._components) + 1)
        )
        for source in sorted(self._banks):
            fold(zip(range(count), *self._banks[source]), tuple, merged)
        return merged

    def finish(self) -> Relation:
        """Finalize super-aggregates into the next base-result structure."""
        return _extended(
            self._base,
            result_schema(self._base.schema, self._blocks),
            _finalized(self._slots, self._merged_bank()),
        )


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
    The fold is :class:`SyncSession`'s: a bank over the first-seen keys
    and the same absorb kernel, rows in order.
    """
    if not h.rows:
        return h
    _slots, components = _layout(blocks)
    key_positions = h.schema.positions(key_attrs)
    sub_positions = h.schema.positions(_sub_names(blocks))
    first_rows: dict = {}  # key -> first row carrying it, in first-seen order
    for key, row in zip(map(tuple_getter(key_positions), h.rows), h.rows):
        first_rows.setdefault(key, row)
    bank = _fresh_bank(components, len(first_rows))
    fold = compiler.compile_grouped_combine(components, key_positions, sub_positions)
    fold(h.rows, _key_index(first_rows, range(len(first_rows))).get, bank)

    merged = list(zip(*first_rows.values()))  # the first rows, as columns
    for position, column in zip(sub_positions, bank):
        merged[position] = column
    return Relation(h.schema, zip(*merged))


# ---------------------------------------------------------------------------
# Shared accumulation scan
# ---------------------------------------------------------------------------


def _accumulate(base, detail, blocks, track_touch):
    """Run the MD-join scan; returns ``(slots, columns, touched)``.

    ``columns`` are the flat component columns of the blocks' aggregate
    state and ``slots`` their per-aggregate layout (see :func:`_layout`).
    ``touched[base_row]`` is maintained only when ``track_touch``.

    The scan's per-row work runs through codegen kernels
    (:mod:`repro.relalg.compiler`): predicates, hash keys and aggregate
    inputs are lowered to positional closures once per block (cached
    across calls by expression shape), so the inner loops pay a plain
    function call per row instead of walking the expression AST. The
    interpreter path (:meth:`Expr.compile`) remains the differential
    oracle — see ``tests/test_compiler.py``.

    The row engine below scans with one :class:`Accumulator` per (group,
    aggregate) — it is the columnar kernels' oracle — and hands its
    state over as columns at the end. A holistic aggregate has no
    components: its one column holds the accumulators themselves (the
    one fallback from plain values, centralized :func:`evaluate` only).
    """
    if active_engine() == "columnar":
        columnar_result = _accumulate_columnar(base, detail, blocks, track_touch)
        if columnar_result is not None:
            return columnar_result

    base_schemas = {BASE_VAR: base.schema}
    detail_schemas = {DETAIL_VAR: detail.schema, None: detail.schema}
    both_schemas = {BASE_VAR: base.schema, **detail_schemas}
    detail_aliases = {None: DETAIL_VAR}
    touched = [False] * len(base.rows) if track_touch else None
    accumulators = []
    tuples_examined = 0

    for block in blocks:
        block_accumulators = [
            [spec.accumulator() for spec in block.aggregates] for _row in base.rows
        ]
        accumulators.append(block_accumulators)
        input_kernels = [
            None
            if spec.input_expr is None
            else compiler.compile_scalar(
                spec.input_expr, detail_schemas, (DETAIL_VAR,), aliases=detail_aliases
            )
            for spec in block.aggregates
        ]
        split = split_condition(block.condition, BASE_VAR, DETAIL_VAR)

        # Base rows that can possibly match (base-only conjuncts).
        if split.base_only:
            base_admits = compiler.compile_predicate(
                split.base_only, base_schemas, (BASE_VAR,)
            )
            candidate_base = [
                index for index, row in enumerate(base.rows) if base_admits(row)
            ]
        else:
            candidate_base = range(len(base.rows))

        # Detail rows that can possibly match (detail-only conjuncts).
        if split.detail_only:
            detail_admits = compiler.compile_predicate(
                split.detail_only, detail_schemas, (DETAIL_VAR,), aliases=detail_aliases
            )
            detail_rows = [row for row in detail.rows if detail_admits(row)]
        else:
            detail_rows = detail.rows

        residual = (
            compiler.compile_predicate(
                split.residual,
                both_schemas,
                (BASE_VAR, DETAIL_VAR),
                aliases=detail_aliases,
            )
            if split.residual
            else None
        )
        tuples_examined += len(detail_rows)
        base_rows = base.rows

        if split.hashable:
            base_key = compiler.compile_values(
                [atom.base_expr for atom in split.atoms], base_schemas, (BASE_VAR,)
            )
            detail_key = compiler.compile_values(
                [atom.detail_expr for atom in split.atoms],
                detail_schemas,
                (DETAIL_VAR,),
                aliases=detail_aliases,
            )
            # NULL keys never match under SQL equality semantics, so rows
            # with a NULL key component are excluded from build and probe.
            table: dict = {}
            for base_index in candidate_base:
                key = base_key(base_rows[base_index])
                if None in key:
                    continue
                table.setdefault(key, []).append(base_index)

            table_get = table.get
            for detail_row in detail_rows:
                key = detail_key(detail_row)
                if None in key:
                    continue
                matches = table_get(key)
                if not matches:
                    continue
                input_values = [
                    None if kernel is None else kernel(detail_row)
                    for kernel in input_kernels
                ]
                for base_index in matches:
                    if residual is not None and not residual(
                        base_rows[base_index], detail_row
                    ):
                        continue
                    if track_touch:
                        touched[base_index] = True
                    for accumulator, value in zip(
                        block_accumulators[base_index], input_values
                    ):
                        accumulator.update(value)
        else:
            # No equality atoms: nested-loop evaluation, O(|B| * |R|).
            for detail_row in detail_rows:
                input_values = [
                    None if kernel is None else kernel(detail_row)
                    for kernel in input_kernels
                ]
                for base_index in candidate_base:
                    if residual is not None and not residual(
                        base_rows[base_index], detail_row
                    ):
                        continue
                    if track_touch:
                        touched[base_index] = True
                    for accumulator, value in zip(
                        block_accumulators[base_index], input_values
                    ):
                        accumulator.update(value)

    _hot_counters()[0].inc(tuples_examined)
    slots: list = []
    columns: list = []
    for block, block_accumulators in zip(blocks, accumulators):
        for agg_index, spec in enumerate(block.aggregates):
            per_row = [row[agg_index] for row in block_accumulators]
            if spec.is_holistic:
                own = [per_row]
            else:
                values = [accumulator.sub_values() for accumulator in per_row]
                own = [
                    [row_values[position] for row_values in values]
                    for position in range(len(spec.function.components()))
                ]
            slots.append((spec.function, len(columns), len(own)))
            columns.extend(own)
    return slots, columns, touched


def _vectorizable(blocks) -> bool:
    """Whether every aggregate's components have inlinable update rules.

    Holistic accumulators and custom components registered via
    :func:`repro.relalg.aggregates.register_aggregate` with kinds outside
    :data:`repro.relalg.compiler.VECTORIZED_COMPONENT_KINDS` fall back to
    the row engine — correctness over speed for extensions.
    """
    for block in blocks:
        for spec in block.aggregates:
            if spec.is_holistic:
                return False
            for _suffix, component in spec.function.components():
                if component.kind not in compiler.VECTORIZED_COMPONENT_KINDS:
                    return False
    return True


def _accumulate_columnar(base, detail, blocks, track_touch):
    """Vectorized MD-join scan over the detail relation's columns.

    Same algorithm as the row path below — base-only prefilter, hash
    build over equality atoms, detail scan with residual checks — but the
    per-detail-row work (selection mask, NULL-key check, probe, aggregate
    input evaluation, component updates) runs inside one fused generated
    kernel (:func:`repro.relalg.compiler.compile_grouped_accumulate`)
    over hoisted column vectors, accumulating into flat per-component
    lists — the state columns themselves. Returns ``None`` when a block
    cannot be vectorized (holistic or unknown custom components), which
    sends the caller down the row path. Results are bit-identical to the
    row engine: kernels replicate ``Component.update``
    statement-for-statement and scan detail rows in the same order.
    """
    if not _vectorizable(blocks):
        return None
    slots, components = _layout(blocks)
    base_schemas = {BASE_VAR: base.schema}
    detail_schemas = {DETAIL_VAR: detail.schema, None: detail.schema}
    both_schemas = {BASE_VAR: base.schema, **detail_schemas}
    detail_aliases = {None: DETAIL_VAR}
    columns = detail.to_columnar().value_lists()
    detail_count = len(detail.rows)
    base_rows = base.rows
    base_count = len(base_rows)
    touched = [False] * base_count if track_touch else None
    state = _fresh_bank(components, base_count)
    offset = 0
    tuples_examined = 0

    for block in blocks:
        split = split_condition(block.condition, BASE_VAR, DETAIL_VAR)

        if split.base_only:
            base_admits = compiler.compile_predicate(
                split.base_only, base_schemas, (BASE_VAR,)
            )
            candidate_base = [
                index for index, row in enumerate(base_rows) if base_admits(row)
            ]
            candidate_rows = [base_rows[index] for index in candidate_base]
        else:
            candidate_base = range(base_count)
            candidate_rows = base_rows

        if split.detail_only:
            mask = compiler.compile_mask(
                split.detail_only,
                detail_schemas,
                (DETAIL_VAR,),
                DETAIL_VAR,
                aliases=detail_aliases,
            )
            indices = mask(detail_count, columns)
        else:
            indices = range(detail_count)
        tuples_examined += len(indices)

        if split.hashable:
            base_key = compiler.compile_values(
                [atom.base_expr for atom in split.atoms], base_schemas, (BASE_VAR,)
            )
            table = _key_index(list(map(base_key, candidate_rows)), candidate_base)
            # NULL keys never match under SQL equality semantics.
            for key in [key for key in table if None in key]:
                del table[key]
            probe = table.get
            key_exprs = [atom.detail_expr for atom in split.atoms]
        else:
            probe = candidate_base
            key_exprs = None

        component_kinds = tuple(
            tuple(component.kind for _suffix, component in spec.function.components())
            for spec in block.aggregates
        )
        kernel = compiler.compile_grouped_accumulate(
            key_exprs,
            tuple(spec.input_expr for spec in block.aggregates),
            component_kinds,
            split.residual,
            both_schemas,
            DETAIL_VAR,
            BASE_VAR,
            track_touch,
            aliases=detail_aliases,
        )
        width = sum(len(kinds) for kinds in component_kinds)
        kernel(
            indices, columns, base_rows, probe, state[offset : offset + width], touched
        )
        offset += width

    _hot_counters()[0].inc(tuples_examined)
    return slots, state, touched
