"""Centralized GMDJ evaluation (Definition 1 of the paper).

The evaluation strategy is the hash-based MD-join of Chatziantoniou et
al. (ICDE 2001), the paper's reference [7]: for each block, the equality
atoms of the condition match each base row to the detail's distinct keys
(:class:`~repro.relalg.columnar.KeyMatcher`); a single scan of the
detail relation updates per-base-row aggregate state, checking any
residual (non-equality) conjuncts per candidate pair.
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

Relations stay columns end to end: every output here adopts columns
(:meth:`Relation.of_columns`), the input's held columns plus the new
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

from itertools import chain, repeat
from operator import is_not
from typing import Optional, Sequence

import numpy as np

from repro.errors import HolisticAggregateError
from repro.gmdj.blocks import MDBlock, result_schema, sub_result_schema
from repro.obs.metrics import active_registry
from repro.relalg import compiler
from repro.relalg.columnar import group, key_matcher, typed_view
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


def _finalized(slots, columns) -> list:
    """One finalized column per aggregate of the layout."""
    return [
        function.finalize_columns(columns[offset : offset + count])
        for function, offset, count in slots
    ]


def _reject_holistic(blocks) -> None:
    for block in blocks:
        if block.has_holistic:
            raise HolisticAggregateError(
                "holistic aggregates cannot produce shippable sub-results"
            )


def evaluate(base: Relation, detail: Relation, blocks: Sequence[MDBlock]) -> Relation:
    """``MD(B, R, (l_1..l_m), (theta_1..theta_m))`` with finalized aggregates."""
    slots, columns, _touched = _accumulate(base, detail, blocks, track_touch=False)
    full = base.extended(result_schema(base.schema, blocks), _finalized(slots, columns))
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
    sub = base.extended(sub_result_schema(base.schema, blocks), columns)
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
    full = base.extended(result_schema(base.schema, blocks), _finalized(slots, columns))
    sub = base.extended(sub_result_schema(base.schema, blocks), columns)
    _hot_counters()[1].inc(len(full))
    return full, sub, touched


class SyncSession:
    """Incremental Theorem-1 synchronization against a fixed base.

    Section 3.2: "the coordinator can synchronize H with those
    sub-results it has already received while receiving blocks of H from
    slower sites, rather than having to wait for all of H to be
    assembled". A session reaches the base rows from K through the base's
    :class:`~repro.relalg.columnar.KeyMatcher` on K, whose lookup it
    builds once, on the first probe (X "indexed on K", §3.2), where NULL
    matches NULL — a fragment answered by row address comes with its base
    positions and probes nothing. It
    absorbs sub-result fragments in any order and finalizes once, in
    columns: :meth:`absorb` finds each fragment row once and keeps the
    fragment's sub-aggregate columns with each base position it matches;
    :meth:`finish` folds them into typed component columns over the base
    rows (a *bank*) by grouped scatters
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
    positions, one array per source.
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
        self._matcher = self._find = None  # X's lookup, built on the first probe
        self._observes = observes
        self._in_order = in_order
        self._banks: dict = {}  # source -> [(sub columns, base positions)] in arrival order
        self._touched: dict = {}  # source -> base positions, in absorb order

    def _probe(self, h: Relation, positions: Sequence[int]) -> tuple:
        """``(rows, bases)``: per (fragment row, base row) pair, row-major,
        the row (``rows`` ``None``: every row, once) and its base position."""
        if self._find is None:
            base = self._base
            self._matcher = base.matcher(base.schema.positions(self._key_attrs))
            self._find = self._matcher.finder()  # built once per session
        return self._matcher.pairs(self._find([h.held_at(p) for p in positions], len(h)))

    def absorb(self, h: Relation, source: str = "", positions=None) -> None:
        """Fold one sub-result fragment into the session (O(|h|)).

        ``source`` identifies the fragment's origin (site id); fragments
        sharing a source fold together in arrival order, distinct
        sources merge deterministically at :meth:`finish`.

        ``positions`` (an ``int64`` array) are the base rows ``h``'s rows
        answer, one each — an answer by row address, which needs no key
        attributes and no probe; ``None`` finds them by K.
        """
        held = h.held()
        if positions is None:
            rows, bases = self._probe(h, h.schema.positions(self._key_attrs))
        else:
            rows, bases = None, positions
        sub_positions = h.schema.positions(self._sub_names)
        columns = [_gather(held[position], rows) for position in sub_positions]
        self._banks.setdefault("" if self._in_order else source, []).append((columns, bases))
        if self._observes:
            earlier = self._touched.get(source)
            self._touched[source] = (
                bases if earlier is None else np.concatenate((earlier, bases))
            )

    def reset_source(self, source: str) -> None:
        """Discard everything absorbed from one source (site).

        The retry layer calls this between leg attempts: a failed leg may
        have absorbed a partial fragment before raising, and the re-run
        leg will absorb the full fragment again. Because each source folds
        into its own bank, dropping the bank is an exact undo — and what
        the abandoned attempt was observed to touch goes with it.
        """
        self._banks.pop(source, None)
        self._touched.pop(source, None)

    def touched(self) -> Optional[dict]:
        """What an observing session saw: per source that answered, the
        base positions each absorbed row folded into, one array in absorb
        order. ``None`` when the session was not asked."""
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
        """Finalize super-aggregates into the next base-result structure,
        keeping only the folded bank (:meth:`sub_results`)."""
        self._folded, self._banks = self._bank(), {}
        self._find = self._matcher = None
        return self._base.extended(
            result_schema(self._base.schema, self._blocks),
            _finalized(self._slots, self._folded),
        )

    def release(self) -> None:
        """Drop the folded bank and the base it folded into, keeping what
        was observed (:meth:`touched`) — all the round after reads."""
        self._folded = self._base = None

    def sub_results(self) -> Relation:
        """Theorem 1's H once :meth:`finish` has run: the key attributes
        and the folded sub-aggregate columns, one row per base row — what
        :func:`merge_sub_results` makes of the sub-results absorbed."""
        held, schema = self._base.held(), self._base.schema
        keys = [held[position] for position in schema.positions(self._key_attrs)]
        schema = sub_result_schema(schema.project(self._key_attrs), self._blocks)
        return Relation.of_columns(schema, keys + self._folded, len(self._base))


def finalize_alone(h: Relation, blocks: Sequence[MDBlock], outputs) -> dict:
    """``{output: column}``: the ``outputs`` of ``blocks``' aggregates,
    finalized from ``h``'s sub-aggregate columns where one source answered
    each group once — what :meth:`SyncSession.finish` makes of a group that
    source alone answered: the same fold from ``initial()``
    (:func:`repro.relalg.compiler.fold_combine`), then the same finalize."""
    slots, components = _layout(blocks)
    names = _sub_names(blocks)
    held, positions = h.held(), {name: at for at, name in enumerate(h.schema.names)}
    groups = np.arange(len(h))
    finalized = {}
    specs = (spec for block in blocks for spec in block.aggregates)
    for spec, (function, offset, count) in zip(specs, slots):
        if spec.output in outputs:
            own = slice(offset, offset + count)
            vectors = [typed_view([held[positions[name]]]) for name in names[own]]
            folded = compiler.fold_combine(components[own], groups, vectors, len(h))
            finalized[spec.output] = function.finalize_columns(folded)
    return finalized


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


def merge_addressed(parts: Sequence[tuple], blocks: Sequence[MDBlock]) -> tuple:
    """Sub-results answered by row address, one row per address.

    ``parts`` are ``(h, positions)`` pairs: ``h``'s sub-aggregate columns
    and the row each of its rows answers. Returns the same pair for their
    union, positions ascending, each row the fold of the rows answering it
    in order — :func:`merge_sub_results` with addresses for keys.
    """
    h = parts[0][0].union_all(*(part for part, _positions in parts[1:]))
    positions, codes = np.unique(
        np.concatenate([positions for _part, positions in parts]), return_inverse=True
    )
    _slots, components = _layout(blocks)
    held = h.held()
    names = _sub_names(blocks)
    columns = [held[position] for position in h.schema.positions(names)]
    bank = _fold(components, [(columns, codes)], len(positions))
    return Relation.of_columns(h.schema.project(names), bank, len(positions)), positions


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
    (:meth:`Relation.codes`), rows in order; the result is
    column-backed.
    """
    if not len(h):
        return h
    _slots, components = _layout(blocks)
    held = h.held()
    firsts, codes = h.codes(h.schema.positions(key_attrs))
    sub_positions = h.schema.positions(_sub_names(blocks))
    bank = _fold(components, [([held[position] for position in sub_positions], codes)], len(firsts))
    merged = [_gather(column, firsts) for column in held]
    for position, column in zip(sub_positions, bank):
        merged[position] = column
    return Relation.of_columns(h.schema, merged, len(firsts))


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
    keys (:func:`_key_probe`); the detail-only conjuncts are one selection
    vector
    (:func:`repro.relalg.compiler.compile_mask`); probe, residuals,
    aggregate inputs and component folds are one vector kernel
    (:func:`repro.relalg.compiler.compile_grouped_accumulate`) over the
    relations' cached typed views and key codes, producing the state
    columns themselves. When each distinct detail key meets at most one
    base row and no base row two keys — a GROUP BY's blocks, S1's on the
    partition key — the fold runs over the detail's key codes and one
    gather per column puts them in base order; overlapping groups and the
    nested loop fold over (detail, base) pairs. Either way every group
    folds its values in detail-row order by ``Component.update``'s rule,
    custom kinds and holistic aggregates included, so the result is
    bit-identical by ``repr`` to one accumulator per (group, aggregate)
    fed row by row — the oracle kept in ``tests/oracle/``.
    """
    slots, _components = _layout(blocks)
    base_schemas = {BASE_VAR: base.schema}
    schemas = {BASE_VAR: base.schema, DETAIL_VAR: detail.schema, None: detail.schema}
    detail_aliases = {None: DETAIL_VAR}
    touched = np.zeros(len(base), dtype=bool) if track_touch else None
    state = []
    tuples_examined = 0

    for block in blocks:
        split = split_condition(block.condition, BASE_VAR, DETAIL_VAR)

        candidate_base = range(len(base))
        if split.base_only:
            admits = compiler.compile_mask(split.base_only, base_schemas)
            candidate_base = admits(len(base), {BASE_VAR: (base, None)}).tolist()

        rows = None
        if split.detail_only:
            mask = compiler.compile_mask(split.detail_only, schemas, detail_aliases)
            rows = mask(len(detail), {DETAIL_VAR: (detail, None)})
        tuples_examined += len(detail) if rows is None else len(rows)

        probe = candidate_base
        if split.hashable:
            probe = _key_probe(detail, rows, base, candidate_base, split.atoms, schemas)

        kernel = compiler.compile_grouped_accumulate(
            split.hashable,
            [spec.input_expr for spec in block.aggregates],
            [spec.state_components() for spec in block.aggregates],
            split.residual,
            schemas,
            detail_aliases,
        )
        state.extend(kernel(detail, rows, base, probe, touched))

    _hot_counters()[0].inc(tuples_examined)
    return slots, state, touched


def _key_probe(detail, rows, base, candidates, atoms, schemas) -> tuple:
    """``(codes, offsets, bases)``: each scanned detail row's key code and,
    per distinct detail key, the candidate base rows with that key,
    ascending, as CSR (key ``c``'s are ``bases[offsets[c]:offsets[c + 1]]``).

    The detail's keys are its cached :class:`~repro.relalg.columnar.KeyMatcher`
    when every detail side is a field, else one over the scanned rows'
    keys; each candidate's key finds its code there, a key with a NULL
    finding none, as SQL equality requires. A base row finds one key, so
    no base row meets two.
    """
    count = len(detail) if rows is None else len(rows)
    detail_exprs = [atom.detail_expr for atom in atoms]
    if all(isinstance(expr, Field) and expr.relvar in (DETAIL_VAR, None) for expr in detail_exprs):
        matcher = detail.matcher(detail.schema.positions([expr.name for expr in detail_exprs]))
        codes = matcher.codes if rows is None else matcher.codes[rows]
    else:
        columns, _valid = _key_columns(detail, DETAIL_VAR, rows, count, detail_exprs, schemas)
        matcher = key_matcher(columns, count)
        codes = matcher.codes
    chosen = None if type(candidates) is range else np.asarray(candidates, dtype=np.int64)
    base_exprs = [atom.base_expr for atom in atoms]
    columns, valid = _key_columns(base, BASE_VAR, chosen, len(candidates), base_exprs, {BASE_VAR: base.schema})
    found = matcher.find(columns, len(candidates))
    if valid is not None:
        found[~valid] = -1
    hit = np.flatnonzero(found >= 0)
    offsets, order = group(found[hit], len(matcher))
    return codes, offsets, (hit if chosen is None else chosen[hit])[order]


def _key_columns(relation, relvar: str, rows, count: int, exprs, schemas) -> tuple:
    """``(columns, valid)``: each key expression's values at ``rows`` of
    ``relation``, bound to ``relvar`` (``None``: every row; ``count`` of
    them), and where none is NULL (``None``: everywhere). A field reads its
    typed view when that is a NULL-free ``int64``, else its stored values
    (a NULL stays ``None``, not the view's 0; a NaN object is equal only to
    itself); a computed key comes from a batch kernel."""
    aliases = {None: DETAIL_VAR}
    columns, valid = [], None
    for expr in exprs:
        if isinstance(expr, Field) and aliases.get(expr.relvar, expr.relvar) == relvar:
            position = relation.schema.position(expr.name)
            data, present = relation.typed(position)
            if data.dtype != np.int64 or present is not None:
                data = relation.held_at(position)
            if rows is not None:
                data = data[rows] if type(data) is np.ndarray else relation.take((position,), rows)[0]
                present = None if present is None else present[rows]
        else:
            batch = compiler.compile_batch_scalar(expr, schemas, aliases)
            data = batch(count, {relvar: (relation, rows)})
            present = None
            if None in data:
                present = np.fromiter(map(is_not, data, repeat(None)), dtype=bool, count=count)
        columns.append(data)
        if present is not None:
            valid = present if valid is None else valid & present
    return columns, valid
