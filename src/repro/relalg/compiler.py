"""Expression compiler: row kernels per tuple, vector kernels for the scan.

The closed node set of :mod:`repro.relalg.expressions` lowers two ways,
both with the semantics of the tests' interpreter exactly
(``tests/oracle/interp.py`` is the oracle, see ``tests/test_compiler.py``):
arithmetic over ``None`` and ``/`` or ``%`` by zero yield ``None``;
comparisons, ``BETWEEN`` and ``IN`` with a ``None`` operand are
``False``; ``&`` / ``|`` never evaluate their right operand where the
left decides (so a type-incompatible comparison guarded by the left side
raises in neither lowering).

**Row kernels** (:func:`compile_scalar`, :func:`compile_predicate`,
:func:`compile_values`): a tree of closures over positional row tuples,
one per node, called per row. No query path builds one: they serve the
tests' row oracle and GROUP BY baseline (``tests/oracle/``). They stay
here because the benchmark's ``relalg.compile`` hooks name them
(``bench_e2e/hooks.py``) and its ``test_hooks.py`` asserts that each
resolves; once those hooks name only the vector kernels, the row kernels
can follow into ``tests/oracle/``.

**Vector kernels** (:func:`compile_mask`, :func:`compile_batch_scalar`,
:func:`compile_grouped_accumulate`) serve the GMDJ scan,
``Relation.select`` / ``extend``, the coordinator's ¬ψᵢ ship filter
(:meth:`~repro.distributed.coordinator.Coordinator.fragment_for_site`)
and the planner's test of a detail conjunct against a finite domain
(:mod:`repro.gmdj.analysis`):
each node runs once per column, as numpy operations over the cached
typed views of a :class:`~repro.relalg.relation.Relation`, on a
vector ``(data, valid)`` whose validity mask carries NULL (``None``: no
NULL).
Every result is the Python value the row kernels compute:

- *dtype*: ``int64`` holds ints with ``|v| <= 2**53`` (int/float mixing
  converts exactly) and moves to ``object`` when a result may leave that
  range; a ``bool`` operand of arithmetic is an int. ``object`` arrays
  hold the Python values (``None`` at NULLs) and apply the Python operator
  per element from numpy's C loop — strings, dates, bools and huge ints
  included. A dtype choice inside the one path, not a second path;
- *laziness*: ``&`` / ``|`` run their right operand on the positions the
  left leaves undecided, conjunct lists and ``BETWEEN`` narrow likewise,
  and a scan evaluates aggregate inputs only on detail rows that found a
  base row — every operator sees the rows a row-at-a-time scan shows it;
- *order*: folds are ordered scatters (``ufunc.at``, ``bincount``) over
  pairs in detail-row order, a row-at-a-time scan's, so float sums are
  bit-identical (:func:`compile_grouped_accumulate` has each kind's rule).

The coordinator's fold (:func:`fold_combine`, Theorem 1's θ_K) is the
same ordered scatters over shipped sub-aggregate columns, by each kind's
``Component.combine`` rule; it compiles nothing.

Vector kernels are cached by *shape*, constants bound at call time, in
one process-wide cache, bounded (:data:`MAX_CACHED_KERNELS`); a row
kernel is built anew per call.
"""

from __future__ import annotations

import math
import operator
import threading
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ExpressionError
from repro.relalg.columnar import EXACT_INT, as_list, expand
from repro.relalg.expressions import (
    _ARITH_OPS,
    _CMP_OPS,
    BASE_VAR,
    DETAIL_VAR,
    And,
    Arith,
    Between,
    Comparison,
    Const,
    Expr,
    Field,
    InSet,
    IsNull,
    Neg,
    Not,
    Or,
)

#: Kernels kept process-wide; past it the oldest goes. Vector kernels are
#: cached by shape, so this bounds a server that keeps seeing new shapes.
MAX_CACHED_KERNELS = 256

_KERNEL_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def clear_kernel_cache() -> None:
    """Drop all cached kernels (tests and memory-sensitive callers)."""
    with _CACHE_LOCK:
        _KERNEL_CACHE.clear()


def kernel_cache_size() -> int:
    return len(_KERNEL_CACHE)


def _cached(key: tuple, build: Callable):
    """The kernel cached under ``key``, built outside the lock on a miss."""
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = build()
        with _CACHE_LOCK:
            while len(_KERNEL_CACHE) >= MAX_CACHED_KERNELS:
                del _KERNEL_CACHE[next(iter(_KERNEL_CACHE))]
            _KERNEL_CACHE[key] = kernel
    return kernel


def _cache_key(mode, shapes, schemas: Mapping, aliases: Mapping) -> tuple:
    return (
        mode,
        shapes,
        tuple(sorted((repr(k), repr(v)) for k, v in aliases.items())),
        tuple(
            sorted(
                (repr(relvar), tuple((a.name, a.type) for a in schema))
                for relvar, schema in schemas.items()
            )
        ),
    )


# ---------------------------------------------------------------------------
# Row kernels
# ---------------------------------------------------------------------------


def _param_map(params: Sequence, aliases: Optional[Mapping]) -> dict:
    """Map relvar -> the slot of its row among the kernel's arguments.

    ``params`` fixes the positional signature; ``aliases`` lets extra
    relvars share a slot (e.g. unqualified fields reading the detail row:
    ``aliases={None: DETAIL_VAR}``).
    """
    slot_of = {relvar: index for index, relvar in enumerate(params)}
    for alias, target in (aliases or {}).items():
        if target not in slot_of:
            raise ExpressionError(
                f"alias {alias!r} targets unknown parameter relvar {target!r}"
            )
        slot_of[alias] = slot_of[target]
    return slot_of


def _row(node: Expr, schemas: Mapping, slot_of: Mapping) -> Callable:
    """``fn(rows) -> value`` for ``node``, ``rows`` the tuple of the
    kernel's row arguments: one closure per node."""
    if isinstance(node, Const):
        value = node.value
        return lambda rows: value
    if isinstance(node, Field):
        relvar, position = _resolve(node.key(), schemas, {})
        try:
            slot = slot_of[relvar]
        except KeyError:
            raise ExpressionError(
                f"no kernel parameter bound for relation variable "
                f"{relvar!r} (have {sorted(map(repr, slot_of))})"
            ) from None
        return lambda rows: rows[slot][position]
    if not isinstance(node, (Arith, Neg, Comparison, And, Or, Not, InSet, Between, IsNull)):
        raise ExpressionError(f"cannot compile expression node {node!r}")
    parts = [_row(child, schemas, slot_of) for child in node.children()]
    first, right = parts[0], parts[-1]
    if isinstance(node, Arith):
        function, by_zero = _ARITH_OPS[node.op], node.op in ("/", "%")

        def arith(rows):
            a, b = first(rows), right(rows)
            if a is None or b is None or (by_zero and b == 0):
                return None
            return function(a, b)

        return arith
    if isinstance(node, Comparison):
        function = _CMP_OPS[node.op]

        def compare(rows):
            a, b = first(rows), right(rows)
            return False if a is None or b is None else function(a, b)

        return compare
    if isinstance(node, Neg):

        def negate(rows):
            value = first(rows)
            return None if value is None else -value

        return negate
    if isinstance(node, And):
        return lambda rows: bool(first(rows)) and bool(right(rows))
    if isinstance(node, Or):
        return lambda rows: bool(first(rows)) or bool(right(rows))
    if isinstance(node, Not):
        return lambda rows: not first(rows)
    if isinstance(node, InSet):
        values = node.values

        def member(rows):
            value = first(rows)
            return value is not None and value in values

        return member
    if isinstance(node, IsNull):
        return lambda rows: first(rows) is None
    low = parts[1]

    def between(rows):  # ``low <= value <= high``
        value, lo, hi = first(rows), low(rows), right(rows)
        if value is None or lo is None or hi is None:
            return False
        return lo <= value <= hi

    return between


def compile_scalar(
    expr: Expr,
    schemas: Mapping,
    params: Sequence,
    aliases: Optional[Mapping] = None,
) -> Callable:
    """Compile ``expr`` to ``fn(*rows) -> value``.

    ``params`` is the ordered tuple of relvars defining the positional
    row arguments; ``schemas`` maps every referenced relvar (including
    aliases) to its :class:`~repro.relalg.schema.Schema`.
    """
    run = _row(expr, schemas, _param_map(params, aliases))
    return lambda *rows: run(rows)


def compile_predicate(
    conditions,
    schemas: Mapping,
    params: Sequence,
    aliases: Optional[Mapping] = None,
) -> Callable:
    """Compile a condition (or sequence of conjuncts) to ``fn(*rows) -> bool``.

    A sequence is treated as a conjunction with early exit after each
    conjunct — the same short-circuit order as testing the conjuncts one
    by one with the interpreter.
    """
    conditions = (conditions,) if isinstance(conditions, Expr) else conditions
    slot_of = _param_map(params, aliases)
    tests = [_row(condition, schemas, slot_of) for condition in conditions]
    return lambda *rows: all(test(rows) for test in tests)


def compile_values(
    exprs: Sequence[Expr],
    schemas: Mapping,
    params: Sequence,
    aliases: Optional[Mapping] = None,
) -> Callable:
    """Compile several expressions to one ``fn(*rows) -> tuple`` kernel:
    the key tuple of a hash join."""
    slot_of = _param_map(params, aliases)
    parts = [_row(expr, schemas, slot_of) for expr in exprs]
    return lambda *rows: tuple([part(rows) for part in parts])


# ---------------------------------------------------------------------------
# Vector kernels
# ---------------------------------------------------------------------------

_BOOL, _INT, _OBJECT = np.dtype(bool), np.dtype(np.int64), np.dtype(object)
_UFUNCS = {
    operator.add: np.add, operator.sub: np.subtract, operator.mul: np.multiply,
    operator.truediv: np.true_divide, operator.mod: np.remainder,
    operator.eq: np.equal, operator.ne: np.not_equal, operator.lt: np.less,
    operator.le: np.less_equal, operator.gt: np.greater, operator.ge: np.greater_equal,
}
#: operator -> (its ufunc over typed arrays, the Python operator over objects)
_OPS = {
    op: (_UFUNCS[function], np.frompyfunc(function, 2, 1))
    for op, function in {**_ARITH_OPS, **_CMP_OPS}.items()
}
_NEGATE = np.frompyfunc(operator.neg, 1, 1)


class _Frame:
    """``count`` positions, each one row of every source relation.

    ``sources[relvar]`` is ``(Relation, rows)``: position ``i`` reads row
    ``rows[i]``, or row ``i`` when ``rows`` is ``None``. The relation is
    read only through its typed views, codes and held columns, so this
    module needs no import of :mod:`repro.relalg.relation`, which imports
    it.
    ``consts`` holds the constants of the expression shape being run.
    """

    __slots__ = ("count", "sources", "consts")

    def __init__(self, count: int, sources: dict, consts: list):
        self.count, self.sources, self.consts = count, sources, consts

    def take(self, positions) -> "_Frame":
        """The sub-frame of ascending ``positions``."""
        if len(positions) == self.count:
            return self
        sources = {
            relvar: (columnar, _compose(rows, positions))
            for relvar, (columnar, rows) in self.sources.items()
        }
        return _Frame(len(positions), sources, self.consts)

    def field(self, relvar, position: int) -> tuple:
        columnar, rows = self.sources[relvar]
        data, valid = columnar.typed(position)
        return _compose(data, rows), _compose(valid, rows) if valid is not None else None


def _compose(outer, inner):
    """``outer[inner]`` of two index maps, ``None`` being the identity."""
    if inner is None:
        return outer
    return inner if outer is None else outer[inner]


def _both(*masks):
    """The conjunction of validity masks (``None`` = all valid)."""
    masks = [mask for mask in masks if mask is not None]
    return np.logical_and.reduce(masks) if masks else None


def _objects(vector: tuple) -> np.ndarray:
    """The vector's Python values, ``None`` at NULLs."""
    data, valid = vector
    if data.dtype != _OBJECT:
        data = data.astype(object)
        if valid is not None:
            data[~valid] = None
    return data


def _truthy(vector: tuple) -> np.ndarray:
    """``bool(value)`` per position (NULL is false)."""
    data, valid = vector
    if data.dtype == _OBJECT:
        return data.astype(bool)
    truth = data if data.dtype == _BOOL else data != 0
    return truth if valid is None else truth & valid


def _magnitude(data: np.ndarray) -> int:
    return int(np.abs(data).max()) if len(data) else 0


def _const(value, count: int) -> tuple:
    kind = type(value)
    if kind is float or kind is bool or (kind is int and abs(value) <= EXACT_INT):
        return np.full(count, value, dtype=np.int64 if kind is int else kind), None
    data = np.empty(count, dtype=object)
    data.fill(value)
    return data, None if value is not None else np.zeros(count, dtype=bool)


def _apply(function, operands: Sequence, where) -> np.ndarray:
    """An object ufunc on the ``where`` positions only (``None`` elsewhere)."""
    if where is None:
        with np.errstate(all="ignore"):
            return function(*operands)
    out = np.full(len(where), None, dtype=object)
    rows = np.flatnonzero(where)
    if len(rows):
        with np.errstate(all="ignore"):  # Python's float results, not numpy's flags
            out[rows] = function(*(operand[rows] for operand in operands))
    return out


def _compare(op: str, left: np.ndarray, right: np.ndarray, where) -> np.ndarray:
    """``left op right`` as bools, ``False`` outside ``where``."""
    ufunc, python = _OPS[op]
    if left.dtype == _OBJECT or right.dtype == _OBJECT:
        return _apply(python, (left, right), where).astype(bool)
    truth = ufunc(left, right)
    return truth if where is None else truth & where


def _arith(op: str, left: tuple, right: tuple) -> tuple:
    (a, a_valid), (b, b_valid) = left, right
    valid = _both(a_valid, b_valid)
    if op in "/%":
        zero = _compare("==", b, np.zeros(len(b), dtype=np.int64), valid)
        valid = ~zero if valid is None else valid & ~zero
    ufunc, python = _OPS[op]
    if a.dtype != _OBJECT and b.dtype != _OBJECT:
        a, b = (x.astype(np.int64) if x.dtype == _BOOL else x for x in (a, b))
        ints = a.dtype == _INT and b.dtype == _INT
        if not (ints and op == "*" and _magnitude(a) * _magnitude(b) > EXACT_INT):
            with np.errstate(all="ignore"):  # NULL positions may divide by zero
                data = ufunc(a, b)
            if data.dtype == _INT:
                if valid is not None:
                    data[~valid] = 0
                if _magnitude(data) > EXACT_INT:
                    data = _objects((data, valid))
            return data, valid
    return _apply(python, (a, b), valid), valid


def _lazy(left: tuple, right, frame: _Frame, decides: bool) -> tuple:
    """``&`` (``decides=False``) / ``|``: ``right`` runs where ``left`` did not decide."""
    truth = _truthy(left).copy()
    rows = np.flatnonzero(truth != decides)
    if len(rows):
        truth[rows] = _truthy(right(frame.take(rows)))
    return truth, None


def _shape(node: Expr, consts: list) -> tuple:
    """``node.key()`` with each constant replaced by its slot in ``consts``."""
    if isinstance(node, Const):
        consts.append(node.value)
        return ("const", len(consts) - 1)
    if isinstance(node, Field):
        return node.key()
    if isinstance(node, InSet):
        consts.append(node.values)
        return ("in", len(consts) - 1, _shape(node.operand, consts))
    if isinstance(node, (Arith, Comparison)):
        return (node.key()[0], node.op, _shape(node.left, consts), _shape(node.right, consts))
    if isinstance(node, (Neg, And, Or, Not, IsNull, Between)):
        return (type(node).__name__,) + tuple(_shape(child, consts) for child in node.children())
    raise ExpressionError(f"cannot compile expression node {node!r}")


def _resolve(shape: tuple, schemas: Mapping, aliases: Mapping) -> tuple:
    """``(source relvar, position)`` a field shape reads."""
    _tag, relvar, name = shape
    try:
        schema = schemas[relvar]
    except KeyError:
        raise ExpressionError(
            f"no schema for relation variable {relvar!r} "
            f"(have {sorted(map(repr, schemas))})"
        ) from None
    return aliases.get(relvar, relvar), schema.position(name)


def _lower(shape: tuple, schemas: Mapping, aliases: Mapping) -> Callable:
    """``frame -> (data, valid)`` for a shape from :func:`_shape`."""
    tag = shape[0]
    if tag == "const":
        return lambda frame: _const(frame.consts[shape[1]], frame.count)
    if tag == "field":
        source, position = _resolve(shape, schemas, aliases)
        return lambda frame: frame.field(source, position)
    if tag == "in" and shape[2][0] == "field":
        # Decided once per distinct value of the column's factorization, so
        # membership sees the stored objects, as ``in`` does.
        source, position = _resolve(shape[2], schemas, aliases)

        def member(frame):
            values, (columnar, rows) = frame.consts[shape[1]], frame.sources[source]
            firsts, codes = columnar.codes((position,))
            uniques = as_list(columnar.take((position,), firsts)[0])
            found = np.array([u is not None and u in values for u in uniques], dtype=bool)
            return found[_compose(codes, rows)], None

        return member
    op, parts = (shape[1], shape[2:]) if tag in ("arith", "cmp", "in") else (None, shape[1:])
    children = [_lower(child, schemas, aliases) for child in parts]
    first = children[0]
    if tag == "arith":
        return lambda frame: _arith(op, first(frame), children[1](frame))
    if tag == "cmp":

        def compare(frame):
            (a, a_valid), (b, b_valid) = first(frame), children[1](frame)
            return _compare(op, a, b, _both(a_valid, b_valid)), None

        return compare
    if tag == "in":

        def contains(frame):
            data, valid = first(frame)
            member = np.frompyfunc(frame.consts[op].__contains__, 1, 1)
            return _apply(member, (_objects((data, valid)),), valid).astype(bool), None

        return contains
    if tag == "Neg":

        def negate(frame):
            data, valid = first(frame)
            if data.dtype == _OBJECT:
                return _apply(_NEGATE, (data,), valid), valid
            return -(data.astype(np.int64) if data.dtype == _BOOL else data), valid

        return negate
    if tag in ("And", "Or"):
        return lambda frame: _lazy(first(frame), children[1], frame, tag == "Or")
    if tag == "Not":
        return lambda frame: (~_truthy(first(frame)), None)
    if tag == "IsNull":

        def is_null(frame):
            valid = first(frame)[1]
            return (np.zeros(frame.count, dtype=bool) if valid is None else ~valid), None

        return is_null

    def between(frame):  # ``low <= x <= high``: the upper test only where the lower held
        (data, valid), (low, low_valid), (high, high_valid) = (c(frame) for c in children)
        above = _compare("<=", low, data, _both(valid, low_valid, high_valid))
        return _compare("<=", data, high, above), None

    return between


def _select(conjuncts: Sequence[Callable], frame: _Frame) -> np.ndarray:
    """Ascending positions passing every conjunct, each evaluated only on
    the positions the ones before it left standing."""
    positions = None  # all of them
    for conjunct in conjuncts:
        truth = _truthy(conjunct(frame if positions is None else frame.take(positions)))
        positions = np.flatnonzero(truth) if positions is None else positions[truth]
        if not len(positions):
            break
    return np.arange(frame.count) if positions is None else positions


def _vector_kernel(mode, groups: Sequence, schemas: Mapping, aliases, build) -> tuple:
    """``(plan, consts)``: ``build(lower, *shapes)`` cached by the shapes of
    the expressions in ``groups`` (``None`` stays ``None``), constants apart."""
    consts: list = []
    shapes = tuple(
        tuple(None if expr is None else _shape(expr, consts) for expr in group)
        for group in groups
    )
    aliases = dict(aliases or {})

    def lower(shape):
        return None if shape is None else _lower(shape, schemas, aliases)

    plan = _cached(_cache_key(mode, shapes, schemas, aliases), lambda: build(lower, *shapes))
    return plan, consts


def compile_mask(conditions, schemas: Mapping, aliases: Optional[Mapping] = None) -> Callable:
    """Compile a conjunction to ``mask(count, sources) -> positions``.

    The selection vector of a scan: ``sources`` maps each
    relation variable to ``(Relation, rows)`` as in
    :class:`_Frame`, and the result is the ascending positions satisfying
    every conjunct (the early exit of :func:`compile_predicate`).
    """
    conditions = [conditions] if isinstance(conditions, Expr) else conditions
    plan, consts = _vector_kernel(
        "mask", (conditions,), schemas, aliases, lambda lower, shapes: list(map(lower, shapes))
    )
    return lambda count, sources: _select(plan, _Frame(count, sources, consts))


def compile_batch_scalar(expr: Expr, schemas: Mapping, aliases: Optional[Mapping] = None) -> Callable:
    """Compile ``expr`` to ``batch(count, sources) -> [value per position]``.

    The vectorized ``extend``: the values are the Python values
    :func:`compile_scalar` returns, row by row.
    """
    plan, consts = _vector_kernel(
        "batch_scalar", ((expr,),), schemas, aliases, lambda lower, shapes: lower(shapes[0])
    )
    return lambda count, sources: _objects(plan(_Frame(count, sources, consts))).tolist()


#: Component kinds whose ``update`` and ``combine`` rules the kernels
#: implement. A scan folds any other kind (a custom
#: :func:`repro.relalg.aggregates.register_aggregate` component) through
#: ``Component.update`` per pair, NULL included, and gathers a holistic
#: aggregate's ``values``; the coordinator combines a custom kind through
#: ``Component.combine``.
VECTORIZED_COMPONENT_KINDS = frozenset(
    ("count_star", "count", "sum", "sumsq", "min", "max", "logsum", "poscount")
)


def _float_extreme(kind: str, groups: np.ndarray, data: np.ndarray, size: int) -> np.ndarray:
    """``min``/``max`` as :class:`~repro.relalg.aggregates.MinComponent`
    and ``MaxComponent`` fold floats: the first value equal to the extreme
    wins (ties, ``±0.0``), and a NaN ranks above every number — a group's
    first NaN is its ``max``, and its ``min`` only when every value is one."""
    count = len(data)
    order = np.arange(count)
    number = ~np.isnan(data)
    extreme = np.full(size, np.inf if kind == "min" else -np.inf)
    (np.minimum if kind == "min" else np.maximum).at(extreme, groups[number], data[number])
    hit = number & (data == extreme[groups])
    pick = np.full(size, count, dtype=np.int64)
    np.minimum.at(pick, groups[hit], order[hit])
    first_nan = np.full(size, count, dtype=np.int64)
    np.minimum.at(first_nan, groups[~number], order[~number])
    if kind == "min":
        chosen = np.where(pick < count, pick, first_nan)
    else:
        chosen = np.where(first_nan < count, first_nan, pick)
    return np.append(data, np.nan)[chosen]  # position ``count``: a group with no value


def _scatter(kind: str, groups: np.ndarray, data: np.ndarray, size: int) -> Optional[np.ndarray]:
    """``sum``/``sumsq``/``min``/``max`` of typed values per group, or
    ``None`` when the dtype cannot fold them exactly (objects, bools, an
    int64 total that might overflow)."""
    if data.dtype == _OBJECT or data.dtype == _BOOL:
        return None
    ints = data.dtype == _INT
    if kind in ("sum", "sumsq"):
        if ints and _magnitude(data) ** (2 if kind == "sumsq" else 1) * len(data) >= 2**63:
            return None
        total = np.zeros(size, dtype=np.int64) if ints else np.full(size, -0.0)
        np.add.at(total, groups, data * data if kind == "sumsq" else data)
    elif ints:
        limits = np.iinfo(np.int64)
        total = np.full(size, limits.max if kind == "min" else limits.min)
        (np.minimum if kind == "min" else np.maximum).at(total, groups, data)
    else:
        total = _float_extreme(kind, groups, data, size)
    return total


def _fold(component, groups: np.ndarray, vector: tuple, pairs: np.ndarray, slot=None) -> list:
    """One column of a kind in :data:`VECTORIZED_COMPONENT_KINDS`:
    ``component.update`` of every pair's value into its group, pairs in
    order (see :func:`compile_grouped_accumulate`). ``groups`` / ``vector``
    hold each pair's group and value, ``pairs`` counts the pairs per group;
    these kinds skip NULL, so only the valid values fold. ``slot`` maps
    each output row to its group (``None``: the identity)."""
    kind, size = component.kind, len(pairs)
    data, valid = vector
    present = pairs
    if valid is not None:
        groups, data = groups[valid], data[valid]
        present = np.bincount(groups, minlength=size)
    if kind == "count":
        return _compose(present, slot).tolist()
    if kind in ("logsum", "poscount") and data.dtype != _OBJECT:
        positive = ~(data <= 0)  # a NaN passes ``value <= 0`` as in Python
        groups, data = groups[positive], data[positive]
        present = np.bincount(groups, minlength=size)
        if kind == "poscount":
            return _compose(present, slot).tolist()
        # math.log per value: numpy's vector log need not round like libm.
        data = np.fromiter(map(math.log, data.tolist()), dtype=np.float64, count=len(data))
        kind = "sum"
    total = _scatter(kind, groups, data, size) if kind in ("sum", "sumsq", "min", "max") else None
    if total is None:  # the Python rule per value
        return _fold_each(component, groups, data, size, slot=slot)
    column = _compose(total, slot).tolist()
    for row in np.flatnonzero(_compose(present, slot) == 0).tolist():
        column[row] = None
    return column


def _fold_each(component, groups: np.ndarray, values: np.ndarray, size: int, rule=None, slot=None) -> list:
    """One column by ``rule`` (default ``component.update``) itself: each
    value into its group, in order, in numpy's ordered object loop, every
    group from its own ``initial()`` (a custom kind's may be mutable). A
    holistic ``values`` column is what that ``update`` builds — each
    group's values in order — gathered by one stable sort of the values by
    group. ``slot`` maps each output row to its group (``None``: the
    identity); its rows in the last group, which no value reaches, each
    get an ``initial()`` (or a list) of their own."""
    if component.kind == "values":
        counts = np.bincount(groups, minlength=size)
        ends = np.cumsum(counts)
        bounds = zip(_compose(ends - counts, slot).tolist(), _compose(ends, slot).tolist())
        ordered = values[np.argsort(groups, kind="stable")].tolist()
        return [ordered[start:end] for start, end in bounds]
    column = np.empty(size, dtype=object)
    for group in range(size):
        column[group] = component.initial()
    with np.errstate(all="ignore"):  # Python's float results, not numpy's flags
        np.frompyfunc(rule or component.update, 2, 1).at(column, groups, values)
    if slot is not None:
        column = column[slot]
        for row in np.flatnonzero(slot == size - 1).tolist():
            column[row] = component.initial()
    return column.tolist()


class _ScanPlan:
    """One block's lowered scan (see :func:`compile_grouped_accumulate`)."""

    def __init__(self, lower, keyed: bool, inputs, residuals, schemas: Mapping, aliases: Mapping):
        def field(shape):  # the (relvar, position) a field reads, else None
            return _resolve(shape, schemas, aliases) if shape and shape[0] == "field" else None

        self.keyed = keyed
        # Per input: the field it reads, if it is one, and its lowering.
        self.inputs = [(field(shape), lower(shape)) for shape in inputs]
        self.residuals = list(map(lower, residuals))

    def _pairs(self, count: int, probe, base_count: int) -> tuple:
        """``(probing, at, groups, base_of, slot)``: the positions that
        found a base row; per (detail, base) pair, detail-major, its index
        into ``probing`` and its group; each group's base row; each base
        row's group. ``None`` is the identity map.

        When no distinct key meets two base rows (and no base row meets
        two keys, which ``probe`` rules out), a group is a key's code
        (:func:`_by_code`); else a group is a base row and a key meeting
        several expands to one pair per row."""
        if not self.keyed:  # nested loop: every position meets every candidate
            candidates = np.fromiter(probe, dtype=np.int64)
            at = np.repeat(np.arange(count), len(candidates))
            return None, at, np.tile(candidates, count), None, None
        codes, offsets, bases = probe
        sizes = np.diff(offsets)
        if sizes.max(initial=0) <= 1:
            base_of = np.full(len(sizes), -1, dtype=np.int64)
            base_of[sizes == 1] = bases
            return _by_code(base_of, codes, base_count)
        per_row, groups = expand(codes, offsets, bases)
        probing = np.flatnonzero(per_row)
        if len(probing) == len(per_row):
            probing = None
        else:
            per_row = per_row[probing]
        return probing, np.repeat(np.arange(len(per_row)), per_row), groups, None, None

    def run(self, consts, components, detail, rows, base, probe, touched) -> list:
        frame = _Frame(len(detail) if rows is None else len(rows), {DETAIL_VAR: (detail, rows)}, consts)
        probing, at, groups, base_of, slot = self._pairs(frame.count, probe, len(base))
        size = len(base) if slot is None else len(base_of) + 1
        if self.residuals:
            sources = {
                DETAIL_VAR: (detail, _compose(rows, _compose(probing, at))),
                BASE_VAR: (base, _compose(base_of, groups)),
            }
            keep = _select(self.residuals, _Frame(len(groups), sources, consts))
            groups, at = groups[keep], _compose(at, keep)
        pairs = np.bincount(groups, minlength=size)  # per group
        if touched is not None:
            touched |= _compose(pairs, slot) > 0
        inputs = frame if probing is None else frame.take(probing)
        columns = []
        for (field, lowered), group in zip(self.inputs, components):
            vector = values = None  # the pairs' values: typed, then as objects
            if lowered is not None:
                data, valid = lowered(inputs)
                vector = _compose(data, at), None if valid is None else _compose(valid, at)
            for component in group:
                if component.kind == "count_star":
                    columns.append(_compose(pairs, slot).tolist())
                elif vector is not None and component.kind in VECTORIZED_COMPONENT_KINDS:
                    with np.errstate(all="ignore"):  # IEEE results, as Python's floats give
                        columns.append(_fold(component, groups, vector, pairs, slot))
                else:  # every pair's value, NULL included
                    if values is None:
                        pair_rows = _compose(rows, _compose(probing, at))
                        values = self._values(field, vector, detail, pair_rows, len(groups))
                    columns.append(_fold_each(component, groups, values, size, slot=slot))
        return columns

    @staticmethod
    def _values(field, vector, detail, pair_rows, count: int) -> np.ndarray:
        """The pairs' values as Python objects, ``None`` at NULLs; for a
        detail field the stored objects themselves, as the row kernels
        read them (a NaN object is equal only to itself)."""
        if vector is None:  # COUNT(*): no input
            return np.full(count, None, dtype=object)
        if field is None or field[0] != DETAIL_VAR:
            return _objects(vector)
        stored = detail.values(field[1])
        stored = np.fromiter(stored, dtype=object, count=len(stored))
        return stored if pair_rows is None else stored[pair_rows]


def _by_code(base_of: np.ndarray, codes: np.ndarray, base_count: int) -> tuple:
    """``_ScanPlan._pairs``' answer in code space, for ``base_of`` giving
    per distinct key its base row or -1, no row twice: each position's
    group is its key's code, once the positions of keys with no base row
    are dropped. Group ``len(base_of)`` holds the base rows no key meets."""
    live = base_of >= 0
    if live.all():
        probing, groups = None, codes.astype(np.intp, copy=False)
    else:
        probing = np.flatnonzero(live[codes])
        groups = codes[probing].astype(np.intp, copy=False)
    slot = np.full(base_count, len(base_of), dtype=np.intp)
    slot[base_of[live]] = np.flatnonzero(live)
    return probing, None, groups, base_of, slot


def compile_grouped_accumulate(
    keyed: bool,
    input_exprs: Sequence,
    components: Sequence[Sequence],
    residual_conjuncts: Sequence,
    schemas: Mapping,
    aliases: Optional[Mapping] = None,
) -> Callable:
    """The GMDJ scan of one block, whole columns at a time::

        kernel(detail, rows, base, probe, touched) -> columns

    ``detail`` / ``base`` are the relations that
    ``DETAIL_VAR`` (and its aliases) / ``BASE_VAR`` fields read; ``rows``
    the detail rows to scan (``None``: all). When ``keyed``, ``probe`` is
    ``(codes, offsets, bases)``: each scanned row's detail key code and,
    per distinct detail key, its base rows as CSR (``bases[offsets[c]:
    offsets[c + 1]]``, ascending; no base row under two keys); else it is
    the candidate base indices (nested loop). ``touched`` is a bool array
    over the base rows, set for every base row a pair reaches (``None``:
    not tracked). The result is one list per component of ``components``
    (a tuple of :class:`~repro.relalg.aggregates.Component` per
    aggregate), one value per base row.

    When every key meets at most one base row (one base row per group, as
    on a GROUP BY), the fold's groups are the keys' codes: a detail row folds
    into its code, one more group stands for the base rows no key meets,
    and one ``slot`` gather per column puts the groups in base order. Else
    (a key matching several base rows: overlapping groups; the nested
    loop) the groups are the base rows and a row expands to (detail,
    base) pairs in detail-major order. Either way a base row's values
    arrive in detail-row order, the oracle's. The rows of keys that meet
    no base row are dropped first; inputs are evaluated once per detail
    row that found a match, residual conjuncts over the pairs (a base
    field read through the group's base row). Each component folds its
    pairs' values in pair order, as ``Component.update`` would:
    ``count_star`` / ``count`` by ``bincount``; ``sum`` / ``sumsq`` by an
    ordered ``np.add.at`` into ``-0.0`` (IEEE addition's identity, so a
    group's first value is kept as is), NULL for a group with no value;
    ``min`` / ``max`` as the value at the first position equal to the
    group's extreme (ties and ``±0.0`` keep the first seen), a NaN ranking
    above every number; ``logsum`` / ``poscount`` over ``not v <= 0``
    with ``math.log`` per value. Values no typed dtype folds exactly
    (objects, bools, an int64 total that might overflow) fold through
    ``Component.update`` itself, in numpy's ordered object loop. So does
    every pair's value, NULL included, for a kind the kernels do not know
    (each base row from its own ``initial()``, also those no key meets);
    a holistic ``values`` column lists each group's values, NULL
    included, in pair order. Those two see a detail field's stored
    objects, as the row kernels do.
    """
    components = tuple(tuple(group) for group in components)
    kinds = tuple(tuple(component.kind for component in group) for group in components)
    plan, consts = _vector_kernel(
        ("grouped_accumulate", keyed, kinds),
        (input_exprs, residual_conjuncts),
        schemas,
        aliases,
        lambda lower, inputs, residuals: _ScanPlan(
            lower, keyed, inputs, residuals, schemas, dict(aliases or {})
        ),
    )
    return lambda detail, rows, base, probe, touched: plan.run(
        consts, components, detail, rows, base, probe, touched
    )




# ---------------------------------------------------------------------------
# Coordinator fold (Theorem 1's θ_K over shipped sub-aggregates)
# ---------------------------------------------------------------------------

#: The rule each built-in kind's ``Component.combine`` follows: counts add,
#: sums add skipping NULL (``sumsq`` and ``logsum`` ship sums already),
#: extremes keep the first extreme.
_COMBINE_RULES = {
    "count_star": "count", "count": "count", "poscount": "count",
    "sum": "sum", "sumsq": "sum", "logsum": "sum", "min": "min", "max": "max",
}


def _bank_column(total: np.ndarray, present: Optional[np.ndarray]):
    """A folded column as a relation holds it: the typed array itself when
    every group is present and it meets the ``typed`` rule, else its
    values (``None`` where no value reached a group)."""
    if len(total) and (present is None or present.all()):
        if total.dtype == np.float64 or total.dtype == _INT and _magnitude(total) <= EXACT_INT:
            return total
    return _objects((total, present)).tolist()


def fold_combine(components: Sequence, groups: np.ndarray, vectors: Sequence, size: int) -> list:
    """Shipped sub-aggregate values folded into one column per component.

    ``groups[i]`` is the group the ``i``-th value folds into; ``vectors``
    holds one typed view ``(data, valid)`` of the values per component.
    Entry ``g`` of a column is ``component.combine`` folded over group
    ``g``'s values in order, from ``initial()``, by the scan's grouped
    scatters: counts add into ``int64`` zeros; sums add in order into
    ``-0.0`` skipping NULL (NULL for a group with no value); ``min`` /
    ``max`` keep the first extreme, a NaN ranking above every number. Values no dtype folds
    exactly and kinds the kernels do not know fold through
    ``Component.combine`` itself, in numpy's ordered object loop. A column
    every group reaches stays the typed array it folded into when that
    meets the ``typed`` rule (:func:`_bank_column`).
    """
    reached = None  # the groups any value reaches, shared by the NULL-free columns
    columns = []
    for component, vector in zip(components, vectors):
        (data, valid), rule = vector, _COMBINE_RULES.get(component.kind)
        total = present = None
        if rule == "count" and valid is None and data.dtype == _INT:
            total = _scatter("sum", groups, data, size)  # from zeros: no group is NULL
        elif rule in ("sum", "min", "max"):
            kept = groups if valid is None else groups[valid]
            with np.errstate(all="ignore"):  # IEEE results, as Python's floats give
                total = _scatter(rule, kept, data if valid is None else data[valid], size)
            if valid is None and reached is None:
                reached = np.bincount(groups, minlength=size) > 0
            present = reached if valid is None else np.bincount(kept, minlength=size) > 0
        if total is not None:
            columns.append(_bank_column(total, present))
        else:  # the Python rule per value
            columns.append(_fold_each(component, groups, _objects(vector), size, component.combine))
    return columns
