"""Expression compiler: row kernels per tuple, vector kernels for the scan.

The closed node set of :mod:`repro.relalg.expressions` lowers two ways,
both with the interpreter's semantics exactly (:meth:`Expr.eval` is the
oracle, see ``tests/test_compiler.py``): arithmetic over ``None`` and
``/`` or ``%`` by zero yield ``None``; comparisons, ``BETWEEN`` and ``IN``
with a ``None`` operand are ``False``; ``&`` / ``|`` never evaluate their
right operand where the left decides (so a type-incompatible comparison
guarded by the left side raises in neither lowering).

**Row kernels** (:func:`compile_scalar`, :func:`compile_predicate`,
:func:`compile_values`): one generated Python function of straight-line
statements over positional row tuples, e.g.
``_t1 = False if _row1[2] is None else _row1[2] >= 10``, called per row.
They serve what is still per tuple: the scan's base-only prefilter and
a base hash key with an expression-valued side
(:func:`repro.gmdj.operator._accumulate`) — and the tests' row oracle
(``tests/oracle/``), which scans with them.

**Vector kernels** (:func:`compile_mask`, :func:`compile_batch_scalar`,
:func:`compile_grouped_accumulate`) serve the GMDJ scan,
``Relation.select`` / ``extend`` / ``theta_join`` and the coordinator's
¬ψᵢ ship filter
(:meth:`~repro.distributed.coordinator.Coordinator.fragment_for_site`):
each node runs once per column, as numpy operations over the cached
typed views of :class:`~repro.relalg.columnar.ColumnarRelation`, on a
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

Row kernels inline literals and are cached by expression; vector kernels
are cached by *shape*, constants bound at call time. One process-wide
cache holds them all, bounded (:data:`MAX_CACHED_KERNELS`).
"""

from __future__ import annotations

import math
import operator
import threading
from itertools import chain, repeat
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ExpressionError
from repro.relalg.columnar import EXACT_INT, as_list, factorize
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

#: Constant types safe to inline as literals in generated source.
_INLINE_CONSTS = (bool, int, float, str)


class _Emitter:
    """Accumulates statements, temps, and environment bindings."""

    def __init__(self, schemas: Mapping, param_of: Mapping):
        self.schemas = schemas
        self.param_of = param_of
        self.lines: list = []
        self.env: dict = {}
        self._temps = 0
        self._consts = 0
        #: Atoms known to be literal constants (for static NULL analysis
        #: and to avoid ``<literal> is None`` syntax warnings).
        self.literal_atoms: set = set()

    # -- low-level helpers ---------------------------------------------------

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    def bind(self, value) -> str:
        self._consts += 1
        name = f"_c{self._consts}"
        self.env[name] = value
        return name

    def null_checks(self, atoms: Sequence[str]) -> list:
        """``X is None`` fragments for atoms that can be NULL at runtime.

        Literal atoms are resolved statically: a literal ``None`` check
        is the constant ``True``; any other literal is never NULL.
        """
        checks = []
        for atom in atoms:
            if atom in self.literal_atoms:
                if atom == "None":
                    checks.append("True")
            else:
                checks.append(f"{atom} is None")
        return checks

    # -- node emission -------------------------------------------------------

    def emit(self, node: Expr, indent: int) -> str:
        """Emit statements computing ``node``; return the result atom."""
        if isinstance(node, Const):
            value = node.value
            inline = value is None or type(value) in _INLINE_CONSTS
            if inline and isinstance(value, float) and not math.isfinite(value):
                inline = False  # repr(nan)/repr(inf) are not literals
            if inline:
                atom = repr(value)
                self.literal_atoms.add(atom)
                return atom
            return self.bind(value)

        if isinstance(node, Field):
            try:
                schema = self.schemas[node.relvar]
            except KeyError:
                raise ExpressionError(
                    f"no schema for relation variable {node.relvar!r} "
                    f"(have {sorted(map(repr, self.schemas))})"
                ) from None
            try:
                param = self.param_of[node.relvar]
            except KeyError:
                raise ExpressionError(
                    f"no kernel parameter bound for relation variable "
                    f"{node.relvar!r} (have {sorted(map(repr, self.param_of))})"
                ) from None
            return f"{param}[{schema.position(node.name)}]"

        if isinstance(node, Arith):
            left = self.emit(node.left, indent)
            right = self.emit(node.right, indent)
            checks = self.null_checks((left, right))
            if node.op in ("/", "%"):
                checks.append(f"{right} == 0")
            out = self.temp()
            expr = f"{left} {node.op} {right}"
            if checks:
                self.line(indent, f"{out} = None if {' or '.join(checks)} else {expr}")
            else:
                self.line(indent, f"{out} = {expr}")
            return out

        if isinstance(node, Neg):
            operand = self.emit(node.operand, indent)
            out = self.temp()
            checks = self.null_checks((operand,))
            if checks:
                self.line(indent, f"{out} = None if {checks[0]} else -{operand}")
            else:
                self.line(indent, f"{out} = -{operand}")
            return out

        if isinstance(node, Comparison):
            left = self.emit(node.left, indent)
            right = self.emit(node.right, indent)
            checks = self.null_checks((left, right))
            out = self.temp()
            expr = f"{left} {node.op} {right}"
            if checks:
                self.line(indent, f"{out} = False if {' or '.join(checks)} else {expr}")
            else:
                self.line(indent, f"{out} = {expr}")
            return out

        if isinstance(node, And):
            left = self.emit(node.left, indent)
            out = self.temp()
            # Lazy right operand: only evaluated when the left is truthy,
            # mirroring ``bool(left) and bool(right)`` in the interpreter.
            self.line(indent, f"if {left}:")
            right = self.emit(node.right, indent + 1)
            self.line(indent + 1, f"{out} = bool({right})")
            self.line(indent, "else:")
            self.line(indent + 1, f"{out} = False")
            return out

        if isinstance(node, Or):
            left = self.emit(node.left, indent)
            out = self.temp()
            self.line(indent, f"if {left}:")
            self.line(indent + 1, f"{out} = True")
            self.line(indent, "else:")
            right = self.emit(node.right, indent + 1)
            self.line(indent + 1, f"{out} = bool({right})")
            return out

        if isinstance(node, Not):
            operand = self.emit(node.operand, indent)
            out = self.temp()
            self.line(indent, f"{out} = not {operand}")
            return out

        if isinstance(node, InSet):
            operand = self.emit(node.operand, indent)
            values = self.bind(node.values)
            out = self.temp()
            if operand in self.literal_atoms:
                if operand == "None":
                    self.line(indent, f"{out} = False")
                else:
                    self.line(indent, f"{out} = {operand} in {values}")
            else:
                self.line(
                    indent, f"{out} = {operand} is not None and {operand} in {values}"
                )
            return out

        if isinstance(node, Between):
            operand = self.emit(node.operand, indent)
            low = self.emit(node.low, indent)
            high = self.emit(node.high, indent)
            checks = self.null_checks((operand, low, high))
            out = self.temp()
            expr = f"{low} <= {operand} <= {high}"
            if checks:
                self.line(indent, f"{out} = False if {' or '.join(checks)} else {expr}")
            else:
                self.line(indent, f"{out} = {expr}")
            return out

        if isinstance(node, IsNull):
            operand = self.emit(node.operand, indent)
            out = self.temp()
            if operand in self.literal_atoms:
                self.line(indent, f"{out} = {operand == 'None'}")
            else:
                self.line(indent, f"{out} = {operand} is None")
            return out

        raise ExpressionError(f"cannot compile expression node {node!r}")


# ---------------------------------------------------------------------------
# Kernel assembly + cache
# ---------------------------------------------------------------------------

#: Kernels kept process-wide; past it the oldest goes. Row kernels inline
#: literals, so a server that keeps seeing new ones must not keep them all.
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


def _param_map(params: Sequence, aliases: Optional[Mapping]) -> dict:
    """Map relvar -> generated parameter name.

    ``params`` fixes the positional signature; ``aliases`` lets extra
    relvars share a parameter (e.g. unqualified fields reading the
    detail row: ``aliases={None: DETAIL_VAR}``).
    """
    param_of = {}
    for index, relvar in enumerate(params):
        param_of[relvar] = f"_row{index}"
    if aliases:
        for alias, target in aliases.items():
            if target not in param_of:
                raise ExpressionError(
                    f"alias {alias!r} targets unknown parameter relvar {target!r}"
                )
            param_of[alias] = param_of[target]
    return param_of


def _schema_signature(schemas: Mapping) -> tuple:
    return tuple(
        sorted(
            (
                (repr(relvar), tuple((a.name, a.type) for a in schema))
                for relvar, schema in schemas.items()
            ),
        )
    )


def _cache_key(mode, expr_keys, schemas, params, aliases) -> tuple:
    alias_sig = tuple(sorted((repr(k), repr(v)) for k, v in (aliases or {}).items()))
    return (
        mode,
        expr_keys,
        tuple(repr(relvar) for relvar in params),
        alias_sig,
        _schema_signature(schemas),
    )


def _assemble(emitter: _Emitter, params: Sequence, body_tail: Sequence[str]) -> Callable:
    signature = ", ".join(f"_row{index}" for index in range(len(params)))
    body = emitter.lines + list(body_tail)
    source = f"def _kernel({signature}):\n" + "\n".join(
        "    " + line for line in body
    )
    env = emitter.env
    exec(compile(source, "<relalg-kernel>", "exec"), env)  # noqa: S102
    kernel = env["_kernel"]
    kernel.__kernel_source__ = source  # introspection for tests/debugging
    return kernel


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
    key = _cache_key("scalar", expr.key(), schemas, params, aliases)

    def build():
        emitter = _Emitter(schemas, _param_map(params, aliases))
        atom = emitter.emit(expr, 0)
        return _assemble(emitter, params, (f"return {atom}",))

    return _cached(key, build)


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
    if isinstance(conditions, Expr):
        conditions = (conditions,)
    else:
        conditions = tuple(conditions)
    key = _cache_key(
        "predicate", tuple(c.key() for c in conditions), schemas, params, aliases
    )

    def build():
        emitter = _Emitter(schemas, _param_map(params, aliases))
        for condition in conditions:
            atom = emitter.emit(condition, 0)
            emitter.line(0, f"if not {atom}:")
            emitter.line(1, "return False")
        return _assemble(emitter, params, ("return True",))

    return _cached(key, build)


def compile_values(
    exprs: Sequence[Expr],
    schemas: Mapping,
    params: Sequence,
    aliases: Optional[Mapping] = None,
) -> Callable:
    """Compile several expressions to one ``fn(*rows) -> tuple`` kernel.

    Used for hash-join key extraction: one call builds the whole key
    tuple instead of one closure call per key component.
    """
    exprs = tuple(exprs)
    key = _cache_key(
        "values", tuple(e.key() for e in exprs), schemas, params, aliases
    )

    def build():
        emitter = _Emitter(schemas, _param_map(params, aliases))
        atoms = [emitter.emit(expr, 0) for expr in exprs]
        tail = "(" + ", ".join(atoms) + ("," if len(atoms) == 1 else "") + ")"
        return _assemble(emitter, params, (f"return {tail}",))

    return _cached(key, build)


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

    ``sources[relvar]`` is ``(ColumnarRelation, rows)``: position ``i``
    reads row ``rows[i]``, or row ``i`` when ``rows`` is ``None``.
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

    plan = _cached(_cache_key(mode, shapes, schemas, (), aliases), lambda: build(lower, *shapes))
    return plan, consts


def compile_mask(conditions, schemas: Mapping, aliases: Optional[Mapping] = None) -> Callable:
    """Compile a conjunction to ``mask(count, sources) -> positions``.

    The selection vector of a scan: ``sources`` maps each
    relation variable to ``(ColumnarRelation, rows)`` as in
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
    """``min``/``max`` as Python folds floats: the first value equal to the
    extreme wins (ties, ``±0.0``) and a NaN only as a group's first value."""
    count = len(data)
    order = np.arange(count)
    first = np.full(size, count, dtype=np.int64)
    np.minimum.at(first, groups, order)
    number = ~np.isnan(data)
    extreme = np.full(size, np.inf if kind == "min" else -np.inf)
    (np.minimum if kind == "min" else np.maximum).at(extreme, groups[number], data[number])
    hit = number & (data == extreme[groups])
    pick = np.full(size, count, dtype=np.int64)
    np.minimum.at(pick, groups[hit], order[hit])
    padded = np.append(data, np.nan)  # position ``count``: a group with no value
    return padded[np.where(np.isnan(padded[first]), first, pick)]


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


def _fold(component, groups: np.ndarray, vector: tuple, pairs: np.ndarray) -> list:
    """One column of a kind in :data:`VECTORIZED_COMPONENT_KINDS`:
    ``component.update`` of every pair's value into its group, pairs in
    order (see :func:`compile_grouped_accumulate`). ``groups`` / ``vector``
    hold each pair's group and value, ``pairs`` counts the pairs per group;
    these kinds skip NULL, so only the valid values fold."""
    kind, size = component.kind, len(pairs)
    data, valid = vector
    present = pairs
    if valid is not None:
        groups, data = groups[valid], data[valid]
        present = np.bincount(groups, minlength=size)
    if kind == "count":
        return present.tolist()
    if kind in ("logsum", "poscount") and data.dtype != _OBJECT:
        positive = ~(data <= 0)  # a NaN passes ``value <= 0`` as in Python
        groups, data = groups[positive], data[positive]
        present = np.bincount(groups, minlength=size)
        if kind == "poscount":
            return present.tolist()
        # math.log per value: numpy's vector log need not round like libm.
        data = np.fromiter(map(math.log, data.tolist()), dtype=np.float64, count=len(data))
        kind = "sum"
    total = _scatter(kind, groups, data, size) if kind in ("sum", "sumsq", "min", "max") else None
    if total is None:  # the Python rule per value
        return _fold_each(component, groups, data, size)
    column = total.tolist()
    for group in np.flatnonzero(present == 0).tolist():
        column[group] = None
    return column


def _fold_each(component, groups: np.ndarray, values: np.ndarray, size: int, rule=None) -> list:
    """One column by ``rule`` (default ``component.update``) itself: each
    value into its group, in order, in numpy's ordered object loop, every
    group from its own ``initial()`` (a custom kind's may be mutable). A
    holistic ``values`` column is what that ``update`` builds — each
    group's values in order — gathered by one stable sort of the values by
    group."""
    if component.kind == "values":
        ends = np.cumsum(np.bincount(groups, minlength=size)).tolist()
        ordered = values[np.argsort(groups, kind="stable")].tolist()
        return [ordered[start:end] for start, end in zip([0, *ends], ends)]
    column = np.empty(size, dtype=object)
    for group in range(size):
        column[group] = component.initial()
    with np.errstate(all="ignore"):  # Python's float results, not numpy's flags
        np.frompyfunc(rule or component.update, 2, 1).at(column, groups, values)
    return column.tolist()


class _ScanPlan:
    """One block's lowered scan (see :func:`compile_grouped_accumulate`)."""

    def __init__(self, lower, keys, inputs, residuals, schemas: Mapping, aliases: Mapping):
        def field(shape):  # the (relvar, position) a field reads, else None
            return _resolve(shape, schemas, aliases) if shape and shape[0] == "field" else None

        # Per key and per input: the field it reads, if it is one, and its lowering.
        self.keys = keys and [(field(shape), lower(shape)) for shape in keys]
        self.inputs = [(field(shape), lower(shape)) for shape in inputs]
        self.residuals = list(map(lower, residuals))
        # The detail positions the keys read, when every key is a detail field.
        fields = [field for field, _lowered in self.keys or ()]
        self.detail_keys = None
        if keys and all(field and field[0] == DETAIL_VAR for field in fields):
            self.detail_keys = [position for _relvar, position in fields]

    def _codes(self, frame: _Frame, detail, rows) -> tuple:
        """``(keys, codes)``: the distinct probe keys and each position's code."""
        positions = self.detail_keys
        if positions is not None:
            firsts, codes = detail.codes(positions)
            keys = zip(*map(as_list, detail.take(positions, firsts)))
            return list(keys), _compose(codes, rows)
        columns = []
        for field, lowered in self.keys:
            if field and field[0] == DETAIL_VAR:  # the stored objects, as a row probe sees them
                values = detail.value_lists().keys(field[1:])
                columns.append(values if rows is None else list(map(values.__getitem__, rows.tolist())))
            else:
                columns.append(_objects(lowered(frame)).tolist())
        keys = list(zip(*columns))
        firsts, codes = factorize(keys)
        return list(map(keys.__getitem__, firsts.tolist())), codes

    def _pairs(self, frame: _Frame, detail, rows, probe) -> tuple:
        """``(probing, at, bases)``: the positions that found a base row,
        then per (detail, base) pair, detail-major, its index into
        ``probing`` and its base row. ``None`` is the identity map."""
        if self.keys is None:  # nested loop: every position meets every candidate
            candidates = np.fromiter(probe, dtype=np.int64)
            at = np.repeat(np.arange(frame.count), len(candidates))
            return None, at, np.tile(candidates, frame.count)
        if type(probe) is np.ndarray:  # per distinct detail key: its base row, or -1
            bases = probe[_compose(detail.codes(self.detail_keys)[1], rows)]
            return _probing(bases)
        keys, codes = self._codes(frame, detail, rows)
        # A key with a NULL never matches: the table holds no such key.
        found = list(map(probe, keys, repeat(())))
        sizes = np.fromiter(map(len, found), dtype=np.int64, count=len(found))
        flat = np.fromiter(chain.from_iterable(found), dtype=np.int64, count=sizes.sum())
        if sizes.max(initial=0) <= 1:
            firsts = np.full(len(found), -1, dtype=np.int64)
            firsts[sizes == 1] = flat
            return _probing(firsts[codes])
        per_row = sizes[codes]
        probing = np.flatnonzero(per_row)
        if len(probing) == len(per_row):
            probing = None
        else:
            codes, per_row = codes[probing], per_row[probing]
        at = np.repeat(np.arange(len(per_row)), per_row)
        starts = np.repeat((np.cumsum(sizes) - sizes)[codes] - np.cumsum(per_row) + per_row, per_row)
        return probing, at, flat[starts + np.arange(len(at))]

    def run(self, consts, components, detail, rows, base, probe, touched) -> list:
        frame = _Frame(len(detail) if rows is None else len(rows), {DETAIL_VAR: (detail, rows)}, consts)
        probing, at, bases = self._pairs(frame, detail, rows, probe)
        if self.residuals:
            sources = {DETAIL_VAR: (detail, _compose(rows, _compose(probing, at))), BASE_VAR: (base, bases)}
            keep = _select(self.residuals, _Frame(len(bases), sources, consts))
            bases, at = bases[keep], _compose(at, keep)
        pairs = np.bincount(bases, minlength=len(base))  # per base row
        if touched is not None:
            touched |= pairs > 0
        inputs = frame if probing is None else frame.take(probing)
        columns = []
        for (field, lowered), group in zip(self.inputs, components):
            vector = values = None  # the pairs' values: typed, then as objects
            if lowered is not None:
                data, valid = lowered(inputs)
                vector = _compose(data, at), None if valid is None else _compose(valid, at)
            for component in group:
                if component.kind == "count_star":
                    columns.append(pairs.tolist())
                elif vector is not None and component.kind in VECTORIZED_COMPONENT_KINDS:
                    with np.errstate(all="ignore"):  # IEEE results, as Python's floats give
                        columns.append(_fold(component, bases, vector, pairs))
                else:  # every pair's value, NULL included
                    if values is None:
                        pair_rows = _compose(rows, _compose(probing, at))
                        values = self._values(field, vector, detail, pair_rows, len(bases))
                    columns.append(_fold_each(component, bases, values, len(base)))
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
        stored = detail.value_lists().keys(field[1:])
        stored = np.fromiter(stored, dtype=object, count=len(stored))
        return stored if pair_rows is None else stored[pair_rows]


def _probing(bases: np.ndarray) -> tuple:
    """``_ScanPlan._pairs``' answer when each position meets at most one
    base row (``bases``: that row, or -1)."""
    probing = np.flatnonzero(bases >= 0)
    if len(probing) == len(bases):
        return None, None, bases
    return probing, None, bases[probing]


def compile_grouped_accumulate(
    key_exprs,
    input_exprs: Sequence,
    components: Sequence[Sequence],
    residual_conjuncts: Sequence,
    schemas: Mapping,
    aliases: Optional[Mapping] = None,
) -> Callable:
    """The GMDJ scan of one block, whole columns at a time::

        kernel(detail, rows, base, probe, touched) -> columns

    ``detail`` / ``base`` are the :class:`ColumnarRelation` that
    ``DETAIL_VAR`` (and its aliases) / ``BASE_VAR`` fields read; ``rows``
    the detail rows to scan (``None``: all); ``probe`` is ``table.get`` of
    the base hash table over the equality atoms (key tuple -> base rows),
    or — when every key is a detail field and no key matches two base rows
    — an ``int64`` array giving, per distinct detail key of the detail's
    cached factorization (:meth:`ColumnarRelation.codes`), its base row or
    -1; or the candidate base indices when ``key_exprs is None`` (nested
    loop). ``touched`` is a bool array over the base rows, set for every
    base row a pair reaches (``None``: not tracked).
    The result is one list per component of ``components`` (a tuple of
    :class:`~repro.relalg.aggregates.Component` per aggregate), one value
    per base row.

    The probe runs once per *distinct* detail key (the detail's cached
    factorization when the keys are fields); a key matching several base
    rows (overlapping groups) expands to (detail, base) pairs in
    detail-major order. Inputs are evaluated once per detail row that
    found a match, residual conjuncts over the pairs. Each component folds
    its pairs' values in pair order, as ``Component.update`` would:
    ``count_star`` / ``count`` by ``bincount``; ``sum`` / ``sumsq`` by an
    ordered ``np.add.at`` into ``-0.0`` (IEEE addition's identity, so a
    group's first value is kept as is), NULL for a group with no value;
    ``min`` / ``max`` as the value at the first position equal to the
    group's extreme (ties and ``±0.0`` keep the first seen) and a NaN only
    as a group's first value; ``logsum`` / ``poscount`` over ``not v <= 0``
    with ``math.log`` per value. Values no typed dtype folds exactly
    (objects, bools, an int64 total that might overflow) fold through
    ``Component.update`` itself, in numpy's ordered object loop. So does
    every pair's value, NULL included, for a kind the kernels do not know
    (each group from its own ``initial()``); a holistic ``values`` column
    lists each group's values, NULL included, in pair order. Those two
    see a detail field's stored objects, as the row kernels do.
    """
    components = tuple(tuple(group) for group in components)
    kinds = tuple(tuple(component.kind for component in group) for group in components)
    plan, consts = _vector_kernel(
        ("grouped_accumulate", key_exprs is None, kinds),
        (key_exprs or (), input_exprs, residual_conjuncts),
        schemas,
        aliases,
        lambda lower, keys, inputs, residuals: _ScanPlan(
            lower, None if key_exprs is None else keys, inputs, residuals,
            schemas, dict(aliases or {}),
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


def fold_combine(components: Sequence, groups: np.ndarray, vectors: Sequence, size: int) -> list:
    """Shipped sub-aggregate values folded into one column per component.

    ``groups[i]`` is the group the ``i``-th value folds into; ``vectors``
    holds one typed view ``(data, valid)`` of the values per component.
    Entry ``g`` of a column is ``component.combine`` folded over group
    ``g``'s values in order, from ``initial()``, by the scan's grouped
    scatters: counts add into ``int64`` zeros; sums add in order into
    ``-0.0`` skipping NULL (NULL for a group with no value); ``min`` /
    ``max`` keep the first extreme, a NaN only first. Values no dtype folds
    exactly and kinds the kernels do not know fold through
    ``Component.combine`` itself, in numpy's ordered object loop.
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
            columns.append(_objects((total, present)).tolist())
        else:  # the Python rule per value
            columns.append(_fold_each(component, groups, _objects(vector), size, component.combine))
    return columns
