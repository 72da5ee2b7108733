"""Codegen compiler: scalar AST -> Python kernels over row tuples.

:meth:`~repro.relalg.expressions.Expr.compile` builds a *closure tree* —
one Python frame per AST node per evaluated row. That is already much
faster than :meth:`Expr.eval`, but the GMDJ hot loops (hash build, probe,
residual checks, aggregate inputs) still pay a call per node per row.
This module lowers an expression once per block to a single generated
Python function whose body is straight-line statements over positional
row arguments, e.g. ``theta = (detail.A == base.A) & (detail.X >= 10)``
becomes roughly::

    def _kernel(_row_b, _row_r):
        _t1 = False if _row_r[0] is None or _row_b[0] is None else _row_r[0] == _row_b[0]
        if _t1:
            _t2 = False if _row_r[2] is None else _row_r[2] >= 10
            _t3 = bool(_t2)
        else:
            _t3 = False
        return _t3

Semantics are *identical* to the interpreter (the differential-testing
oracle, see ``tests/test_compiler.py``):

- arithmetic over ``None`` yields ``None``; ``/`` and ``%`` by zero yield
  ``None``;
- comparisons and ``BETWEEN`` with any ``None`` operand are ``False``;
- ``IN`` never admits ``None``;
- ``&`` / ``|`` short-circuit **lazily** — the right operand is not
  evaluated when the left decides, exactly like ``Expr.eval`` (so a
  type-incompatible comparison guarded by the left side never raises in
  either engine).

Kernels are cached process-wide by (mode, expression key, parameter
layout, schema signature); repeated rounds over the same block condition
compile exactly once.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Mapping, Optional, Sequence

from repro.errors import ExpressionError
from repro.relalg.expressions import (
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

_KERNEL_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def clear_kernel_cache() -> None:
    """Drop all cached kernels (tests and memory-sensitive callers)."""
    with _CACHE_LOCK:
        _KERNEL_CACHE.clear()


def kernel_cache_size() -> int:
    return len(_KERNEL_CACHE)


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
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        emitter = _Emitter(schemas, _param_map(params, aliases))
        atom = emitter.emit(expr, 0)
        kernel = _assemble(emitter, params, (f"return {atom}",))
        with _CACHE_LOCK:
            _KERNEL_CACHE[key] = kernel
    return kernel


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
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        emitter = _Emitter(schemas, _param_map(params, aliases))
        for condition in conditions:
            atom = emitter.emit(condition, 0)
            emitter.line(0, f"if not {atom}:")
            emitter.line(1, "return False")
        kernel = _assemble(emitter, params, ("return True",))
        with _CACHE_LOCK:
            _KERNEL_CACHE[key] = kernel
    return kernel


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
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        emitter = _Emitter(schemas, _param_map(params, aliases))
        atoms = [emitter.emit(expr, 0) for expr in exprs]
        tail = "(" + ", ".join(atoms) + ("," if len(atoms) == 1 else "") + ")"
        kernel = _assemble(emitter, params, (f"return {tail}",))
        with _CACHE_LOCK:
            _KERNEL_CACHE[key] = kernel
    return kernel


# ---------------------------------------------------------------------------
# Batch (columnar) kernels
# ---------------------------------------------------------------------------
#
# The columnar engine amortizes the per-row call overhead away entirely:
# instead of ``fn(row) -> value`` closures invoked once per tuple, batch
# kernels contain the scan loop *inside* the generated function. Fields of
# the designated columnar relation variable read hoisted column locals
# (``_dc3[_i]``) rather than indexing a row tuple, so one generated frame
# processes the whole block. Semantics are identical to the row kernels
# above — the row engine stays the differential oracle
# (``tests/test_engine_equivalence.py``).


class _ColumnEmitter(_Emitter):
    """Emitter whose columnar relvars read ``_dc<pos>[_i]`` column locals."""

    def __init__(self, schemas: Mapping, param_of: Mapping, columnar_relvars):
        super().__init__(schemas, param_of)
        self.columnar_relvars = frozenset(columnar_relvars)
        self.used_columns: set = set()

    def emit(self, node: Expr, indent: int) -> str:
        if isinstance(node, Field) and node.relvar in self.columnar_relvars:
            try:
                schema = self.schemas[node.relvar]
            except KeyError:
                raise ExpressionError(
                    f"no schema for relation variable {node.relvar!r} "
                    f"(have {sorted(map(repr, self.schemas))})"
                ) from None
            position = schema.position(node.name)
            self.used_columns.add(position)
            return f"_dc{position}[_i]"
        return super().emit(node, indent)


def _columnar_relvars(columnar, aliases: Optional[Mapping]) -> frozenset:
    """The columnar relvar plus every alias that targets it."""
    relvars = {columnar}
    for alias, target in (aliases or {}).items():
        if target == columnar:
            relvars.add(alias)
    return frozenset(relvars)


def _batch_param_map(params: Sequence, columnar, aliases: Optional[Mapping]) -> tuple:
    """Row-parameter map for a batch kernel: ``(param_of, row_params)``.

    The columnar relvar is excluded — its fields read column locals.
    Non-columnar params keep positional ``_row{j}`` arguments after the
    leading ``(_n, _cols)`` pair of every batch kernel.
    """
    if columnar not in params:
        raise ExpressionError(
            f"columnar relvar {columnar!r} not among kernel params {params!r}"
        )
    row_params = tuple(relvar for relvar in params if relvar != columnar)
    param_of = {}
    for index, relvar in enumerate(row_params):
        param_of[relvar] = f"_row{index}"
    columnar_set = _columnar_relvars(columnar, aliases)
    if aliases:
        for alias, target in aliases.items():
            if alias in columnar_set:
                continue
            if target not in param_of:
                raise ExpressionError(
                    f"alias {alias!r} targets unknown parameter relvar {target!r}"
                )
            param_of[alias] = param_of[target]
    return param_of, row_params


def _assemble_batch(
    emitter: "_ColumnEmitter",
    row_params: Sequence,
    extra_args: Sequence[str],
    body: Sequence[str],
) -> Callable:
    """Assemble a batch kernel: hoisted column locals + provided body.

    Signature is ``(_n, _cols, *row_args, *extra_args)`` where ``_cols``
    is the tuple of per-column value lists of the columnar relation.
    """
    args = ["_n", "_cols"]
    args.extend(f"_row{index}" for index in range(len(row_params)))
    args.extend(extra_args)
    prologue = [
        f"_dc{position} = _cols[{position}]"
        for position in sorted(emitter.used_columns)
    ]
    source = f"def _kernel({', '.join(args)}):\n" + "\n".join(
        "    " + line for line in prologue + list(body)
    )
    env = emitter.env
    exec(compile(source, "<relalg-batch-kernel>", "exec"), env)  # noqa: S102
    kernel = env["_kernel"]
    kernel.__kernel_source__ = source
    return kernel


def compile_mask(
    conditions,
    schemas: Mapping,
    params: Sequence,
    columnar,
    aliases: Optional[Mapping] = None,
) -> Callable:
    """Compile a conjunction to ``fn(n, cols, *rows) -> [passing indices]``.

    The selection bitmap of the columnar engine: one generated loop over
    the column vectors returns the ascending indices of rows satisfying
    every conjunct (same short-circuit order as
    :func:`compile_predicate`, so both engines evaluate the same atoms).
    """
    if isinstance(conditions, Expr):
        conditions = (conditions,)
    else:
        conditions = tuple(conditions)
    key = _cache_key(
        ("mask", repr(columnar)),
        tuple(c.key() for c in conditions),
        schemas,
        params,
        aliases,
    )
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        param_of, row_params = _batch_param_map(params, columnar, aliases)
        emitter = _ColumnEmitter(schemas, param_of, _columnar_relvars(columnar, aliases))
        emitter.line(0, "_out = []")
        emitter.line(0, "_append = _out.append")
        emitter.line(0, "for _i in range(_n):")
        for condition in conditions:
            atom = emitter.emit(condition, 1)
            emitter.line(1, f"if not {atom}:")
            emitter.line(2, "continue")
        emitter.line(1, "_append(_i)")
        kernel = _assemble_batch(emitter, row_params, (), emitter.lines + ["return _out"])
        with _CACHE_LOCK:
            _KERNEL_CACHE[key] = kernel
    return kernel


def compile_batch_scalar(
    expr: Expr,
    schemas: Mapping,
    params: Sequence,
    columnar,
    aliases: Optional[Mapping] = None,
) -> Callable:
    """Compile ``expr`` to ``fn(n, cols, *rows) -> [value per row]``.

    The vectorized ``extend``: one generated loop computes the expression
    for every row of the columnar relation.
    """
    key = _cache_key(
        ("batch_scalar", repr(columnar)), expr.key(), schemas, params, aliases
    )
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        param_of, row_params = _batch_param_map(params, columnar, aliases)
        emitter = _ColumnEmitter(schemas, param_of, _columnar_relvars(columnar, aliases))
        emitter.line(0, "_out = []")
        emitter.line(0, "_append = _out.append")
        emitter.line(0, "for _i in range(_n):")
        atom = emitter.emit(expr, 1)
        emitter.line(1, f"_append({atom})")
        kernel = _assemble_batch(emitter, row_params, (), emitter.lines + ["return _out"])
        with _CACHE_LOCK:
            _KERNEL_CACHE[key] = kernel
    return kernel


#: Component kinds whose ``update`` and ``combine`` rules the generated
#: kernels inline. Anything else (custom
#: :func:`repro.relalg.aggregates.register_aggregate` components, holistic
#: accumulators) scans with the row engine and combines through
#: ``Component.combine``.
VECTORIZED_COMPONENT_KINDS = frozenset(
    ("count_star", "count", "sum", "sumsq", "min", "max", "logsum", "poscount")
)


def _emit_component_update(emitter, indent, kind, acc, value_atom):
    """Inline one Component.update against flat list ``acc`` at ``_b``.

    Each branch mirrors the corresponding ``Component.update`` in
    :mod:`repro.relalg.aggregates` statement-for-statement so results are
    bit-identical to the row engine (including float fold order).
    """
    slot = f"{acc}[_b]"
    if kind == "count_star":
        emitter.line(indent, f"{slot} += 1")
    elif kind == "count":
        emitter.line(indent, f"if {value_atom} is not None:")
        emitter.line(indent + 1, f"{slot} += 1")
    elif kind == "sum":
        emitter.line(indent, f"if {value_atom} is not None:")
        emitter.line(indent + 1, f"_x = {acc}[_b]")
        emitter.line(
            indent + 1, f"{slot} = {value_atom} if _x is None else _x + {value_atom}"
        )
    elif kind == "sumsq":
        emitter.line(indent, f"if {value_atom} is not None:")
        emitter.line(indent + 1, f"_sq = {value_atom} * {value_atom}")
        emitter.line(indent + 1, f"_x = {acc}[_b]")
        emitter.line(indent + 1, f"{slot} = _sq if _x is None else _x + _sq")
    elif kind == "min":
        emitter.line(indent, f"if {value_atom} is not None:")
        emitter.line(indent + 1, f"_x = {acc}[_b]")
        emitter.line(
            indent + 1,
            f"{slot} = {value_atom} if _x is None else min(_x, {value_atom})",
        )
    elif kind == "max":
        emitter.line(indent, f"if {value_atom} is not None:")
        emitter.line(indent + 1, f"_x = {acc}[_b]")
        emitter.line(
            indent + 1,
            f"{slot} = {value_atom} if _x is None else max(_x, {value_atom})",
        )
    elif kind == "logsum":
        emitter.line(indent, f"if {value_atom} is not None and {value_atom} > 0:")
        emitter.line(indent + 1, f"_lg = _log({value_atom})")
        emitter.env.setdefault("_log", math.log)
        emitter.line(indent + 1, f"_x = {acc}[_b]")
        emitter.line(indent + 1, f"{slot} = _lg if _x is None else _x + _lg")
    elif kind == "poscount":
        emitter.line(indent, f"if {value_atom} is not None and {value_atom} > 0:")
        emitter.line(indent + 1, f"{slot} += 1")
    else:  # pragma: no cover - guarded by VECTORIZED_COMPONENT_KINDS
        raise ExpressionError(f"cannot vectorize component kind {kind!r}")


def _emit_component_combine(emitter, indent, kind, acc, value_atom):
    """Inline one Component.combine of ``value_atom`` into ``acc`` at ``_b``.

    The twin of :func:`_emit_component_update`: each branch mirrors the
    corresponding ``Component.combine`` statement-for-statement (left
    operand the accumulated value, right the absorbed one; ``min``/``max``
    keep the left operand on ties), so folding shipped sub-aggregates is
    bit-identical to calling the method.
    """
    slot = f"{acc}[_b]"
    if kind in ("count_star", "count", "poscount"):
        emitter.line(indent, f"{slot} += {value_atom}")
    elif kind in ("sum", "sumsq", "logsum"):
        emitter.line(indent, f"if {value_atom} is not None:")
        emitter.line(indent + 1, f"_x = {acc}[_b]")
        emitter.line(
            indent + 1, f"{slot} = {value_atom} if _x is None else _x + {value_atom}"
        )
    elif kind in ("min", "max"):
        emitter.line(indent, f"if {value_atom} is not None:")
        emitter.line(indent + 1, f"_x = {acc}[_b]")
        emitter.line(
            indent + 1,
            f"{slot} = {value_atom} if _x is None else {kind}(_x, {value_atom})",
        )
    else:  # pragma: no cover - guarded by VECTORIZED_COMPONENT_KINDS
        raise ExpressionError(f"cannot vectorize component kind {kind!r}")


def _combine_loop(components, key_positions, sub_positions) -> Callable:
    """:func:`compile_grouped_combine` for kinds with no inlined rule."""
    plan = [
        (index, position, component.combine)
        for index, (position, component) in enumerate(zip(sub_positions, components))
    ]

    def kernel(rows, probe, accs, touch=None):
        for row in rows:
            matches = probe(tuple(row[position] for position in key_positions))
            if not matches:
                continue
            if touch is not None:
                touch(matches)
            for base_index in matches:
                for index, position, combine in plan:
                    acc = accs[index]
                    acc[base_index] = combine(acc[base_index], row[position])

    return kernel


def compile_grouped_combine(
    components: Sequence,
    key_positions: Sequence[int],
    sub_positions: Sequence[int],
    records_touch: bool = False,
) -> Callable:
    """Fold sub-aggregate rows into component columns: Theorem 1's θ_K.

    The returned kernel has signature::

        kernel(rows, probe, accs, touch=None)

    - ``rows``: row tuples carrying a key at ``key_positions`` and one
      shipped value per component at ``sub_positions``;
    - ``probe``: maps a key tuple to the base indices holding that key
      (falsy when there are none) — ``index.get`` of a key index;
    - ``accs``: the flat component columns, one per component;
    - ``touch``: with ``records_touch``, called once per folded row with
      the base indices it folded into (``list.append`` of the caller's
      touched set: the fold has them in hand, no second probe finds them).

    For every row and every base index its key maps to, each column's
    entry becomes ``component.combine(entry, shipped value)``, rows in
    order. Kinds in :data:`VECTORIZED_COMPONENT_KINDS` are inlined into
    one generated loop, cached by (kinds, key positions, sub positions,
    records_touch); any other kind sends the whole fold through
    ``Component.combine``.
    """
    kinds = tuple(component.kind for component in components)
    key_positions = tuple(key_positions)
    sub_positions = tuple(sub_positions)
    if not VECTORIZED_COMPONENT_KINDS.issuperset(kinds):
        return _combine_loop(components, key_positions, sub_positions)
    key = ("grouped_combine", kinds, key_positions, sub_positions, records_touch)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is not None:
        return kernel

    emitter = _Emitter({}, {})
    for index in range(len(kinds)):
        emitter.line(0, f"_acc{index} = _accs[{index}]")
    emitter.line(0, "for _r in _rows:")
    key_tuple = "".join(f"_r[{position}], " for position in key_positions)
    emitter.line(1, f"_matches = _probe(({key_tuple}))")
    emitter.line(1, "if not _matches:")
    emitter.line(2, "continue")
    if records_touch:
        emitter.line(1, "_touch(_matches)")
    for index, position in enumerate(sub_positions):
        emitter.line(1, f"_v{index} = _r[{position}]")
    emitter.line(1, "for _b in _matches:")
    for index, kind in enumerate(kinds):
        _emit_component_combine(emitter, 2, kind, f"_acc{index}", f"_v{index}")

    source = "def _kernel(_rows, _probe, _accs, _touch=None):\n" + "\n".join(
        "    " + line for line in emitter.lines
    )
    env = emitter.env
    exec(compile(source, "<relalg-combine-kernel>", "exec"), env)  # noqa: S102
    kernel = env["_kernel"]
    kernel.__kernel_source__ = source
    with _CACHE_LOCK:
        _KERNEL_CACHE[key] = kernel
    return kernel


def compile_grouped_accumulate(
    key_exprs,
    input_exprs: Sequence,
    component_kinds: Sequence[tuple],
    residual_conjuncts: Sequence,
    schemas: Mapping,
    columnar,
    base_param,
    track_touch: bool,
    aliases: Optional[Mapping] = None,
) -> Callable:
    """Fuse the GMDJ probe/update scan into one generated loop.

    The returned kernel has signature::

        kernel(indices, cols, base_rows, probe, accs, touched)

    - ``indices``: detail row indices to scan (post detail-only filter);
    - ``cols``: the detail relation's column value lists;
    - ``base_rows``: row tuples of the base relation (residual checks);
    - ``probe``: hash-path — ``table.get`` of the base hash table built
      over the equality-atom keys; nested-loop path (``key_exprs is
      None``) — the list of candidate base indices;
    - ``accs``: flat accumulator lists, one per (aggregate, component) in
      block order, each ``len(base_rows)`` long;
    - ``touched``: per-base-row flags (only written when ``track_touch``).

    Everything the row engine does per detail row — key-tuple closure
    call, NULL-key check, dict probe, aggregate-input closures, residual
    closure, ``Accumulator.update`` method dispatch per component — is
    inlined into straight-line statements, which is where the columnar
    engine's speedup comes from.
    """
    hashable = key_exprs is not None
    input_exprs = tuple(input_exprs)
    component_kinds = tuple(tuple(kinds) for kinds in component_kinds)
    residual_conjuncts = tuple(residual_conjuncts)
    key = _cache_key(
        (
            "grouped_accumulate",
            repr(columnar),
            repr(base_param),
            hashable,
            track_touch,
            component_kinds,
        ),
        (
            tuple(e.key() for e in key_exprs) if hashable else None,
            tuple(None if e is None else e.key() for e in input_exprs),
            tuple(c.key() for c in residual_conjuncts),
        ),
        schemas,
        (columnar,),
        aliases,
    )
    kernel = _KERNEL_CACHE.get(key)
    if kernel is not None:
        return kernel

    param_of = {base_param: "_row_b"}
    if aliases:
        columnar_set = _columnar_relvars(columnar, aliases)
        for alias, target in aliases.items():
            if alias in columnar_set:
                continue
            if target == base_param:
                param_of[alias] = "_row_b"
    emitter = _ColumnEmitter(schemas, param_of, _columnar_relvars(columnar, aliases))

    acc_names = []
    flat_index = 0
    for kinds in component_kinds:
        for _kind in kinds:
            acc_names.append(f"_acc{flat_index}")
            flat_index += 1
    for index, name in enumerate(acc_names):
        emitter.line(0, f"{name} = _accs[{index}]")
    need_base_row = bool(residual_conjuncts)

    emitter.line(0, "for _i in _indices:")
    if hashable:
        key_atoms = [emitter.emit(expr, 1) for expr in key_exprs]
        checks = emitter.null_checks(key_atoms)
        if checks:
            emitter.line(1, f"if {' or '.join(checks)}:")
            emitter.line(2, "continue")
        key_tuple = "(" + ", ".join(key_atoms) + ("," if len(key_atoms) == 1 else "") + ")"
        emitter.line(1, f"_matches = _probe({key_tuple})")
        emitter.line(1, "if not _matches:")
        emitter.line(2, "continue")
    else:
        emitter.line(1, "_matches = _probe")

    value_atoms = []
    for agg_index, expr in enumerate(input_exprs):
        if expr is None:
            value_atoms.append(None)
        else:
            atom = emitter.emit(expr, 1)
            # Pin the value in a stable local: expression temps are reused
            # across iterations but must survive into the match loop.
            name = f"_v{agg_index}"
            emitter.line(1, f"{name} = {atom}")
            value_atoms.append(name)

    emitter.line(1, "for _b in _matches:")
    if need_base_row:
        emitter.line(2, "_row_b = _base_rows[_b]")
        for conjunct in residual_conjuncts:
            atom = emitter.emit(conjunct, 2)
            emitter.line(2, f"if not {atom}:")
            emitter.line(3, "continue")
    if track_touch:
        emitter.line(2, "_touched[_b] = True")
    flat_index = 0
    for agg_index, kinds in enumerate(component_kinds):
        for kind in kinds:
            _emit_component_update(
                emitter, 2, kind, acc_names[flat_index], value_atoms[agg_index]
            )
            flat_index += 1

    source = (
        "def _kernel(_indices, _cols, _base_rows, _probe, _accs, _touched):\n"
        + "\n".join(
            "    " + line
            for line in [
                f"_dc{position} = _cols[{position}]"
                for position in sorted(emitter.used_columns)
            ]
            + emitter.lines
        )
    )
    env = emitter.env
    exec(compile(source, "<relalg-accumulate-kernel>", "exec"), env)  # noqa: S102
    kernel = env["_kernel"]
    kernel.__kernel_source__ = source
    with _CACHE_LOCK:
        _KERNEL_CACHE[key] = kernel
    return kernel
