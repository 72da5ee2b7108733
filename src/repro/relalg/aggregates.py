"""SQL aggregate functions with sub-/super-aggregate decomposition.

Following Gray et al. (the data-cube paper, cited as [12] in Akinde et
al.), aggregate functions are classified as:

- *distributive*: partial aggregates over a partition combine directly
  into the global aggregate (COUNT, SUM, MIN, MAX);
- *algebraic*: the global aggregate is a finite formula over a fixed-size
  tuple of distributive *components* (AVG = SUM/COUNT, VAR, STD);
- *holistic*: no constant-size partial state exists (MEDIAN,
  COUNT DISTINCT) — these cannot be used in distributed Skalla plans,
  which never ship detail data (raised as :class:`HolisticAggregateError`
  at plan time), but evaluate fine centrally.

The decomposition drives Theorem 1 of the paper: each site computes the
*sub-aggregates* (the distributive components) over its partition and
ships them as explicit columns; the coordinator combines component values
across sites and applies the *super-aggregate* (the finalize formula) to
produce the global answer.

An :class:`AggSpec` names a function, an optional input expression over
the detail relation, and an output attribute name, e.g.
``AggSpec("avg", detail.NumBytes, "avg_nb")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import AggregateError, HolisticAggregateError
from repro.relalg.columnar import as_list, typed_view
from repro.relalg.expressions import Expr, wrap
from repro.relalg.schema import FLOAT, INT, Attribute

DISTRIBUTIVE = "distributive"
ALGEBRAIC = "algebraic"
HOLISTIC = "holistic"


# ---------------------------------------------------------------------------
# Distributive components (building blocks of sub-aggregates)
# ---------------------------------------------------------------------------


class Component:
    """A distributive accumulator: initial value, update, combine."""

    kind = "abstract"
    type_name = FLOAT

    def initial(self):
        raise NotImplementedError

    def update(self, accumulator, value):
        raise NotImplementedError

    def combine(self, left, right):
        raise NotImplementedError


class CountStarComponent(Component):
    """COUNT(*): counts every row, input value ignored."""

    kind = "count_star"
    type_name = INT

    def initial(self):
        return 0

    def update(self, accumulator, value):
        return accumulator + 1

    def combine(self, left, right):
        return left + right


class CountComponent(Component):
    """COUNT(expr): counts non-NULL input values."""

    kind = "count"
    type_name = INT

    def initial(self):
        return 0

    def update(self, accumulator, value):
        return accumulator if value is None else accumulator + 1

    def combine(self, left, right):
        return left + right


class SumComponent(Component):
    """SUM(expr): NULL until the first non-NULL value (SQL semantics)."""

    kind = "sum"

    def initial(self):
        return None

    def update(self, accumulator, value):
        if value is None:
            return accumulator
        return value if accumulator is None else accumulator + value

    def combine(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return left + right


class SumSquaresComponent(Component):
    """Sum of squares of non-NULL values (for VAR/STD)."""

    kind = "sumsq"

    def initial(self):
        return None

    def update(self, accumulator, value):
        if value is None:
            return accumulator
        square = value * value
        return square if accumulator is None else accumulator + square

    def combine(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return left + right


class MinComponent(Component):
    """MIN(expr): the least non-NULL value, the first of equals. A NaN
    ranks above every number (as in PostgreSQL), so it is a group's MIN
    only when every value is one, in whatever order the values fold."""

    kind = "min"

    def initial(self):
        return None

    def update(self, accumulator, value):
        return self.combine(accumulator, value)

    def combine(self, left, right):
        if left is None:
            return right
        if right is None or right != right:
            return left
        if left != left:
            return right
        return min(left, right)


class MaxComponent(Component):
    """MAX(expr): the greatest non-NULL value, the first of equals. A NaN
    ranks above every number (as in PostgreSQL): a group's first NaN is
    its MAX, in whatever order the values fold."""

    kind = "max"

    def initial(self):
        return None

    def update(self, accumulator, value):
        return self.combine(accumulator, value)

    def combine(self, left, right):
        if left is None:
            return right
        if right is None or left != left:
            return left
        if right != right:
            return right
        return max(left, right)


class ValuesComponent(Component):
    """A holistic aggregate's state: the group's input values, NULLs
    included, in the order they arrived. It never ships (a holistic
    aggregate has no decomposition), so it has no ``combine``."""

    kind = "values"

    def initial(self):
        return []

    def update(self, accumulator, value):
        accumulator.append(value)
        return accumulator


_VALUES = ValuesComponent()


# ---------------------------------------------------------------------------
# Aggregate functions
# ---------------------------------------------------------------------------


class AggregateFunction:
    """An aggregate function: components + finalize formula."""

    name = "abstract"
    classification = DISTRIBUTIVE
    requires_input = True
    result_type = FLOAT

    def components(self) -> Sequence[tuple]:
        """Ordered ``(suffix, Component)`` pairs of sub-aggregates.

        A single component with suffix ``""`` means the sub-aggregate ships
        under the output name itself (e.g. plain SUM).
        """
        raise NotImplementedError

    def finalize(self, component_values: tuple):
        """Super-aggregate formula over combined component values."""
        raise NotImplementedError

    def finalize_columns(self, columns: Sequence[list]) -> list:
        """:meth:`finalize` over component columns: one value per row.

        ``columns`` holds this function's component columns (value lists
        or typed arrays), in :meth:`components` order and row-aligned — the
        runtime representation of aggregate state.
        """
        finalize = self.finalize
        return [finalize(values) for values in zip(*map(as_list, columns))]


class _BuiltinFunction(AggregateFunction):
    """Components are stateless, so a built-in builds its tuple once."""

    _components: tuple = ()

    def components(self):
        return self._components


class _DistributiveFunction(_BuiltinFunction):
    """One component whose combined value *is* the aggregate."""

    def finalize(self, component_values):
        return component_values[0]

    def finalize_columns(self, columns):
        if type(self).finalize is not _DistributiveFunction.finalize:
            return super().finalize_columns(columns)  # a subclass changed the formula
        return columns[0]


class CountFunction(_DistributiveFunction):
    name = "count"
    requires_input = False
    result_type = INT

    def __init__(self, star: bool):
        self._components = (("", CountStarComponent() if star else CountComponent()),)


class SumFunction(_DistributiveFunction):
    name = "sum"
    _components = (("", SumComponent()),)


class MinFunction(_DistributiveFunction):
    name = "min"
    _components = (("", MinComponent()),)


class MaxFunction(_DistributiveFunction):
    name = "max"
    _components = (("", MaxComponent()),)


class AvgFunction(_BuiltinFunction):
    name = "avg"
    classification = ALGEBRAIC
    _components = (("sum", SumComponent()), ("count", CountComponent()))

    def finalize(self, component_values):
        total, count = component_values
        if not count or total is None:
            return None
        return total / count

    def finalize_columns(self, columns):
        """:meth:`finalize` over arrays when the ``sum`` view is ``int64`` or
        ``float64`` and the ``count`` view NULL-free ``int64``.

        CPython's int/int and float/int true division convert operands
        within ``2**53`` exactly (the ``typed`` rule), then divide once, as
        numpy does: each quotient is the same double. A NULL sum or a count
        of 0 is NULL. Other views take :meth:`finalize` per group. Without
        a NULL the column is the ``float64`` array of quotients, as a
        relation holds a NULL-free FLOAT column.
        """
        (total, valid), (count, count_valid) = typed_view([columns[0]]), typed_view([columns[1]])
        if (
            type(self).finalize is not AvgFunction.finalize
            or total.dtype == object
            or count.dtype != np.int64
            or count_valid is not None
        ):
            return super().finalize_columns(columns)
        with np.errstate(all="ignore"):  # IEEE results, as Python's floats give
            quotients = total / count
        null = count == 0 if valid is None else (count == 0) | ~valid
        if len(quotients) and not null.any():
            return quotients
        quotients = quotients.tolist()
        for group in np.flatnonzero(null).tolist():
            quotients[group] = None
        return quotients


class VarFunction(_BuiltinFunction):
    """Population variance (algebraic: sum, sum of squares, count)."""

    name = "var"
    classification = ALGEBRAIC
    _components = (
        ("sum", SumComponent()),
        ("sumsq", SumSquaresComponent()),
        ("count", CountComponent()),
    )

    def finalize(self, component_values):
        total, total_squares, count = component_values
        if not count or total is None or total_squares is None:
            return None
        mean = total / count
        # Clamp tiny negative values caused by floating-point cancellation.
        return max(0.0, total_squares / count - mean * mean)


class StdFunction(VarFunction):
    name = "std"

    def finalize(self, component_values):
        variance = super().finalize(component_values)
        return None if variance is None else math.sqrt(variance)


class _HolisticFunction(AggregateFunction):
    classification = HOLISTIC

    def components(self):
        raise HolisticAggregateError(
            f"{self.name.upper()} is holistic: it has no sub-/super-aggregate "
            "decomposition and cannot be used in a distributed plan"
        )

    def finalize(self, component_values):
        raise HolisticAggregateError(self.name)

    def holistic_result(self, values: list):
        """Compute the aggregate from the full multiset of input values."""
        raise NotImplementedError

    def finalize_columns(self, columns):
        """No components: the one state column holds each group's input
        values (a :class:`ValuesComponent` column)."""
        return [self.holistic_result(values) for values in columns[0]]


class MedianFunction(_HolisticFunction):
    name = "median"

    def holistic_result(self, values):
        cleaned = sorted(value for value in values if value is not None)
        if not cleaned:
            return None
        middle = len(cleaned) // 2
        if len(cleaned) % 2:
            return cleaned[middle]
        return (cleaned[middle - 1] + cleaned[middle]) / 2


class CountDistinctFunction(_HolisticFunction):
    name = "count_distinct"
    result_type = INT

    def holistic_result(self, values):
        return len({value for value in values if value is not None})


class GeometricMeanFunction(_BuiltinFunction):
    """Geometric mean — algebraic over (sum of logs, count).

    Non-positive inputs have no logarithm; they are skipped like NULLs
    (the SQL convention for mixed-sign data is to raise, but skipping is
    the useful behaviour for rate/ratio analytics and is documented).
    """

    name = "geomean"
    classification = ALGEBRAIC

    class _LogSumComponent(Component):
        kind = "logsum"

        def initial(self):
            return None

        def update(self, accumulator, value):
            if value is None or value <= 0:
                return accumulator
            logged = math.log(value)
            return logged if accumulator is None else accumulator + logged

        def combine(self, left, right):
            if left is None:
                return right
            if right is None:
                return left
            return left + right

    class _PositiveCountComponent(Component):
        kind = "poscount"
        type_name = INT

        def initial(self):
            return 0

        def update(self, accumulator, value):
            if value is None or value <= 0:
                return accumulator
            return accumulator + 1

        def combine(self, left, right):
            return left + right

    _components = (("logsum", _LogSumComponent()), ("count", _PositiveCountComponent()))

    def finalize(self, component_values):
        log_sum, count = component_values
        if not count or log_sum is None:
            return None
        return math.exp(log_sum / count)


_FUNCTIONS = {
    "count": lambda star: CountFunction(star),
    "sum": lambda star: SumFunction(),
    "min": lambda star: MinFunction(),
    "max": lambda star: MaxFunction(),
    "avg": lambda star: AvgFunction(),
    "var": lambda star: VarFunction(),
    "std": lambda star: StdFunction(),
    "geomean": lambda star: GeometricMeanFunction(),
    "median": lambda star: MedianFunction(),
    "count_distinct": lambda star: CountDistinctFunction(),
}


def register_aggregate(name: str, factory, replace: bool = False) -> None:
    """Register a custom aggregate function.

    ``factory`` is called as ``factory(star: bool)`` — ``star`` is True
    for a ``F(*)`` spec — and must return an :class:`AggregateFunction`.
    Distributive/algebraic functions built from :class:`Component`
    building blocks work everywhere, including distributed plans, the
    tree topologies and incremental refresh; holistic ones evaluate
    centrally only. The registered name becomes valid in
    :class:`AggSpec` and the SQL dialect immediately.
    """
    global AGGREGATE_NAMES
    lowered = name.lower()
    if not lowered.isidentifier():
        raise AggregateError(f"aggregate name {name!r} must be an identifier")
    if lowered in _FUNCTIONS and not replace:
        raise AggregateError(
            f"aggregate {lowered!r} already registered (pass replace=True)"
        )
    probe = factory(False)
    if not isinstance(probe, AggregateFunction):
        raise AggregateError(
            f"factory for {lowered!r} returned {probe!r}, not an AggregateFunction"
        )
    _FUNCTIONS[lowered] = factory
    AGGREGATE_NAMES = tuple(sorted(_FUNCTIONS))


AGGREGATE_NAMES = tuple(sorted(_FUNCTIONS))


# ---------------------------------------------------------------------------
# Aggregate specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggSpec:
    """One aggregate of a GMDJ block: function, input expression, output name.

    ``input_expr`` is an expression over the detail relation. Fields may be
    written with the ``detail`` namespace or unqualified; unqualified fields
    are interpreted as detail attributes. ``None`` input means ``COUNT(*)``.
    """

    func: str
    input_expr: Optional[Expr]
    output: str
    _function: AggregateFunction = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        name = self.func.lower()
        if name not in _FUNCTIONS:
            raise AggregateError(
                f"unknown aggregate function {self.func!r}; known: {', '.join(AGGREGATE_NAMES)}"
            )
        if self.input_expr is None and name != "count":
            raise AggregateError(f"{name.upper()} requires an input expression")
        if self.input_expr is not None and not isinstance(self.input_expr, Expr):
            object.__setattr__(self, "input_expr", wrap(self.input_expr))
        if not self.output or not isinstance(self.output, str):
            raise AggregateError(f"output name must be a non-empty string, got {self.output!r}")
        object.__setattr__(self, "func", name)
        object.__setattr__(self, "_function", _FUNCTIONS[name](self.input_expr is None))

    # -- metadata ---------------------------------------------------------------

    @property
    def function(self) -> AggregateFunction:
        return self._function

    @property
    def classification(self) -> str:
        return self._function.classification

    @property
    def is_holistic(self) -> bool:
        return self._function.classification == HOLISTIC

    def result_attribute(self) -> Attribute:
        """Schema attribute of the finalized aggregate value."""
        return Attribute(self.output, self._function.result_type)

    def sub_attributes(self) -> tuple:
        """Schema attributes of the shipped sub-aggregate columns."""
        attributes = []
        for suffix, component in self._function.components():
            name = self.output if not suffix else f"{self.output}__{suffix}"
            type_name = INT if component.type_name == INT else FLOAT
            attributes.append(Attribute(name, type_name))
        return tuple(attributes)

    # -- runtime ------------------------------------------------------------------

    def state_components(self) -> tuple:
        """The components a scan folds this aggregate into, one state
        column each: the sub-aggregate components in :meth:`sub_attributes`
        order, or a holistic aggregate's one :class:`ValuesComponent`."""
        if self.is_holistic:
            return (_VALUES,)
        return tuple(component for _suffix, component in self._function.components())

    def __str__(self):
        inner = "*" if self.input_expr is None else repr(self.input_expr)
        return f"{self.func}({inner}) -> {self.output}"


def count_star(output: str) -> AggSpec:
    """Convenience constructor for ``COUNT(*) -> output``."""
    return AggSpec("count", None, output)
