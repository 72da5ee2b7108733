"""Per-group aggregate state as one mutable object per (group, aggregate).

The production scan and the coordinator fold whole state columns
(:func:`repro.relalg.compiler.compile_grouped_accumulate`,
:func:`repro.relalg.compiler.fold_combine`); these accumulators are the
row-at-a-time reference they are checked against: ``update`` folds one
input value through each :class:`~repro.relalg.aggregates.Component`,
``merge`` / ``load_sub_values`` combine partial states (Theorem 1's
sub-/super-aggregates), and ``result`` finalizes. :func:`accumulator`
builds the right one for an :class:`~repro.relalg.aggregates.AggSpec`.
"""

from __future__ import annotations

from repro.errors import HolisticAggregateError


class Accumulator:
    """Mutable per-group aggregate state."""

    def update(self, value) -> None:
        raise NotImplementedError

    def merge(self, other: "Accumulator") -> None:
        raise NotImplementedError

    def sub_values(self) -> tuple:
        """Component values to ship as sub-aggregate columns."""
        raise NotImplementedError

    def load_sub_values(self, values: tuple) -> None:
        """Absorb shipped sub-aggregate component values (super-aggregation)."""
        raise NotImplementedError

    def result(self):
        raise NotImplementedError


class ComponentAccumulator(Accumulator):
    """Accumulator for distributive/algebraic functions."""

    __slots__ = ("_components", "_values", "_function")

    def __init__(self, function):
        self._function = function
        self._components = tuple(component for _suffix, component in function.components())
        self._values = [component.initial() for component in self._components]

    def update(self, value):
        values = self._values
        for index, component in enumerate(self._components):
            values[index] = component.update(values[index], value)

    def merge(self, other):
        values = self._values
        for index, component in enumerate(self._components):
            values[index] = component.combine(values[index], other._values[index])

    def sub_values(self):
        return tuple(self._values)

    def load_sub_values(self, values):
        own = self._values
        for index, component in enumerate(self._components):
            own[index] = component.combine(own[index], values[index])

    def result(self):
        return self._function.finalize(tuple(self._values))


class HolisticAccumulator(Accumulator):
    """Accumulator for holistic functions: keeps the raw value multiset."""

    __slots__ = ("_function", "_values")

    def __init__(self, function):
        self._function = function
        self._values = []

    def update(self, value):
        self._values.append(value)

    def merge(self, other):
        self._values.extend(other._values)

    def sub_values(self):
        raise HolisticAggregateError(
            f"{self._function.name.upper()} has no shippable sub-aggregates"
        )

    def load_sub_values(self, values):
        raise HolisticAggregateError(
            f"{self._function.name.upper()} has no shippable sub-aggregates"
        )

    def result(self):
        return self._function.holistic_result(self._values)


def accumulator(spec) -> Accumulator:
    """A fresh accumulator for one group of ``spec``."""
    if spec.is_holistic:
        return HolisticAccumulator(spec.function)
    return ComponentAccumulator(spec.function)
