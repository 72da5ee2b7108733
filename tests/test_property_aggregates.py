"""Property-based tests: aggregate decomposition laws.

For every decomposable aggregate the sub/super scheme must satisfy, for
any partitioning of the input multiset into any number of pieces in any
order: combining the pieces' sub-aggregates and finalizing equals
aggregating the whole multiset directly. This is the algebraic heart of
Theorem 1.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.accumulate import accumulator
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import col

SPECS = [
    count_star("c"),
    AggSpec("count", col.x, "c"),
    AggSpec("sum", col.x, "s"),
    AggSpec("min", col.x, "m"),
    AggSpec("max", col.x, "m"),
    AggSpec("avg", col.x, "a"),
    AggSpec("var", col.x, "v"),
    AggSpec("std", col.x, "v"),
    AggSpec("geomean", col.x, "g"),
]

values_strategy = st.lists(
    st.none()
    | st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(
        lambda value: round(value, 3)
    ),
    max_size=30,
)
splits_strategy = st.lists(st.integers(min_value=0, max_value=30), max_size=4)


def direct(spec, values):
    state = accumulator(spec)
    for value in values:
        state.update(value)
    return state.result()


def split_points(raw_splits, length):
    return sorted(min(point, length) for point in raw_splits)


@pytest.mark.parametrize("spec", SPECS, ids=[spec.func for spec in SPECS])
@given(values=values_strategy, raw_splits=splits_strategy)
@settings(max_examples=60, deadline=None)
def test_any_partitioning_matches_direct(spec, values, raw_splits):
    points = [0, *split_points(raw_splits, len(values)), len(values)]
    pieces = [values[start:end] for start, end in zip(points, points[1:])]
    combined = accumulator(spec)
    for piece in pieces:
        partial = accumulator(spec)
        for value in piece:
            partial.update(value)
        combined.load_sub_values(partial.sub_values())
    expected = direct(spec, values)
    actual = combined.result()
    if expected is None:
        assert actual is None
    else:
        assert actual == pytest.approx(expected, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("spec", SPECS, ids=[spec.func for spec in SPECS])
@given(values=values_strategy, pivot=st.integers(min_value=0, max_value=30))
@settings(max_examples=60, deadline=None)
def test_merge_is_commutative(spec, values, pivot):
    pivot = min(pivot, len(values))
    first, second = values[:pivot], values[pivot:]

    def partial(piece):
        state = accumulator(spec)
        for value in piece:
            state.update(value)
        return state

    left_right = partial(first)
    left_right.merge(partial(second))
    right_left = partial(second)
    right_left.merge(partial(first))
    a = left_right.result()
    b = right_left.result()
    if a is None or b is None:
        assert a == b
    else:
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("spec", SPECS, ids=[spec.func for spec in SPECS])
@given(values=values_strategy)
@settings(max_examples=30, deadline=None)
def test_identity_element(spec, values):
    """Merging an empty partition never changes the result."""
    state = accumulator(spec)
    for value in values:
        state.update(value)
    before = state.result()
    state.load_sub_values(accumulator(spec).sub_values())
    after = state.result()
    if before is None:
        assert after is None
    else:
        assert after == pytest.approx(before, rel=1e-9, abs=1e-9)


@given(values=values_strategy)
@settings(max_examples=40, deadline=None)
def test_var_never_negative(values):
    result = direct(AggSpec("var", col.x, "v"), values)
    if result is not None:
        assert result >= 0.0
        std = direct(AggSpec("std", col.x, "s"), values)
        assert std == pytest.approx(math.sqrt(result), rel=1e-9, abs=1e-12)
