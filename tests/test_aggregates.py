"""Unit tests for aggregate functions and their sub/super decomposition."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.accumulate import accumulator
from oracle.algebra import group_by
from repro.errors import AggregateError, HolisticAggregateError
from repro.relalg.aggregates import (
    ALGEBRAIC,
    DISTRIBUTIVE,
    HOLISTIC,
    AggSpec,
    AvgFunction,
    SumFunction,
    count_star,
)
from repro.relalg.columnar import as_list
from repro.relalg.expressions import col, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, Schema


def run(spec: AggSpec, values):
    state = accumulator(spec)
    for value in values:
        state.update(value)
    return state.result()


def run_split(spec: AggSpec, values, split_at):
    """Aggregate via two partial accumulators merged through sub-values."""
    left = accumulator(spec)
    right = accumulator(spec)
    for value in values[:split_at]:
        left.update(value)
    for value in values[split_at:]:
        right.update(value)
    merged = accumulator(spec)
    merged.load_sub_values(left.sub_values())
    merged.load_sub_values(right.sub_values())
    return merged.result()


class TestSemantics:
    def test_count_star_counts_everything(self):
        spec = count_star("c")
        assert run(spec, [1, None, 3]) == 3

    def test_count_expr_skips_nulls(self):
        spec = AggSpec("count", col.x, "c")
        assert run(spec, [1, None, 3]) == 2

    def test_sum(self):
        spec = AggSpec("sum", col.x, "s")
        assert run(spec, [1.0, 2.0, None]) == 3.0

    def test_sum_empty_is_null(self):
        assert run(AggSpec("sum", col.x, "s"), []) is None

    def test_sum_all_null_is_null(self):
        assert run(AggSpec("sum", col.x, "s"), [None, None]) is None

    def test_min_max(self):
        values = [5.0, None, 1.0, 3.0]
        assert run(AggSpec("min", col.x, "m"), values) == 1.0
        assert run(AggSpec("max", col.x, "m"), values) == 5.0
        assert run(AggSpec("min", col.x, "m"), []) is None

    def test_avg(self):
        assert run(AggSpec("avg", col.x, "a"), [1.0, 2.0, None, 3.0]) == 2.0
        assert run(AggSpec("avg", col.x, "a"), []) is None
        assert run(AggSpec("avg", col.x, "a"), [None]) is None

    def test_var_and_std(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        assert run(AggSpec("var", col.x, "v"), values) == pytest.approx(4.0)
        assert run(AggSpec("std", col.x, "s"), values) == pytest.approx(2.0)

    def test_var_single_value_is_zero(self):
        assert run(AggSpec("var", col.x, "v"), [3.0]) == pytest.approx(0.0)

    def test_var_empty_is_null(self):
        assert run(AggSpec("var", col.x, "v"), []) is None

    def test_median_odd_even(self):
        assert run(AggSpec("median", col.x, "m"), [3.0, 1.0, 2.0]) == 2.0
        assert run(AggSpec("median", col.x, "m"), [4.0, 1.0, 2.0, 3.0]) == 2.5
        assert run(AggSpec("median", col.x, "m"), [None]) is None

    def test_count_distinct(self):
        assert run(AggSpec("count_distinct", col.x, "d"), [1, 1, 2, None]) == 2


class TestDecomposition:
    CASES = [
        (count_star("c"), [1, None, 2, 2]),
        (AggSpec("count", col.x, "c"), [1, None, 2, 2]),
        (AggSpec("sum", col.x, "s"), [1.0, -2.0, None, 4.0]),
        (AggSpec("min", col.x, "m"), [3.0, None, 1.0]),
        (AggSpec("max", col.x, "m"), [3.0, None, 9.0]),
        (AggSpec("avg", col.x, "a"), [1.0, 2.0, None, 7.0]),
        (AggSpec("var", col.x, "v"), [1.0, 2.0, 3.0, 4.0]),
        (AggSpec("std", col.x, "v"), [1.0, 2.0, 3.0, 4.0]),
    ]

    @pytest.mark.parametrize("spec,values", CASES, ids=[c[0].func for c in CASES])
    def test_split_equals_direct_every_split_point(self, spec, values):
        direct = run(spec, values)
        for split_at in range(len(values) + 1):
            split = run_split(spec, values, split_at)
            if direct is None:
                assert split is None
            else:
                assert split == pytest.approx(direct)

    @pytest.mark.parametrize("spec,values", CASES, ids=[c[0].func for c in CASES])
    def test_merge_accumulators_equals_direct(self, spec, values):
        left = accumulator(spec)
        right = accumulator(spec)
        for value in values[:2]:
            left.update(value)
        for value in values[2:]:
            right.update(value)
        left.merge(right)
        direct = run(spec, values)
        if direct is None:
            assert left.result() is None
        else:
            assert left.result() == pytest.approx(direct)

    def test_empty_partition_contributes_nothing(self):
        spec = AggSpec("avg", col.x, "a")
        main = accumulator(spec)
        main.update(4.0)
        empty = accumulator(spec)
        main.load_sub_values(empty.sub_values())
        assert main.result() == 4.0

    def test_classifications(self):
        assert count_star("c").classification == DISTRIBUTIVE
        assert AggSpec("avg", col.x, "a").classification == ALGEBRAIC
        assert AggSpec("median", col.x, "m").classification == HOLISTIC
        assert AggSpec("median", col.x, "m").is_holistic

    def test_holistic_sub_values_raise(self):
        state = accumulator(AggSpec("median", col.x, "m"))
        state.update(1.0)
        with pytest.raises(HolisticAggregateError):
            state.sub_values()
        with pytest.raises(HolisticAggregateError):
            state.load_sub_values(())

    def test_holistic_merge_works_centrally(self):
        spec = AggSpec("median", col.x, "m")
        left = accumulator(spec)
        right = accumulator(spec)
        left.update(1.0)
        right.update(3.0)
        right.update(2.0)
        left.merge(right)
        assert left.result() == 2.0


BUILT_IN = ["count_star", "count", "sum", "min", "max", "avg", "var", "std", "geomean"]


def built_in_spec(name: str) -> AggSpec:
    return count_star("a") if name == "count_star" else AggSpec(name, col.x, "a")


class TestComponentColumns:
    GROUPS = [[], [1.0, 4.0], [None], [2.0, -3.0, 0.5, None]]

    @pytest.mark.parametrize("name", BUILT_IN)
    def test_components_are_built_once(self, name):
        spec = built_in_spec(name)
        assert spec.function.components() is spec.function.components()

    @pytest.mark.parametrize("name", BUILT_IN)
    def test_pickle_carries_no_derived_state(self, name):
        # A REQ frame pickles its steps' AggSpecs: the cached tuple must not
        # ride along (wire bytes are pinned per seed by the benchmark).
        spec = built_in_spec(name)
        data = pickle.dumps(spec)
        assert b"_components" not in data
        clone = pickle.loads(data)
        assert clone.function.components() is clone.function.components()
        assert [
            (suffix, type(component)) for suffix, component in clone.function.components()
        ] == [(suffix, type(component)) for suffix, component in spec.function.components()]

    @pytest.mark.parametrize("name", BUILT_IN)
    def test_finalize_columns_equals_finalize_per_row(self, name):
        spec = built_in_spec(name)
        accumulators = [accumulator(spec) for _group in self.GROUPS]
        for state, values in zip(accumulators, self.GROUPS):
            for value in values:
                state.update(value)
        columns = [
            list(column)
            for column in zip(*(state.sub_values() for state in accumulators))
        ]
        assert spec.function.finalize_columns(columns) == [
            state.result() for state in accumulators
        ]

    def test_a_changed_formula_changes_the_column_finalize_too(self):
        class DoubledSum(SumFunction):
            def finalize(self, component_values):
                return 2 * component_values[0]

        class DoubledAvg(AvgFunction):
            def finalize(self, component_values):
                return 2 * super().finalize(component_values)

        assert SumFunction().finalize_columns([[1.0, 2.5]]) == [1.0, 2.5]
        assert DoubledSum().finalize_columns([[1.0, 2.5]]) == [2.0, 5.0]
        assert DoubledAvg().finalize_columns([[1.0, 6], [2, 3]]) == [1.0, 4.0]

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                # Sums: one dtype per draw mostly, edge values, NULL, bools.
                st.one_of(
                    st.integers(-(2**53), 2**53),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([None, -0.0, 2**53 + 1, 2**70, True]),
                ),
                st.one_of(st.integers(0, 2**53), st.sampled_from([0, 1, 3, None, True])),
            ),
            max_size=12,
        ),
        st.sampled_from([int, float, None]),
    )
    def test_avg_over_arrays_is_avg_per_group(self, groups, only):
        """AVG's array division returns the per-group ``finalize``'s values
        by ``repr``: int/int and float/int quotients, NULL for a NULL sum
        or a zero count, and every other view per group. A column without
        a NULL is the ``float64`` array of those values."""
        if only is not None:  # most draws: a column of one type, the array path
            groups = [(total, count) for total, count in groups if type(total) is only]
        sums, counts = [total for total, _ in groups], [count for _, count in groups]
        function = AvgFunction()
        expected = [function.finalize(values) for values in groups]
        column = function.finalize_columns([sums, counts])
        assert repr(as_list(column)) == repr(expected)
        if type(column) is np.ndarray:
            assert column.dtype == np.float64 and None not in expected


class TestAggSpec:
    def test_unknown_function(self):
        with pytest.raises(AggregateError):
            AggSpec("frobnicate", col.x, "f")

    def test_count_star_requires_no_input(self):
        assert count_star("c").input_expr is None

    def test_sum_requires_input(self):
        with pytest.raises(AggregateError):
            AggSpec("sum", None, "s")

    def test_output_name_required(self):
        with pytest.raises(AggregateError):
            AggSpec("sum", col.x, "")

    def test_plain_value_input_is_wrapped(self):
        spec = AggSpec("sum", 1, "ones")
        assert run(spec, [1, 1]) is not None  # runnable

    def test_result_attribute_types(self):
        assert count_star("c").result_attribute().type == INT
        assert AggSpec("avg", col.x, "a").result_attribute().type == FLOAT

    def test_sub_attributes_single_component(self):
        assert [a.name for a in AggSpec("sum", col.x, "s").sub_attributes()] == ["s"]

    def test_sub_attributes_avg(self):
        names = [a.name for a in AggSpec("avg", col.x, "a").sub_attributes()]
        assert names == ["a__sum", "a__count"]

    def test_sub_attributes_var(self):
        names = [a.name for a in AggSpec("var", col.x, "v").sub_attributes()]
        assert names == ["v__sum", "v__sumsq", "v__count"]

    # ``group_by`` lowers each aggregate's input against the detail schema.
    _INPUTS = Relation(Schema.of(("k", INT), ("x", FLOAT)), [(0, 4.0), (0, None), (1, 1.5)])

    def test_compile_input_star_is_none(self):
        # COUNT(*) has no input: it counts the row whose x is NULL too.
        result = group_by(self._INPUTS, ["k"], [count_star("c"), AggSpec("count", col.x, "n")])
        assert result.rows == [(0, 2, 1), (1, 1, 1)]

    def test_compile_input_detail_namespace(self):
        result = group_by(self._INPUTS, ["k"], [AggSpec("sum", detail.x, "s")])
        assert result.rows == [(0, 4.0), (1, 1.5)]

    def test_compile_input_unqualified(self):
        result = group_by(self._INPUTS, ["k"], [AggSpec("sum", col.x * 2, "s")])
        assert result.rows == [(0, 8.0), (1, 3.0)]

    def test_str(self):
        assert "count(*)" in str(count_star("c"))
