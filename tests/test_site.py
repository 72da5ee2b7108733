"""Unit tests for SkallaSite round evaluation."""

import pytest

from conftest import make_flows
from repro.distributed.site import SkallaSite
from repro.errors import WarehouseError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, MDStep
from repro.gmdj import operator
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.warehouse.storage import LocalWarehouse

FLOW = make_flows(count=100, seed=21)
KEY = base.SourceAS == detail.SourceAS
KEY_ATTRS = ["SourceAS"]


def make_site():
    return SkallaSite("s0", LocalWarehouse("s0", {"Flow": FLOW}))


def inner_step():
    return MDStep(
        "Flow",
        [MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], KEY)],
    )


def outer_step():
    return MDStep(
        "Flow",
        [MDBlock([count_star("big")], KEY & (detail.NumBytes >= base.m))],
    )


class TestComputeBase:
    def test_distinct_base(self):
        site = make_site()
        result = site.compute_base(DistinctBase("Flow", KEY_ATTRS))
        assert result.same_rows(FLOW.distinct_project(KEY_ATTRS))


class TestEvaluateRound:
    def test_single_step_matches_operator(self):
        site = make_site()
        base_fragment = FLOW.distinct_project(KEY_ATTRS)
        h = site.evaluate_round(base_fragment, [inner_step()], KEY_ATTRS, False)
        expected, _touched = operator.evaluate_sub(
            base_fragment, FLOW, inner_step().blocks
        )
        # H is projected to key + sub columns.
        assert h.schema.names == expected.schema.names  # key is the whole base here
        assert h.same_rows(expected)

    def test_key_projection_drops_extra_base_attrs(self):
        site = make_site()
        base_fragment = FLOW.distinct_project(["SourceAS", "DestAS"])
        h = site.evaluate_round(base_fragment, [inner_step()], KEY_ATTRS, False)
        assert h.schema.names[0] == "SourceAS"
        assert "DestAS" not in h.schema

    def test_independent_reduction_drops_untouched(self):
        site = make_site()
        base_fragment = FLOW.distinct_project(KEY_ATTRS)
        # Add groups that cannot exist at this site.
        padded = base_fragment.union_all(
            Relation(base_fragment.schema, [(777,), (888,)])
        )
        full = site.evaluate_round(padded, [inner_step()], KEY_ATTRS, False)
        reduced = site.evaluate_round(padded, [inner_step()], KEY_ATTRS, True)
        assert len(full) == len(padded)
        assert len(reduced) == len(base_fragment)
        assert not any(row[0] in (777, 888) for row in reduced.rows)

    def test_chain_evaluates_locally(self):
        site = make_site()
        base_fragment = FLOW.distinct_project(KEY_ATTRS)
        h = site.evaluate_round(
            base_fragment, [inner_step(), outer_step()], KEY_ATTRS, False
        )
        # Reference: run the chain with the plain operator.
        b1 = operator.evaluate(base_fragment, FLOW, inner_step().blocks)
        sub1, _t = operator.evaluate_sub(base_fragment, FLOW, inner_step().blocks)
        sub2, _t = operator.evaluate_sub(b1, FLOW, outer_step().blocks)
        assert h.schema.names == (
            "SourceAS",
            "cnt",
            "m__sum",
            "m__count",
            "big",
        )
        # Row-wise: key + sub1 columns + sub2's new column.
        expected_rows = []
        for row1, row2 in zip(sub1.rows, sub2.rows):
            expected_rows.append(row1 + row2[len(b1.schema):])
        assert sorted(h.rows) == sorted(expected_rows)

    def test_chain_reduction_ors_the_steps_touch_flags(self):
        site = make_site()
        base_fragment = FLOW.distinct_project(KEY_ATTRS)
        padded = base_fragment.union_all(Relation(base_fragment.schema, [(777,)]))
        steps = [inner_step(), outer_step()]
        full = site.evaluate_round(padded, steps, KEY_ATTRS, False)
        reduced = site.evaluate_round(padded, steps, KEY_ATTRS, True)
        # Every real group is touched by the inner step, whatever the outer
        # (correlated) step matches; only the padding row goes.
        assert reduced.rows == [row for row in full.rows if row[0] != 777]

    def test_reaches_the_operator_through_its_module(self, monkeypatch):
        # bench_e2e counts gmdj.tuples_examined_per_op by wrapping these two
        # module attributes: a ``from ... import evaluate_sub`` here, or a
        # private scan called instead, would zero the count silently.
        calls = []
        for name in ("evaluate_sub", "evaluate_both"):

            def wrapper(*args, _name=name, _original=getattr(operator, name)):
                calls.append((_name, args[1]))
                return _original(*args)

            monkeypatch.setattr(operator, name, wrapper)
        site = make_site()
        site.evaluate_round(
            FLOW.distinct_project(KEY_ATTRS), [inner_step(), outer_step()], KEY_ATTRS, False
        )
        assert [name for name, _detail in calls] == ["evaluate_both", "evaluate_sub"]
        assert all(detail_arg is FLOW for _name, detail_arg in calls)

    def test_chain_rejects_mixed_detail_tables(self):
        site = make_site()
        other = MDStep("Other", [MDBlock([count_star("x")], KEY)])
        site.warehouse.register("Other", FLOW)
        with pytest.raises(WarehouseError):
            site.evaluate_round(
                FLOW.distinct_project(KEY_ATTRS),
                [inner_step(), other],
                KEY_ATTRS,
                False,
            )


class TestMergedRound:
    def test_merged_base_round(self):
        site = make_site()
        h = site.evaluate_merged_round(
            DistinctBase("Flow", KEY_ATTRS), [inner_step()], KEY_ATTRS
        )
        expected = site.evaluate_round(
            FLOW.distinct_project(KEY_ATTRS), [inner_step()], KEY_ATTRS, False
        )
        assert h.same_rows(expected)
