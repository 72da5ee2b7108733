"""Property test: a refreshed view is full re-evaluation, by ``repr``.

Hypothesis draws a single-GMDJ query over a distinct base of one or two
key attributes — an equi-join block, a non-equi block (``StartTime <=
b.SourceAS``, under which old rows contribute to a brand-new group), or
both coalesced into one step, or an equi-join block on router 0 only
(site pruning keeps one site for the round, while the other sites still
hold groups) — an initial table, and a sequence of appends split over
three sites: empty deltas, keys the view has never seen, several appends
before one refresh, and full reads of the tables between them (the warehouse concatenates its append log there, so the
next refresh reads across that fold). After every refresh the view must
equal centralized evaluation over the grown data by ``repr``, and count
exactly the keys the base gained as new groups.

Float sums are over small integral values, so every partitioning and
fold order gives the same double and ``repr`` equality is a fair test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import SimulatedCluster
from repro.distributed.incremental import IncrementalView
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.relalg import columnar
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, Schema
from repro.warehouse.partition import ValueListPartitioner

SITES = 3
SCHEMA = Schema.of(
    ("RouterId", INT), ("SourceAS", INT), ("DestAS", INT),
    ("StartTime", INT), ("NumBytes", FLOAT),
)
PARTITIONER = ValueListPartitioner.spread("RouterId", range(SITES), SITES)


def rows(source_as, min_size=0):
    """Flow rows whose ``SourceAS`` is drawn from ``source_as``."""
    return st.lists(
        st.tuples(
            st.integers(0, SITES - 1),
            source_as,
            st.integers(0, 2),
            st.integers(0, 9),
            st.one_of(st.none(), st.integers(-50, 50).map(float)),
        ),
        min_size=min_size,
        max_size=12,
    )


def expression(keys, blocks):
    equi = base.SourceAS == detail.SourceAS
    if "DestAS" in keys:
        equi = equi & (base.DestAS == detail.DestAS)
    drawn = {
        "equi": MDBlock(
            [count_star("n"), AggSpec("sum", detail.NumBytes, "total"),
             AggSpec("avg", detail.NumBytes, "mean")],
            equi,
        ),
        "early": MDBlock(
            [count_star("early"), AggSpec("max", detail.NumBytes, "top")],
            detail.StartTime <= base.SourceAS,
        ),
        "router": MDBlock(
            [count_star("routed"), AggSpec("sum", detail.NumBytes, "routed_total")],
            equi & (detail.RouterId == 0),
        ),
    }
    step = MDStep("Flow", [drawn[name] for name in blocks])
    return GMDJExpression(DistinctBase("Flow", keys), [step])


@st.composite
def histories(draw):
    keys = draw(st.sampled_from([["SourceAS"], ["SourceAS", "DestAS"]]))
    blocks = draw(
        st.sampled_from([("equi",), ("early",), ("equi", "early"), ("router",)])
    )
    initial = draw(rows(st.integers(0, 4), min_size=1))
    # Each step: appends (new keys up to 8), then a full read or not, then
    # a refresh or not — unrefreshed appends coalesce into the next one.
    steps = draw(
        st.lists(
            st.tuples(st.lists(rows(st.integers(0, 8)), max_size=2), st.booleans(), st.booleans()),
            min_size=1,
            max_size=4,
        )
    )
    composite = draw(st.booleans())
    return keys, blocks, initial, steps, composite


def by_repr(relation):
    return sorted(map(repr, relation.rows))


@settings(deadline=None)
@given(histories())
def test_a_refreshed_view_is_full_reevaluation_by_repr(history):
    keys, blocks, initial, steps, composite = history
    with pytest.MonkeyPatch.context() as patch:
        if composite:  # the drawn relations are short
            patch.setattr(columnar, "COMPOSITE_MIN_ROWS", 0)
        cluster = SimulatedCluster.with_sites(SITES)
        cluster.load_partitioned("Flow", Relation(SCHEMA, initial), PARTITIONER)
        query = expression(keys, blocks)
        view = IncrementalView(cluster, query)
        groups = len(cluster.conceptual_table("Flow").distinct_project(keys))
        for appends, full_read, refresh in steps + [([], False, True)]:
            for appended in appends:
                pieces = PARTITIONER.split(Relation(SCHEMA, appended))
                for site_id, piece in zip(cluster.site_ids, pieces):
                    cluster.site(site_id).warehouse.append("Flow", piece)
            if full_read:
                cluster.conceptual_table("Flow")
            if not refresh:
                continue
            result = view.refresh()
            tables = cluster.conceptual_tables()
            reference = query.evaluate_centralized(tables)
            assert by_repr(result.relation) == by_repr(reference)
            grown = len(tables["Flow"].distinct_project(keys))
            assert result.new_groups == grown - groups
            groups = grown
