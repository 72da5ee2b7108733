"""Unit tests for the coordinator's synchronization logic."""

import pytest

from conftest import assert_relations_equal, make_flows, same_rows
from repro.distributed.coordinator import Coordinator
from repro.errors import PlanError
from repro.gmdj import operator
from repro.gmdj.blocks import MDBlock
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation

FLOW = make_flows(count=90, seed=17)
KEY_ATTRS = ["SourceAS"]
BLOCKS = [
    MDBlock(
        [count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")],
        base.SourceAS == detail.SourceAS,
    )
]


def split_three():
    return [Relation(FLOW.schema, FLOW.rows[start::3]) for start in range(3)]


class TestBase:
    def test_uninitialized_access_raises(self):
        coordinator = Coordinator(KEY_ATTRS)
        assert not coordinator.has_base
        with pytest.raises(PlanError):
            coordinator.x

    def test_set_base_literal(self):
        coordinator = Coordinator(KEY_ATTRS)
        relation = FLOW.distinct_project(KEY_ATTRS)
        coordinator.set_base(relation)
        assert coordinator.x is relation

    def test_sync_base_deduplicates(self):
        coordinator = Coordinator(KEY_ATTRS)
        fragments = [piece.distinct_project(KEY_ATTRS) for piece in split_three()]
        merged = coordinator.sync_base(fragments)
        assert same_rows(merged, FLOW.distinct_project(KEY_ATTRS))

    def test_sync_base_empty_list_raises(self):
        with pytest.raises(PlanError):
            Coordinator(KEY_ATTRS).sync_base([])


class TestFragments:
    def test_no_filter_ships_everything(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        fragment, kept = coordinator.fragment_for_site(None)
        assert fragment is coordinator.x and kept is None

    def test_filter_restricts(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        fragment, kept = coordinator.fragment_for_site(base.SourceAS < 4)
        assert len(fragment) < len(coordinator.x)
        assert all(row[0] < 4 for row in fragment.rows)

    def test_positions_only(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        rows = coordinator.x.rows
        # Any order, repeats allowed: the fragment keeps the order of the
        # positions (a site's answer order), each row once, where it first comes.
        fragment, kept = coordinator.fragment_for_site(None, positions=[5, 0, 2, 5])
        assert fragment.schema == coordinator.x.schema
        assert fragment.rows == [rows[5], rows[0], rows[2]]
        assert kept.tolist() == [5, 0, 2]  # the rows of X it keeps

    def test_positions_and_filter_compose(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        rows = coordinator.x.rows
        positions = range(0, len(rows), 2)
        fragment, kept = coordinator.fragment_for_site(base.SourceAS < 4, positions=positions)
        assert fragment.rows == [rows[i] for i in positions if rows[i][0] < 4]
        # One site beneath the edge needs every row: positions still cut.
        fragment, kept = coordinator.fragment_for_site(
            base.SourceAS < 4, None, positions=positions
        )
        assert fragment.rows == [rows[i] for i in positions]

    def test_empty_positions_give_an_empty_relation_with_xs_schema(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        for filters in [(None,), (base.SourceAS < 4,)]:
            fragment, kept = coordinator.fragment_for_site(*filters, positions=[])
            assert fragment.schema == coordinator.x.schema
            assert len(fragment) == 0

    def test_positions_index_the_held_relation(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        held = Relation(coordinator.x.schema, coordinator.x.rows[3:8])
        fragment, kept = coordinator.fragment_for_site(None, held=held, positions=[1, 4])
        assert fragment.rows == [held.rows[1], held.rows[4]]

    def test_fields_project_in_the_held_order(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(["SourceAS", "DestAS"]))
        fragment, kept = coordinator.fragment_for_site(
            base.SourceAS < 4, fields=("DestAS", "SourceAS")
        )
        assert fragment.schema.names == ("SourceAS", "DestAS")
        fragment, kept = coordinator.fragment_for_site(base.SourceAS < 4, fields=("DestAS",))
        x = coordinator.x
        assert fragment.rows == [(x.rows[row][1],) for row in kept.tolist()]
        assert all(x.rows[row][0] < 4 for row in kept.tolist())


class TestObservedSets:
    """What a synchronization remembers when asked: per source, the rows
    of X its sub-result folded into."""

    def sub_results(self, base_relation):
        subs = []
        for piece in split_three():
            h, touched = operator.evaluate_sub(base_relation, piece, BLOCKS)
            subs.append(
                Relation(h.schema, [row for row, hit in zip(h.rows, touched) if hit])
            )
        return subs

    def test_not_asked_not_observed(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        coordinator.synchronize(self.sub_results(coordinator.x), BLOCKS)
        assert coordinator.touched_by("") is None

    def test_streaming_round_observes_each_source(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        subs = self.sub_results(coordinator.x)
        session = coordinator.begin_sync(BLOCKS, observes=True)
        for index, h in enumerate(subs):
            # Two blocks per source, as under row blocking.
            session.absorb(Relation(h.schema, h.rows[:3]), f"s{index}")
            session.absorb(Relation(h.schema, h.rows[3:]), f"s{index}")
        x = coordinator.commit_sync(session)
        for index, h in enumerate(subs):
            fragment, kept = coordinator.fragment_for_site(
                None, positions=coordinator.touched_by(f"s{index}")
            )
            assert sorted(row[0] for row in fragment.rows) == sorted(
                row[0] for row in h.rows
            )
            assert fragment.schema == x.schema
        assert coordinator.touched_by("never-answered") is None

    def test_reset_source_forgets_what_the_attempt_touched(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        first, second, _third = self.sub_results(coordinator.x)
        session = coordinator.begin_sync(BLOCKS, observes=True)
        session.absorb(first, "s0")
        session.reset_source("s0")  # the attempt is abandoned
        session.absorb(second, "s0")  # the re-run answers
        session.absorb(first, "s1")
        session.reset_source("s1")  # excluded: never answers
        coordinator.commit_sync(session)
        fragment, kept = coordinator.fragment_for_site(
            None, positions=coordinator.touched_by("s0")
        )
        assert sorted(row[0] for row in fragment.rows) == sorted(
            row[0] for row in second.rows
        )
        assert coordinator.touched_by("s1") is None

    def test_assembly_observes_per_child_and_folds_as_before(self):
        subs = []
        for piece in split_three():
            local_base = piece.distinct_project(KEY_ATTRS)
            h, _touched = operator.evaluate_sub(local_base, piece, BLOCKS)
            subs.append(h)
        plain = Coordinator(KEY_ATTRS).assemble_from_chain(subs, BLOCKS)
        coordinator = Coordinator(KEY_ATTRS)
        observed = coordinator.assemble_from_chain(
            subs, BLOCKS, sources=["s0", "s1", "s2"]
        )
        assert observed.rows == plain.rows  # bit-identical, floats included
        for index, h in enumerate(subs):
            fragment, kept = coordinator.fragment_for_site(
                None, positions=coordinator.touched_by(f"s{index}")
            )
            assert {row[0] for row in fragment.rows} == {row[0] for row in h.rows}
            assert len(fragment) == len(h)

    def test_a_new_base_forgets_the_observation(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        session = coordinator.begin_sync(BLOCKS, observes=True)
        session.absorb(self.sub_results(coordinator.x)[0], "s0")
        coordinator.commit_sync(session)
        assert coordinator.touched_by("s0") is not None
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        assert coordinator.touched_by("s0") is None


class TestSynchronize:
    def test_matches_centralized(self):
        base_relation = FLOW.distinct_project(KEY_ATTRS)
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(base_relation)
        subs = []
        for piece in split_three():
            h, _touched = operator.evaluate_sub(base_relation, piece, BLOCKS)
            subs.append(h)
        merged = coordinator.synchronize(subs, BLOCKS)
        assert_relations_equal(merged, operator.evaluate(base_relation, FLOW, BLOCKS))

    def test_partial_sub_results_leave_missing_groups_empty(self):
        base_relation = FLOW.distinct_project(KEY_ATTRS)
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(base_relation)
        piece = split_three()[0]
        h, touched = operator.evaluate_sub(base_relation, piece, BLOCKS)
        # Simulate independent reduction: ship only touched rows.
        reduced = Relation(
            h.schema, [row for row, touch in zip(h.rows, touched) if touch]
        )
        merged = coordinator.synchronize([reduced], BLOCKS)
        assert len(merged) == len(base_relation)
        count_position = merged.schema.position("cnt")
        touched_keys = {row[0] for row in reduced.rows}
        for row in merged.rows:
            if row[0] not in touched_keys:
                assert row[count_position] == 0

    def test_empty_sub_results_raise(self):
        coordinator = Coordinator(KEY_ATTRS)
        coordinator.set_base(FLOW.distinct_project(KEY_ATTRS))
        with pytest.raises(PlanError):
            coordinator.synchronize([], BLOCKS)


class TestAssembleFromChain:
    def test_proposition2_assembly(self):
        base_relation = FLOW.distinct_project(KEY_ATTRS)
        coordinator = Coordinator(KEY_ATTRS)
        subs = []
        for piece in split_three():
            local_base = piece.distinct_project(KEY_ATTRS)
            h, _touched = operator.evaluate_sub(local_base, piece, BLOCKS)
            subs.append(h)
        merged = coordinator.assemble_from_chain(subs, BLOCKS)
        assert_relations_equal(merged, operator.evaluate(base_relation, FLOW, BLOCKS))

    def test_duplicate_groups_across_sites_are_merged(self):
        # Same SourceAS present at two sites: the assembled base must
        # contain it once with combined aggregates (coordinator dedup).
        pieces = split_three()
        shared = {row[1] for row in pieces[0].rows} & {row[1] for row in pieces[1].rows}
        assert shared, "test data must have overlapping SourceAS across pieces"
        coordinator = Coordinator(KEY_ATTRS)
        subs = []
        for piece in pieces[:2]:
            local_base = piece.distinct_project(KEY_ATTRS)
            h, _touched = operator.evaluate_sub(local_base, piece, BLOCKS)
            subs.append(h)
        merged = coordinator.assemble_from_chain(subs, BLOCKS)
        keys = [row[0] for row in merged.rows]
        assert len(keys) == len(set(keys))
        combined = pieces[0].union_all(pieces[1])
        assert_relations_equal(
            merged,
            operator.evaluate(combined.distinct_project(KEY_ATTRS), combined, BLOCKS),
        )
