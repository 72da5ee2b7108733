"""Tests for row blocking and streaming synchronization."""

import sys
import threading

import numpy as np
import pytest

from conftest import assert_relations_equal, make_flows, same_rows
from repro.distributed import (
    ExecutionConfig,
    OptimizationOptions,
    SimulatedCluster,
    execute_query,
)
from repro.errors import PlanError
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.gmdj.operator import SyncSession, evaluate, evaluate_sub
from repro.net.message import HEADER_BYTES
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.warehouse.partition import ValueListPartitioner

FLOW = make_flows(count=300, seed=61)
KEY = base.SourceAS == detail.SourceAS


def expression():
    inner = MDStep(
        "Flow",
        [MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], KEY)],
    )
    outer = MDStep(
        "Flow", [MDBlock([count_star("big")], KEY & (detail.NumBytes >= base.m))]
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS"]), [inner, outer])


def build_cluster():
    cluster = SimulatedCluster.with_sites(4)
    cluster.load_partitioned(
        "Flow", FLOW, ValueListPartitioner.spread("SourceAS", range(16), 4)
    )
    return cluster


class TestExecutionConfig:
    def test_validation(self):
        with pytest.raises(PlanError):
            ExecutionConfig(row_block_size=-1)

    def test_none_rejected(self):
        # 0 is the single "unlimited" sentinel; None is a contract error.
        with pytest.raises(PlanError):
            ExecutionConfig(row_block_size=None)

    def test_blocks_of_unlimited(self):
        relation = FLOW
        assert ExecutionConfig().blocks_of(relation) == [relation]

    def test_blocks_of_split(self):
        blocks = ExecutionConfig(row_block_size=100).blocks_of(FLOW)
        assert [len(block) for block in blocks] == [100, 100, 100]
        reassembled = blocks[0]
        for block in blocks[1:]:
            reassembled = reassembled.union_all(block)
        assert same_rows(reassembled, FLOW)

    def test_blocks_of_empty_relation(self):
        empty = Relation.empty(FLOW.schema)
        assert ExecutionConfig(row_block_size=10).blocks_of(empty) == [empty]


class TestBlockedExecution:
    @pytest.mark.parametrize("block_size", [1, 3, 7, 1000])
    def test_result_independent_of_block_size(self, block_size):
        cluster = build_cluster()
        reference = expression().evaluate_centralized(cluster.conceptual_tables())
        for options in (OptimizationOptions.none(), OptimizationOptions.all()):
            cluster.reset_network()
            result = execute_query(
                cluster,
                expression(),
                options,
                ExecutionConfig(row_block_size=block_size),
            )
            assert_relations_equal(reference, result.relation)

    def test_blocking_costs_only_headers(self):
        cluster = build_cluster()
        whole = execute_query(
            cluster, expression(), OptimizationOptions.none(), ExecutionConfig()
        )
        cluster.reset_network()
        blocked = execute_query(
            cluster,
            expression(),
            OptimizationOptions.none(),
            ExecutionConfig(row_block_size=2),
        )
        assert blocked.stats.tuples_total == whole.stats.tuples_total
        overhead = blocked.stats.bytes_total - whole.stats.bytes_total
        assert overhead > 0
        # Overhead is message framing: headers plus the repeated schema
        # dictionary of each extra block.
        extra_messages = overhead / HEADER_BYTES
        assert extra_messages < whole.stats.tuples_total  # sane magnitude


    def test_absorb_receives_one_relation_per_reply_block(self, monkeypatch):
        # Where bench_e2e reads coordinator.sync_rows_per_s: rows are counted
        # from the Relation handed to SyncSession.absorb, once per block.
        absorbed = []
        original = SyncSession.absorb

        def recording(self, h, source="", positions=None):
            absorbed.append((h, source))
            original(self, h, source, positions)

        monkeypatch.setattr(SyncSession, "absorb", recording)
        result = execute_query(
            build_cluster(),
            expression(),
            OptimizationOptions.none(),
            ExecutionConfig(row_block_size=7),
        )
        assert all(isinstance(h, Relation) and 0 < len(h) <= 7 for h, _ in absorbed)
        assert sum(len(h) for h, _ in absorbed) == result.stats.tuples_up_md()
        per_leg = [
            -(-site.tuples_up // 7)
            for stats in result.stats.rounds
            if stats.kind != "base"
            for site in stats.sites.values()
        ]
        assert len(absorbed) == sum(per_leg)
        assert {source for _h, source in absorbed} == set(build_cluster().site_ids)


class TestSyncSession:
    BLOCKS = [
        MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], KEY)
    ]

    def test_absorb_order_irrelevant(self):
        base_relation = FLOW.distinct_project(["SourceAS"])
        pieces = [Relation(FLOW.schema, FLOW.rows[start::3]) for start in range(3)]
        subs = [
            evaluate_sub(base_relation, piece, self.BLOCKS)[0] for piece in pieces
        ]
        forward = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        for sub in subs:
            forward.absorb(sub)
        backward = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        for sub in reversed(subs):
            backward.absorb(sub)
        assert same_rows(forward.finish(), backward.finish())

    def test_row_blocks_equal_whole_fragments(self):
        base_relation = FLOW.distinct_project(["SourceAS"])
        sub, _touched = evaluate_sub(base_relation, FLOW, self.BLOCKS)
        whole = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        whole.absorb(sub)
        blocked = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        for start in range(0, len(sub.rows), 5):
            blocked.absorb(Relation(sub.schema, sub.rows[start : start + 5]))
        assert_relations_equal(whole.finish(), blocked.finish())

    @pytest.mark.parametrize(
        "specs",
        [
            [AggSpec("var", detail.NumBytes, "v"), AggSpec("std", detail.NumBytes, "s")],
            [AggSpec("geomean", detail.NumBytes, "g"), count_star("cnt")],
        ],
        ids=["var_std", "geomean"],
    )
    def test_multi_component_functions(self, specs):
        # Three sources, row-blocked: the three-component VAR/STD and the
        # logsum/poscount pair go through per-source banks and their merge.
        blocks = [MDBlock(specs, KEY)]
        base_relation = FLOW.distinct_project(["SourceAS"])
        session = SyncSession(base_relation, ["SourceAS"], blocks)
        for site in range(3):
            piece = Relation(FLOW.schema, FLOW.rows[site::3])
            sub, _touched = evaluate_sub(base_relation, piece, blocks)
            for start in range(0, len(sub.rows), 5):
                session.absorb(
                    Relation(sub.schema, sub.rows[start : start + 5]), f"site{site}"
                )
        assert_relations_equal(
            session.finish(), evaluate(base_relation, FLOW, blocks), places=6
        )

    def test_concurrent_absorbs_lose_nothing(self):
        """Sixteen sources absorb at once on more threads than cores: a lost
        bank or touch update would change the relation or the touches."""
        base_relation = FLOW.distinct_project(["SourceAS"])
        blocks = [MDBlock([count_star("cnt"), AggSpec("sum", detail.NumBytes, "s")], KEY)]
        subs = [
            evaluate_sub(base_relation, Relation(FLOW.schema, FLOW.rows[site::16]), blocks)[0]
            for site in range(16)
        ]

        def fold(threaded):
            session = SyncSession(base_relation, ["SourceAS"], blocks, observes=True)

            def absorb(site, sub):
                for start in range(0, len(sub), 3):
                    session.absorb(Relation(sub.schema, sub.rows[start : start + 3]), f"s{site}")

            if not threaded:
                for site, sub in enumerate(subs):
                    absorb(site, sub)
                return session
            workers = [
                threading.Thread(target=absorb, args=(site, sub)) for site, sub in enumerate(subs)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
            return session

        serial = fold(threaded=False)
        expected = serial.finish().rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _attempt in range(5):
                session = fold(threaded=True)
                assert repr(session.finish().rows) == repr(expected)
                assert {
                    source: sorted(np.concatenate(positions).tolist())
                    for source, positions in session.touched().items()
                } == {
                    source: sorted(np.concatenate(positions).tolist())
                    for source, positions in serial.touched().items()
                }
        finally:
            sys.setswitchinterval(interval)

    def test_no_absorb_gives_empty_aggregates(self):
        base_relation = FLOW.distinct_project(["SourceAS"])
        session = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        result = session.finish()
        for row in result.rows:
            assert row[-2] == 0
            assert row[-1] is None

    def test_matches_direct_evaluation(self):
        base_relation = FLOW.distinct_project(["SourceAS"])
        sub, _touched = evaluate_sub(base_relation, FLOW, self.BLOCKS)
        session = SyncSession(base_relation, ["SourceAS"], self.BLOCKS)
        session.absorb(sub)
        assert_relations_equal(
            session.finish(), evaluate(base_relation, FLOW, self.BLOCKS)
        )
