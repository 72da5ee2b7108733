"""What a shipped round moves: sites answer a fragment by row address, a
fragment carries the fields its round reads, and a repeated column block
ships once — and none of it changes an answer.

The answers are pinned by a digest of ``repr(rows)`` taken from the keyed
replies that shipped whole fragments (the codec before row addresses), so
each configuration below is checked against that evaluation, bit for bit.
"""

import hashlib

import pytest

from conftest import assert_relations_equal
from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner, register_tpcr_fds
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.deployment import ProcessCluster
from repro.distributed.evaluator import ExecutionConfig, execute_query
from repro.distributed.optimizer import OptimizationOptions, plan_query
from repro.distributed.scheduler import execute_plan_scheduled
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import GMDJExpression, LiteralBase, MDStep
from repro.net import serialize
from repro.net.channel import DirectionStats
from repro.net.faults import FaultPlan
from repro.net.message import SHIP_BASE, SUB_RESULT
from repro.obs import Tracer
from repro.queries.sql import parse_olap_query
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import INT, Schema

#: ``bench_e2e``'s ``sync_heavy`` statement.
S5 = (
    "SELECT PartKey, SuppKey, COUNT(*) AS cnt, AVG(Price) AS m FROM TPCR "
    "GROUP BY PartKey, SuppKey THEN SELECT COUNT(*) AS above WHERE Price >= m"
)
S1 = (
    "SELECT NationKey, COUNT(*) AS cnt, AVG(Price) AS m FROM TPCR "
    "GROUP BY NationKey THEN SELECT COUNT(*) AS above WHERE Price >= m"
)
#: ``sha256(repr(rows))[:16]`` of S5's answer over the cluster below, fault
#: free, and with ``site1`` excluded from round 2 — as keyed replies gave it.
KEYED_DIGEST = "8d1422207442797c"
KEYED_DIGEST_WITHOUT_SITE1 = "fec6f5425b745768"


def digest(result) -> str:
    return hashlib.sha256(repr(result.relation.rows).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def sync_heavy():
    """``sync_heavy``'s shape: 10 000 TPCR rows over 2 sites, seed 101."""
    cluster = SimulatedCluster.with_sites(2)
    tpcr = generate_tpcr(TPCRConfig(scale=10_000 / 6_000_000, seed=101))
    cluster.load_partitioned("TPCR", tpcr, nation_partitioner(2))
    register_tpcr_fds(cluster.catalog)
    return cluster


def run(cluster, faults=None, topology=None, **config):
    expression = parse_olap_query(S5)
    cluster.install_faults(FaultPlan.parse(faults) if faults else None)
    try:
        config = ExecutionConfig(retry_backoff_s=0.0, **config)
        if topology is not None:
            plan = plan_query(expression, cluster.catalog)
            return execute_plan_scheduled(cluster, plan, config, topology=topology)
        return execute_query(cluster, expression, config=config)
    finally:
        cluster.install_faults(None)


def test_s5_bytes_per_round_and_direction(sync_heavy, monkeypatch):
    """Round 1 (Proposition 2's merged base) answers keyed, its AVG count a
    back-reference to ``cnt``; round 2 ships each site ``m`` alone, in the
    order of the site's own round-1 answer and positionally against it (the
    site kept ``PartKey, SuppKey``) — and only at the 2 rows both sites
    answered: the site finalizes every other row's ``m`` from the
    sub-aggregates it kept. It is answered with ``above`` alone: ``site1``
    touches 4 799 of the 4 801 rows it is shipped, and answering the two
    others costs fewer bytes than the row bitmap that would leave them out.
    The whole-number ``m__sum`` ships as a scaled FLOAT block (integers,
    not doubles). With raw doubles, round 1 up was 67 667 and 62 506
    bytes and round 2 down 102 each; keyed, round 2 down was 62 444 and
    57 680; positional with ``m`` at every row, 41 649 and 38 473."""
    shipped = []
    record = DirectionStats.record

    def spy(self, message):
        shipped.append(message)
        return record(self, message)

    monkeypatch.setattr(DirectionStats, "record", spy)
    result = run(sync_heavy, executor="serial")
    assert digest(result) == KEYED_DIGEST
    per_round = [
        {name: (edge.bytes_down, edge.bytes_up) for name, edge in stats.sites.items()}
        for stats in result.stats.rounds
    ]
    assert per_round == [
        {"site0": (32, 46_878), "site1": (32, 43_305)},
        {"site0": (93, 5_248), "site1": (93, 4_851)},
    ]
    assert [edge.tuples_up for edge in result.stats.rounds[1].sites.values()] == [5_198, 4_801]
    # 140 540 with raw doubles; before that, 220 458 with m at every row,
    # 260 460 with keyed fragments, 320 510 keyed, whole fragments
    assert result.stats.bytes_total == 100_532
    schemas = {}
    for message in shipped:
        if message.payload is not None:
            fragment, _digest, shared = serialize.decode_fragment(message.payload)
            if shared is not None:
                fragment, rows = serialize.decode_reply(shared, (), len(fragment))
                assert len(rows) == 2
            schemas[message.kind, message.round_index, message.sender] = fragment.schema.names
    round1 = ("PartKey", "SuppKey", "cnt", "m__sum", "m__count")
    assert schemas == {
        (SUB_RESULT, 1, "site0"): round1,
        (SUB_RESULT, 1, "site1"): round1,
        (SHIP_BASE, 2, "coordinator"): ("m",),
        (SUB_RESULT, 2, "site0"): ("above",),
        (SUB_RESULT, 2, "site1"): ("above",),
    }
    for message in shipped:
        if (message.kind, message.round_index) == (SUB_RESULT, 1):
            assert message.payload.endswith(b"\x02\x02")  # m__count: see column 2


def test_a_round_the_next_one_observes_drops_every_untouched_group(sync_heavy):
    """S5 with a third round that narrows by what round 2 answered: there
    ``site1`` answers only the 4 799 groups it touched, row bitmap and all,
    because an untouched group answered in round 2 would ship down again
    in round 3; round 3, the last, answers all it was shipped again."""
    three = (
        "SELECT PartKey, SuppKey, COUNT(*) AS cnt, AVG(Price) AS m FROM TPCR "
        "GROUP BY PartKey, SuppKey THEN SELECT COUNT(*) AS above, AVG(Price) AS m2 "
        "WHERE Price >= m THEN SELECT COUNT(*) AS top WHERE Price >= m AND Price >= m2"
    )
    config = ExecutionConfig(executor="serial")
    result = execute_query(sync_heavy, parse_olap_query(three), config=config)
    assert [md_round.observed_reduction for md_round in result.plan.rounds] == [False, True, True]
    site1 = [
        (stats.sites["site1"].tuples_down, stats.sites["site1"].tuples_up)
        for stats in result.stats.rounds[1:]
    ]
    assert site1 == [(4_801, 4_799), (4_799, 4_799)]
    # Rounds 2 and 3 ship positionally, round 3 against round 2's answer by
    # row address, each sparse in the outputs of the round before (round 3
    # ships m2 at no row, m at every row): 311 394 with raw doubles; before
    # that, 471 274 with those outputs at every row, 551 269 with keyed
    # fragments, 551 304 answering both rounds whole.
    assert result.stats.bytes_total == 191_422
    unobserved = execute_query(
        sync_heavy, parse_olap_query(three),
        OptimizationOptions(aware_group_reduction=False), config,
    )
    assert repr(result.relation.rows) == repr(unobserved.relation.rows)


@pytest.mark.parametrize(
    "setup",
    [
        dict(executor="serial"),
        dict(executor="serial", topology="hierarchical:2"),
        dict(
            executor="serial", failure_mode="retry",
            faults="drop site=site1 round=2 dir=up times=1",
        ),
    ],
    ids=["serial", "hierarchical-serial", "retry"],
)
def test_answers_equal_the_keyed_replies(sync_heavy, setup):
    result = run(sync_heavy, **setup)
    assert digest(result) == KEYED_DIGEST
    assert result.respects_theorem2()
    if "faults" in setup:
        assert result.stats.retries == 1


def test_a_degraded_round_equals_the_keyed_one(sync_heavy):
    result = run(
        sync_heavy, executor="serial", failure_mode="degrade", max_retries=1,
        faults="drop site=site1 round=2 dir=up times=0",
    )
    assert result.stats.excluded_sites == ((2, "site1"),)
    assert digest(result) == KEYED_DIGEST_WITHOUT_SITE1


def test_a_speculative_backup_equals_the_keyed_replies(sync_heavy, tmp_path):
    """A straggler in the addressed round: its backup is cut the same
    fragment and answers by the same addresses."""
    with ProcessCluster.from_simulated(sync_heavy, str(tmp_path)) as cluster:
        cluster.reset_network()
        cluster.install_faults(
            FaultPlan.stragglers(cluster.site_ids, seed=3, delay_s=0.8, rounds=(2,))
        )
        try:
            result = execute_query(
                cluster, parse_olap_query(S5),
                config=ExecutionConfig(
                    executor="sockets", speculation=True, speculation_factor=2.0,
                    retry_backoff_s=0.0,
                ),
            )
        finally:
            cluster.install_faults(None)
    assert result.stats.speculative_legs == 1 and result.stats.speculation_wins == 1
    assert result.stats.socket_parity()
    assert digest(result) == KEYED_DIGEST


def test_a_whole_fragment_is_encoded_once_per_round(monkeypatch):
    """Four sites, optimiser off, S1: every edge of a round ships all of X,
    so X is projected and encoded once per round, while each edge keeps its
    own ``round.encode`` span and byte count."""
    cluster = SimulatedCluster.with_sites(4)
    cluster.load_partitioned(
        "TPCR", generate_tpcr(TPCRConfig(scale=3_000 / 6_000_000, seed=101)),
        nation_partitioner(4),
    )
    calls = []
    encode = serialize.encode_relation

    def counted(relation):
        calls.append(relation.schema.names)
        return encode(relation)

    monkeypatch.setattr(serialize, "encode_relation", counted)
    tracer = Tracer()
    result = execute_query(
        cluster, parse_olap_query(S1), OptimizationOptions.none(),
        ExecutionConfig(executor="serial"), tracer=tracer,
    )
    fragments = [names for names in calls if "above" not in names and "cnt" not in names]
    # The base round: 4 site answers. Rounds 1 and 2: X once, 4 answers.
    assert len(calls) == 4 + (1 + 4) * 2
    assert fragments.count(("NationKey",)) == 4 + 1  # 4 base answers, round 1's X
    assert fragments.count(("NationKey", "m")) == 1  # round 2's X: no cnt
    encodes = [span for span in tracer.spans_named("round.encode") if span.kind == "coordinator"]
    assert len(encodes) == 8  # one per edge of rounds 1 and 2
    for stats in result.stats.rounds[1:]:
        assert len({edge.bytes_down for edge in stats.sites.values()}) == 1


def test_a_sparse_answer_over_dense_keys_comes_back_keyed(monkeypatch):
    """A site touching a few rows spread through a large fragment whose keys
    are close together answers keyed, when that is smaller than the
    addresses; the coordinator finds the rows by key and folds the same."""
    keys = list(range(2_000))
    order = sorted(keys, key=lambda key: (key % 97, key))  # neighbours far apart
    groups = Relation(Schema.of(("k", INT)), [(key,) for key in order])
    detail_rows = [(key, key * 3) for key in range(1_000, 1_040) for _copy in range(2)]
    cluster = SimulatedCluster.with_sites(2)
    cluster.load_manual(
        "T",
        {
            "site0": Relation(Schema.of(("k", INT), ("v", INT)), detail_rows),
            # The first 20 rows of the fragment: no addresses, no keys.
            "site1": Relation(Schema.of(("k", INT), ("v", INT)), [(97 * index, 1) for index in range(20)]),
        },
    )
    expression = GMDJExpression(
        LiteralBase(groups, ["k"]),
        [MDStep("T", [MDBlock([count_star("n"), AggSpec("sum", detail.v, "s")], base.k == detail.k)])],
    )
    replies = []
    decode_reply = serialize.decode_reply

    def spy(*args, **kwargs):
        answer = decode_reply(*args, **kwargs)
        replies.append(answer[1] is None)
        return answer

    monkeypatch.setattr(serialize, "decode_reply", spy)
    result = execute_query(cluster, expression, OptimizationOptions.all())
    assert sorted(replies) == [False, True]  # site0 keyed, site1 by its rows
    reference = expression.evaluate_centralized(cluster.conceptual_tables())
    assert_relations_equal(reference, result.relation)
