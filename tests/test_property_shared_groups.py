"""Sparse positional fragments: a group one site answered is finalized there.

Round 2 of a two-stage query ships each site ``m`` only at the groups
more than one site answered in round 1; the site finalizes every other
group's ``m`` from the sub-aggregates it kept (Theorem 1 over one
source). Drawn here: groups that lie at one site or are split across
sites (the split fraction drawn, 0 and 1 included), adversarial floats,
every built-in step-1 aggregate kind, 2-4 sites, row blocks, flat and
hierarchical trees, and a round-1 site exclusion. Every run equals the
centralized evaluation, and equals by ``repr`` the same run with every
site's kept answer lost — the keyed fragments of the path before.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import assert_relations_equal
from repro.distributed import evaluator
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.evaluator import ExecutionConfig, execute_query
from repro.distributed.optimizer import plan_query
from repro.distributed.scheduler import execute_plan_scheduled
from repro.distributed.site import SkallaSite
from repro.net.faults import FaultPlan
from repro.obs import MetricsRegistry
from repro.queries.sql import parse_olap_query
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, Schema

#: Key names long enough that K always outweighs the round-state digest:
#: every fragment a site answered ships positionally, however few its rows.
KEYS = ("group_key_one", "group_key_two")
SCHEMA = Schema.of((KEYS[0], INT), (KEYS[1], INT), ("v", FLOAT))
#: Exactly summable in any order, so the centralized fold is the same
#: number: signed zeros, subnormals, infinities, NaN, small dyadics.
VALUES = st.sampled_from([
    -0.0, 0.0, 1.0, -1.5, 2.25, 1024.0, 5e-324, -5e-324,
    2.2250738585072014e-308, math.inf, -math.inf, math.nan,
])
KINDS = ("AVG", "SUM", "MIN", "MAX", "COUNT", "VAR")


def statement(kind: str) -> str:
    keys = ", ".join(KEYS)
    return (
        f"SELECT {keys}, COUNT(*) AS cnt, {kind}(v) AS m FROM T GROUP BY {keys} "
        "THEN SELECT COUNT(*) AS above, SUM(v) AS s WHERE v >= m"
    )


@st.composite
def tables(draw):
    """``{site: rows}``: each group at one site, or the first ``split``
    share of them spread over several, each row on the next site."""
    sites = draw(st.integers(2, 4))
    groups = draw(st.integers(1, 40))
    split = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    parts = {f"site{index}": [] for index in range(sites)}
    for group in range(groups):
        spread = group < round(split * groups)
        home = draw(st.integers(0, sites - 1))
        values = draw(st.lists(VALUES, min_size=2 if spread else 1, max_size=4))
        for offset, value in enumerate(values):
            site = (home + offset) % sites if spread else home
            parts[f"site{site}"].append((group % 3, group // 3, value))
    return parts


def cluster_of(parts) -> SimulatedCluster:
    cluster = SimulatedCluster.with_sites(len(parts))
    cluster.load_manual("T", {site: Relation(SCHEMA, rows) for site, rows in parts.items()})
    return cluster


def run(cluster, kind, faults=None, topology="flat", metrics=None, **config):
    cluster.reset_network()
    cluster.install_faults(FaultPlan.parse(faults) if faults else None)
    try:
        return execute_plan_scheduled(
            cluster, plan_query(parse_olap_query(statement(kind)), cluster.catalog),
            ExecutionConfig(retry_backoff_s=0.0, **config),
            metrics=metrics, topology=topology,
        )
    finally:
        cluster.install_faults(None)


def without_nan(relation: Relation) -> Relation:
    """NaN is no number ``assert_relations_equal`` can match: NULL instead."""
    return Relation(relation.schema, [
        tuple(None if isinstance(value, float) and value != value else value for value in row)
        for row in relation.rows
    ])


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    parts=tables(),
    kind=st.sampled_from(KINDS),
    row_block_size=st.sampled_from([0, 1, 3]),
    topology=st.sampled_from(["flat", "hierarchical:2"]),
    excluded=st.booleans(),
)
@example(  # every group at one site: every m is the site's own
    parts={"site0": [(0, 0, -0.0), (1, 0, 5e-324)], "site1": [(2, 0, math.nan)]},
    kind="SUM", row_block_size=0, topology="flat", excluded=False,
)
@example(  # every group split: m ships at every row
    parts={"site0": [(0, 0, 1.0), (1, 0, -0.0)], "site1": [(0, 0, math.inf), (1, 0, -0.0)]},
    kind="VAR", row_block_size=1, topology="flat", excluded=False,
)
@example(  # a site with no group: its fragment has no row
    parts={"site0": [(0, 0, -0.0)], "site1": []},
    kind="AVG", row_block_size=0, topology="flat", excluded=False,
)
def test_a_sparse_round_is_the_keyed_one(parts, kind, row_block_size, topology, excluded):
    cluster = cluster_of(parts)
    config = dict(executor="serial", row_block_size=row_block_size)
    faults = None
    if excluded:
        # Degrade drops site1 from round 1: its fragment in round 2 ships keyed.
        config.update(failure_mode="degrade", max_retries=1)
        faults = "drop site=site1 round=1 dir=up times=0"
    result = run(cluster, kind, faults, topology, **config)
    lost = run(
        cluster, kind, "; ".join(filter(None, [faults, "lose_state round=2 times=0"])),
        topology, **config,
    )
    assert repr(result.relation.rows) == repr(lost.relation.rows)
    if not excluded and topology == "flat":
        # A tree's relays add hops Theorem 2's star does not count.
        assert result.respects_theorem2()
    if not excluded:
        reference = parse_olap_query(statement(kind)).evaluate_centralized(
            cluster.conceptual_tables()
        )
        assert_relations_equal(without_nan(reference), without_nan(result.relation))


@pytest.mark.parametrize("kind, expected", [("MAX", "nan"), ("MIN", "-0.0")])
def test_a_nan_ranks_above_every_number_at_every_site(kind, expected):
    """MIN and MAX fold the same whichever site holds a NaN: NaN ranks
    above every number, so folding each site's values and then the sites'
    answers is one fold over the group. (When a NaN counted only as a
    group's first value, site1's MAX was its NaN, and folding ``-0.0``
    then that NaN answered ``-0.0``; centralized, the answer was 1.0.)"""
    schema = Schema.of(("a", INT), ("b", INT), ("v", FLOAT))
    cluster = SimulatedCluster.with_sites(2)
    cluster.load_manual("T", {
        "site0": Relation(schema, [(0, 0, -0.0)]),
        "site1": Relation(schema, [(0, 0, math.nan), (0, 0, 1.0)]),
    })
    query = parse_olap_query(f"SELECT a, b, {kind}(v) AS m FROM T GROUP BY a, b")
    centralized = query.evaluate_centralized(cluster.conceptual_tables())
    distributed = execute_query(cluster, query).relation
    assert repr(distributed.rows) == repr(centralized.rows) == f"[(0, 0, {expected})]"


def test_the_rejoined_fragment_is_the_coordinators(monkeypatch):
    """What the site rejoins from a sparse fragment — its keys, the ``m``
    that shipped and the ``m`` it finalized from its own answer — is the
    keyed fragment the coordinator reads the reply against, by ``repr``."""
    pool = (-0.0, 5e-324, 1.0, math.nan, 2.25, math.inf, -1.5, 1024.0)
    parts = {
        # 12 groups a site, (0, 1) at both: one m ships to each site.
        "site0": [(0, 1, -0.0), (0, 1, -0.0)] + [
            (group, 0, pool[group % 8]) for group in range(11)
        ],
        "site1": [(0, 1, 2.25)] + [
            (group, 2, pool[group % 8]) for group in range(11) for _copy in range(2)
        ],
    }
    cluster = cluster_of(parts)
    logical, rejoined = {}, {}
    rejoin = SkallaSite.rejoin

    def spy(self, answers, digest, fragment, key_attrs, shared=None):
        keyed, key_bytes = rejoin(self, answers, digest, fragment, key_attrs, shared)
        if shared is not None:
            rejoined[self.site_id] = keyed
        return keyed, key_bytes

    monkeypatch.setattr(SkallaSite, "rejoin", spy)
    encode = evaluator._RoundWalk._fragment

    def keep_logical(self, node, child, held):
        shipped = encode(self, node, child, held)
        if shipped[4] is not None:
            logical[child.name] = shipped[0]
        return shipped

    monkeypatch.setattr(evaluator._RoundWalk, "_fragment", keep_logical)
    metrics = MetricsRegistry()
    run(cluster, "SUM", metrics=metrics, executor="serial")
    assert sorted(rejoined) == sorted(logical) == ["site0", "site1"]
    for site, fragment in logical.items():
        assert rejoined[site].schema == fragment.schema
        assert repr(rejoined[site].rows) == repr(fragment.rows)
    assert metrics.snapshot()["site.rows_derived"]["value"] == 2 * (12 - 1)
