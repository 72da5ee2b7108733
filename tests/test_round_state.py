"""Round state stays at the site: an observed round ships each site its
fragment positionally against the site's own previous answer, K left out.

A site keeps the key list of an answer the next round will ship against
(``SkallaSite.remember_answer``), addressed by ``serialize.answer_digest``.
Losing it — a ``lose_state`` fault, a restart — costs a keyed resend on
the same leg and never an answer: every run here is checked against the
keyed evaluation's digest from ``test_addressed_replies``.
"""

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.coordinator import Coordinator
from repro.distributed.deployment import ProcessCluster
from repro.distributed.evaluator import ExecutionConfig, execute_query
from repro.distributed.executor import SiteRequest, perform_site_request
from repro.distributed.optimizer import plan_query
from repro.distributed.scheduler import execute_plan_scheduled
from repro.distributed.site import ROUND_STATE_BYTES, SkallaSite
from repro.errors import FaultSpecError, SerializationError, StateMismatch
from repro.gmdj.blocks import MDBlock, sub_result_schema
from repro.gmdj.expression import DistinctBase, MDStep
from repro.net import serialize
from repro.net.channel import DirectionStats
from repro.net.faults import LOSE_STATE, FaultPlan, FaultRule
from repro.net.message import SHIP_BASE
from repro.obs import MetricsRegistry, Tracer
from repro.obs.metrics import activate
from repro.obs.profile import build_profile, render_profile
from repro.queries.sql import parse_olap_query
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.relation import Relation
from repro.relalg.schema import FLOAT, INT, STR, Attribute, Schema
from repro.warehouse.storage import LocalWarehouse
from test_addressed_replies import (  # noqa: F401 - sync_heavy is a fixture
    KEYED_DIGEST,
    KEYED_DIGEST_WITHOUT_SITE1,
    S5,
    digest,
    sync_heavy,
)

#: S5's round 2 down, bytes per site: positional and sparse, and keyed (what
#: a miss resends), ``m`` shipping as a scaled FLOAT block where it is one.
#: With raw doubles they were 102 and 62 444 / 57 680; positional with ``m``
#: at every row, 41 649 and 38 473.
POSITIONAL_DOWN = {"site0": 93, "site1": 93}
KEYED_DOWN = {"site0": 41_655, "site1": 38_479}
#: S5's round 2: rows shipped to each site, and those more than one site answered.
FRAGMENT_ROWS = {"site0": 5_198, "site1": 4_801}
SHARED_ROWS = {"site0": 2, "site1": 2}


def run(cluster, faults=None, topology=None, tracer=None, metrics=None, **config):
    """S5 over ``cluster`` under ``faults`` (the rule DSL), as
    ``test_addressed_replies.run`` runs it, with a tracer and a registry."""
    cluster.install_faults(FaultPlan.parse(faults) if faults else None)
    try:
        result = execute_plan_scheduled(
            cluster, plan_query(parse_olap_query(S5), cluster.catalog),
            ExecutionConfig(retry_backoff_s=0.0, **config),
            tracer=tracer, metrics=metrics, topology=topology or "flat",
        )
    finally:
        cluster.install_faults(None)
    # Round 2's requests took every answer round 1 left: none outlives S5.
    assert [site.answer_bytes for site in cluster.sites.values()] == [0, 0]
    return result


def round2_shipments(monkeypatch) -> list:
    """The round-2 fragments shipped from here on, as ``(site, payload)``."""
    shipped = []
    record = DirectionStats.record

    def spy(self, message):
        if (message.kind, message.round_index) == (SHIP_BASE, 2):
            shipped.append((message.recipient, message.payload))
        return record(self, message)

    monkeypatch.setattr(DirectionStats, "record", spy)
    return shipped


def counters(registry) -> dict:
    return {
        key: snapshot["value"]
        for key, snapshot in registry.snapshot().items()
        if key.startswith("site.round_state")
    }


class TestPositionalRounds:
    def test_round_2_ships_m_alone_against_each_sites_answer(self, sync_heavy, monkeypatch):
        shipped = round2_shipments(monkeypatch)
        registry = MetricsRegistry()
        result = run(sync_heavy, executor="serial", metrics=registry)
        assert digest(result) == KEYED_DIGEST
        assert result.respects_theorem2()
        down = {name: edge.bytes_down for name, edge in result.stats.rounds[1].sites.items()}
        assert down == POSITIONAL_DOWN
        for site, payload in shipped:
            # No K, and ``m`` only at the rows another site answered too.
            fragment, answer, shared = serialize.decode_fragment(payload)
            assert fragment.schema.names == () and len(fragment) == FRAGMENT_ROWS[site]
            assert len(answer) == serialize.DIGEST_BYTES
            values, rows = serialize.decode_reply(shared, (), len(fragment))
            assert values.schema.names == ("m",) and len(rows) == SHARED_ROWS[site]
        assert counters(registry) == {"site.round_state_hits": 2}
        assert registry.snapshot()["site.rows_derived"]["value"] == sum(
            FRAGMENT_ROWS[site] - SHARED_ROWS[site] for site in FRAGMENT_ROWS
        )

    @pytest.mark.parametrize("faults", [
        "lose_state site=site1 round=2",
        "lose_state round=2 times=0",
    ])
    def test_a_lost_answer_is_resent_keyed_on_the_same_leg(self, sync_heavy, monkeypatch, faults):
        clean = run(sync_heavy, executor="serial")
        shipped = round2_shipments(monkeypatch)
        registry = MetricsRegistry()
        result = run(sync_heavy, faults=faults, executor="serial", metrics=registry)
        assert repr(result.relation.rows) == repr(clean.relation.rows)
        assert result.stats.retries == 0
        lost = ["site1"] if "site=" in faults else ["site0", "site1"]
        assert counters(registry) == {
            "site.round_state_misses": len(lost),
            **({"site.round_state_hits": 1} if len(lost) == 1 else {}),
        }
        # The positional fragment, then the keyed one: both crossed the wire.
        for name, edge in result.stats.rounds[1].sites.items():
            payloads = [payload for site, payload in shipped if site == name]
            if name in lost:
                assert edge.bytes_down == POSITIONAL_DOWN[name] + KEYED_DOWN[name]
                positional, keyed = (serialize.decode_fragment(p) for p in payloads)
                assert positional[0].schema.names == () and keyed[1] is None
                assert keyed[0].schema.names == ("PartKey", "SuppKey", "m")
                values, rows = serialize.decode_reply(positional[2], (), len(positional[0]))
                assert [keyed[0].rows[row][2] for row in rows.tolist()] == values.column("m")
            else:
                assert edge.bytes_down == POSITIONAL_DOWN[name]
                assert len(payloads) == 1
        assert result.stats.bytes_total == clean.stats.bytes_total + sum(
            KEYED_DOWN[name] for name in lost
        )
        assert [(event.kind, event.site) for event in result.stats.faults] == [
            (LOSE_STATE, name) for name in lost
        ]

    @pytest.mark.parametrize(
        "setup",
        [
            dict(executor="serial", row_block_size=64, faults="lose_state site=site0 round=2"),
            dict(executor="serial", topology="hierarchical:2", faults="lose_state round=2"),
            dict(
                executor="serial", failure_mode="retry",
                faults="lose_state site=site1 round=2; drop site=site1 round=2 dir=up",
            ),
        ],
        ids=["blocks-64", "hierarchical", "retry"],
    )
    def test_state_loss_changes_no_answer(self, sync_heavy, setup):
        result = run(sync_heavy, **setup)
        assert digest(result) == KEYED_DIGEST
        assert result.respects_theorem2()

    def test_a_retry_after_the_site_took_its_answer_ships_keyed_at_once(
        self, sync_heavy, monkeypatch
    ):
        """The first attempt reached site1, which took its kept answer: the
        retry ships keyed, with no positional fragment certain to miss."""
        shipped = round2_shipments(monkeypatch)
        registry = MetricsRegistry()
        result = run(
            sync_heavy, executor="serial", failure_mode="retry", metrics=registry,
            faults="drop site=site1 round=2 dir=up",
        )
        assert digest(result) == KEYED_DIGEST
        assert result.stats.rounds[1].sites["site1"].retries == 1
        assert result.stats.rounds[1].sites["site1"].bytes_down == (
            POSITIONAL_DOWN["site1"] + KEYED_DOWN["site1"]
        )
        digests = [serialize.decode_fragment(p)[1] for site, p in shipped if site == "site1"]
        assert [answer is None for answer in digests] == [False, True]
        assert counters(registry) == {"site.round_state_hits": 2}

    def test_a_degraded_round_after_a_loss(self, sync_heavy):
        result = run(
            sync_heavy, executor="serial", failure_mode="degrade", max_retries=1,
            faults="lose_state site=site0 round=2; drop site=site1 round=2 dir=up times=0",
        )
        assert result.stats.excluded_sites == ((2, "site1"),)
        assert digest(result) == KEYED_DIGEST_WITHOUT_SITE1

    def test_round_3_ships_against_round_2s_answer_by_row_address(self, sync_heavy):
        """Round 2 is answered by row address, so its digest covers the
        positional fragment round 2 shipped (which names round 1's answer)
        and the addresses: round 3 ships positionally against that chain."""
        three = parse_olap_query(
            "SELECT PartKey, SuppKey, COUNT(*) AS cnt, AVG(Price) AS m FROM TPCR "
            "GROUP BY PartKey, SuppKey THEN SELECT COUNT(*) AS above, AVG(Price) AS m2 "
            "WHERE Price >= m THEN SELECT COUNT(*) AS top WHERE Price >= m AND Price >= m2"
        )
        registry = MetricsRegistry()
        result = execute_query(sync_heavy, three, config=ExecutionConfig(), metrics=registry)
        assert counters(registry) == {"site.round_state_hits": 4}
        sync_heavy.install_faults(FaultPlan.parse("lose_state site=site1 round=3"))
        registry = MetricsRegistry()
        try:
            lost = execute_query(sync_heavy, three, config=ExecutionConfig(), metrics=registry)
        finally:
            sync_heavy.install_faults(None)
        assert repr(lost.relation.rows) == repr(result.relation.rows)
        assert counters(registry) == {
            "site.round_state_hits": 3, "site.round_state_misses": 1,
        }

    def test_a_float_key_ships_keyed(self):
        """``-0.0`` equals ``0.0`` as a key, so a site's own key value need
        not be the coordinator's bit for bit: FLOAT keys are never left out."""
        schema = Schema.of(("k", FLOAT), ("n", INT))
        assert serialize.positional_keys(schema, ("k",)) == ()
        assert serialize.positional_keys(Schema.of(("k", INT)), ("k",)) == ("k",)
        assert serialize.positional_keys(Schema.of(("n", INT)), ("k",)) == ()

    def test_the_digest_costs_no_more_than_k_saves(self):
        """A fragment too small for K to outweigh the digest ships keyed."""
        schema = Schema.of(("k", INT), ("m", FLOAT))
        assert serialize.key_bytes_at_least(schema, ("k",), 8) < serialize.POSITIONAL_PREFIX_BYTES
        assert serialize.key_bytes_at_least(schema, ("k",), 200) > serialize.POSITIONAL_PREFIX_BYTES
        # A second INT column may be a back-reference: two bytes, not a bit a row.
        two = Schema.of(("a", INT), ("b", INT))
        assert serialize.key_bytes_at_least(two, ("b",), 10_000) == 1 + 2 + 2


class TestObservability:
    def test_the_encode_span_and_explain_say_positional(self, sync_heavy):
        tracer = Tracer()
        result = run(sync_heavy, executor="serial", tracer=tracer)
        encodes = [
            span for span in tracer.spans_named("round.encode")
            if span.kind == "coordinator" and span.attributes.get("positional")
        ]
        assert sorted(span.attributes["site"] for span in encodes) == ["site0", "site1"]
        profile = build_profile(tracer.finished(), result.stats)
        saved = profile["rounds"][1]["positional"]
        assert list(saved) == ["site0", "site1"] and all(saved.values())
        assert profile["rounds"][0]["positional"] == {}
        assert [record["index"] for record in profile["rounds"]] == [1, 2]
        text = render_profile(profile)
        assert (
            "round 2 shipped each site positionally against its own answer: "
            f"{sum(saved.values())} key bytes saved" in text
        )


def keep(site, answer, count: int, start: int = 0, query=None) -> None:
    """``site`` keeps query ``query``'s keyed answer of ``count`` rows,
    ``k`` from ``start``."""
    keyed = Relation(
        Schema.of(("k", INT), ("n", INT)),
        [(value, 1) for value in range(start, start + count)],
    )
    site.remember_answer(query, answer, (serialize.encode_relation(keyed),), count)


class TestTheSiteKeepsAnswers:
    def site(self) -> SkallaSite:
        return SkallaSite("s0", LocalWarehouse("s0"))

    def test_a_kept_answer_rejoins_row_for_row(self):
        site = self.site()
        answer = serialize.answer_digest((), (b"reply",))
        keep(site, answer, 3, start=7)
        kept_bytes = site.answer_bytes
        fragment = Relation(Schema.of(("m", FLOAT)), [(0.5,), (1.5,), (2.5,)])
        keyed, key_bytes = site.rejoin(site.take_answers(None), answer, fragment, ("k",))
        assert keyed.schema.names == ("k", "m")
        assert keyed.rows == [(7, 0.5), (8, 1.5), (9, 2.5)]
        assert 0 < key_bytes < kept_bytes  # k's block, not n's
        # Taken: a second leg shipping against it (a retry, a backup) misses.
        assert site.answer_bytes == 0
        with pytest.raises(StateMismatch, match="no answer"):
            site.rejoin(site.take_answers(None), answer, fragment, ("k",))

    def test_a_lost_or_mismatched_answer_is_a_state_mismatch(self):
        site = self.site()
        answer = serialize.answer_digest((), (b"reply",))
        fragment = Relation(Schema.of(("m", FLOAT)), [(0.5,), (1.5,)])
        with pytest.raises(StateMismatch, match="no answer"):
            site.rejoin(site.take_answers(None), answer, fragment, ("k",))  # it never answered
        keep(site, answer, 3)
        with pytest.raises(StateMismatch, match="3 rows"):
            site.rejoin(site.take_answers(None), answer, fragment, ("k",))
        keep(site, answer, 3)
        with pytest.raises(StateMismatch, match="keyed by"):
            site.rejoin(
                site.take_answers(None), answer,
                Relation(Schema.of(("m", FLOAT)), [(0.5,)] * 3), ("j",),
            )
        keep(site, answer, 2)
        site.forget_answers()
        assert site.answer_bytes == 0
        with pytest.raises(StateMismatch):
            site.rejoin(site.take_answers(None), answer, fragment, ("k",))

    @pytest.mark.parametrize("bad", [b"short", "0123456789abcdef", 7, None])
    def test_a_digest_of_the_wrong_length_or_type_is_rejected(self, bad):
        site = self.site()
        with pytest.raises(SerializationError, match="digest"):
            site.rejoin({}, bad, Relation(Schema.of(("m", FLOAT)), []), ("k",))

    def test_a_querys_next_request_takes_its_answers_and_no_others(self):
        """Whatever the request — keyed, a base round — it takes its query's
        kept answers out, so an answer no round ships against (ship filters
        narrowed the fragment, K was too small to leave out) is not kept
        past it. Another query's answers stay."""
        table = Relation(Schema.of(("k", INT)), [(1,), (2,)])
        site = SkallaSite("s0", LocalWarehouse("s0", {"T": table}))
        first = serialize.answer_digest((), (b"first",))
        second = serialize.answer_digest((), (b"second",))
        keep(site, first, 40, query=7)
        keep(site, second, 40, query=8)
        other = site.answer_bytes // 2
        perform_site_request(site, SiteRequest(
            kind="base", site_id="s0", round_number=0,
            source=DistinctBase("T", ["k"]), query_id=7,
        ))
        assert site.answer_bytes == other
        assert site.take_answers(7) == {}
        assert list(site.take_answers(8)) == [second]

    def test_the_kept_answers_stay_within_their_byte_bound(self, monkeypatch):
        monkeypatch.setattr("repro.distributed.site.ROUND_STATE_BYTES", 2_000)
        site = self.site()
        digests = [serialize.answer_digest((), (bytes([index]),)) for index in range(8)]
        for index, answer in enumerate(digests):
            keep(site, answer, 300, start=1_000 * index, query=index)
            assert site.answer_bytes <= 2_000
        fragment = Relation(Schema.of(("m", FLOAT)), [(0.0,)] * 300)
        site.rejoin(site.take_answers(7), digests[-1], fragment, ("k",))  # the latest is kept
        with pytest.raises(StateMismatch):
            # The oldest query's went first.
            site.rejoin(site.take_answers(0), digests[0], fragment, ("k",))
        keep(site, digests[0], 5_000, query=0)  # larger than the bound
        assert site.answer_bytes <= 2_000
        with pytest.raises(StateMismatch):
            site.rejoin(site.take_answers(0), digests[0], fragment, ("k",))
        assert ROUND_STATE_BYTES == 16 << 20


class TestUntrustedSparseBlocks:
    """A sparse positional first block is untrusted bytes like any other
    (``tests/test_serialize.py::TestUntrustedBytes``): every strict prefix,
    every single-byte flip and arbitrary bytes behind its prefix end in an
    answer, a :class:`~repro.errors.SerializationError` or a
    :class:`~repro.errors.StateMismatch` — in bounded time and memory."""

    DIGEST = serialize.answer_digest((), (b"round 1",))
    ROWS = 6
    #: Round 1 (``n``, ``m``) by ``k``, and round 2, which reads ``m``.
    ROUND_1 = (MDStep("T", [MDBlock(
        [count_star("n"), AggSpec("sum", detail.v, "m")], base.k == detail.k,
    )]),)
    ROUND_2 = (MDStep("T", [MDBlock(
        [count_star("above")], (base.k == detail.k) & (detail.v >= base.m),
    )]),)

    def site(self) -> SkallaSite:
        table = Relation(
            Schema.of(("k", INT), ("v", FLOAT)),
            [(key, float(key) - 2.5) for key in range(self.ROWS) for _copy in range(2)],
        )
        return SkallaSite("s0", LocalWarehouse("s0", {"T": table}))

    def kept(self, site) -> None:
        schema = sub_result_schema(Schema.of(("k", INT)), self.ROUND_1[0].blocks)
        answer = Relation(schema, [(key, 2, 2.0 * key - 5.0) for key in range(self.ROWS)])
        site.remember_answer(
            None, self.DIGEST, (serialize.encode_relation(answer),), self.ROWS,
            steps=self.ROUND_1,
        )

    def shared(self, values, rows, attribute=Attribute("m", FLOAT)) -> bytes:
        schema = Schema([attribute, Attribute(serialize.ADDRESS, INT)])
        return serialize.encode_relation(Relation(schema, list(zip(values, rows))))

    def payload(self, shared: bytes, rows: int = ROWS) -> bytes:
        dense = Relation.of_columns(Schema([]), [], rows)
        return serialize.encode_positional(dense, self.DIGEST, shared)

    def ask(self, payload: bytes):
        """What the site makes of ``payload``: the rows it answers, or the
        name of the typed error it raises. Anything else fails the test."""
        site = self.site()
        self.kept(site)
        request = SiteRequest(
            kind="round", site_id="s0", round_number=2, steps=self.ROUND_2,
            key_attrs=("k",), down_payloads=(payload,),
        )
        try:
            return perform_site_request(site, request).rows
        except (SerializationError, StateMismatch) as error:
            return type(error).__name__

    def test_a_sparse_block_is_answered(self):
        """``m`` shipped at row 2 overrides the site's own 2 * 2 - 5; every
        other row's ``m`` is the site's, so ``v >= m`` holds at rows 0-1."""
        site = self.site()
        self.kept(site)
        registry = MetricsRegistry()
        request = SiteRequest(
            kind="round", site_id="s0", round_number=2, steps=self.ROUND_2,
            key_attrs=("k",), down_payloads=(self.payload(self.shared([99.0], [2])),),
        )
        with activate(registry):
            reply = perform_site_request(site, request)
        above = serialize.decode_relation(reply.payloads[0]).column("above")
        assert above == [2, 2, 0, 0, 0, 0]
        assert registry.counter("site.rows_derived").value == self.ROWS - 1

    @pytest.mark.parametrize("case, error", [
        ("out of range", "SerializationError"),
        ("descending", "SerializationError"),
        ("repeated", "SerializationError"),
        ("more rows than kept", "SerializationError"),
        ("fewer dense rows", "StateMismatch"),
        ("another type", "StateMismatch"),
        ("another name", "StateMismatch"),
        ("a key", "StateMismatch"),
        ("no answer", "StateMismatch"),
    ])
    def test_a_bad_sparse_block_is_a_typed_error(self, case, error):
        shared = {
            "out of range": self.shared([1.0], [self.ROWS]),
            "descending": self.shared([1.0, 2.0], [3, 1]),
            "repeated": self.shared([1.0, 2.0], [3, 3]),
            # No addresses: the rows from the first, one each — too many.
            "more rows than kept": serialize.encode_relation(
                Relation(Schema.of(("m", FLOAT)), [(1.0,)] * (self.ROWS + 1))
            ),
            "fewer dense rows": self.shared([1.0], [0]),
            "another type": self.shared(["1"], [0], Attribute("m", STR)),
            "another name": self.shared([1.0], [0], Attribute("n2", FLOAT)),
            "a key": self.shared([1], [0], Attribute("k", INT)),
            "no answer": self.shared([1.0], [0]),
        }[case]
        payload = self.payload(shared, self.ROWS - 1 if case == "fewer dense rows" else self.ROWS)
        if case == "no answer":
            payload = payload.replace(self.DIGEST, bytes(serialize.DIGEST_BYTES))
        assert self.ask(payload) == error

    def test_every_prefix_and_flip_ends_typed(self):
        payload = self.payload(self.shared([99.0, 1.5], [2, 4]))
        assert self.ask(payload) == self.ROWS
        for cut in range(len(payload)):
            assert self.ask(payload[:cut]) in ("SerializationError", "StateMismatch")
        for position in range(len(payload)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(payload)
                mutated[position] ^= flip
                outcome = self.ask(bytes(mutated))
                assert outcome in (self.ROWS, "SerializationError", "StateMismatch")

    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_behind_the_prefix_end_typed(self, data):
        prefix = b"SKRS" + bytes((serialize.DIGEST_BYTES,)) + self.DIGEST
        tracemalloc.start()
        started = time.perf_counter()
        try:
            outcome = self.ask(prefix + data)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outcome in (self.ROWS, "SerializationError", "StateMismatch")
        assert time.perf_counter() - started < 5.0
        assert peak < 8 << 20


class TestComputeIsCpuTime:
    class SlowSite(SkallaSite):
        def compute_base(self, source):
            time.sleep(0.2)  # waiting, not computing: no core is busy
            return super().compute_base(source)

    def request(self, **fields) -> SiteRequest:
        return SiteRequest(
            kind="base", site_id="s0", round_number=0,
            source=DistinctBase("T", ["k"]), **fields,
        )

    def site(self):
        table = Relation(Schema.of(("k", INT)), [(value % 3,) for value in range(9)])
        return self.SlowSite("s0", LocalWarehouse("s0", {"T": table}))

    def test_a_site_that_waits_is_not_charged_the_wait(self):
        started = time.perf_counter()
        reply = perform_site_request(self.site(), self.request())
        assert time.perf_counter() - started >= 0.2
        assert reply.compute_s < 0.1

    def test_a_straggle_is_still_charged_in_full(self):
        reply = perform_site_request(self.site(), self.request(compute_delay_s=0.15))
        assert 0.15 <= reply.compute_s < 0.25


def test_lose_state_is_a_fault_rule_of_its_own():
    plan = FaultPlan.parse("lose_state site=site1 rounds=2-3 times=2")
    assert plan.rules == (FaultRule(LOSE_STATE, site="site1", rounds=(2, 3), times=2),)
    assert FaultRule.from_dict(plan.rules[0].to_dict()) == plan.rules[0]
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("lose_states site=site1")


# ---------------------------------------------------------------------------
# Over sockets — keep last: the kill-and-rejoin test restarts a site
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deployed(sync_heavy, tmp_path_factory):
    root = tmp_path_factory.mktemp("round-state-cluster")
    with ProcessCluster.from_simulated(sync_heavy, str(root)) as cluster:
        yield cluster


def run_sockets(cluster, faults=None, **config):
    cluster.reset_network()
    cluster.install_faults(FaultPlan.parse(faults) if faults else None)
    registry = MetricsRegistry()
    try:
        result = execute_query(
            cluster, parse_olap_query(S5),
            config=ExecutionConfig(executor="sockets", retry_backoff_s=0.0, **config),
            metrics=registry,
        )
    finally:
        cluster.install_faults(None)
    assert result.stats.socket_parity()
    return result, counters(registry)


class TestOverSockets:
    def test_positional_over_sockets_is_the_serial_run(self, deployed):
        result, seen = run_sockets(deployed)
        assert digest(result) == KEYED_DIGEST
        assert {
            name: edge.bytes_down for name, edge in result.stats.rounds[1].sites.items()
        } == POSITIONAL_DOWN
        assert seen == {"site.round_state_hits": 2}

    def test_a_site_server_that_loses_its_state_answers_keyed(self, deployed):
        result, seen = run_sockets(deployed, faults="lose_state site=site1 round=2")
        assert digest(result) == KEYED_DIGEST
        assert result.stats.rounds[1].sites["site1"].bytes_down == (
            POSITIONAL_DOWN["site1"] + KEYED_DOWN["site1"]
        )
        assert seen == {"site.round_state_hits": 1, "site.round_state_misses": 1}

    def test_a_site_server_killed_between_rounds_rejoins_and_answers_keyed(
        self, deployed, monkeypatch
    ):
        assemble = Coordinator.assemble_from_chain

        def then_restart_site1(self, *args, **kwargs):
            assembled = assemble(self, *args, **kwargs)
            deployed.kill_site("site1")
            deployed.restart_site("site1")  # a fresh process: it kept nothing
            return assembled

        monkeypatch.setattr(Coordinator, "assemble_from_chain", then_restart_site1)
        result, seen = run_sockets(deployed)
        assert digest(result) == KEYED_DIGEST
        assert result.stats.retries == 0
        assert result.stats.rounds[1].sites["site1"].bytes_down == (
            POSITIONAL_DOWN["site1"] + KEYED_DOWN["site1"]
        )
        assert seen == {"site.round_state_hits": 1, "site.round_state_misses": 1}
