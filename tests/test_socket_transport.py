"""The process-separated deployment mode, end to end.

Covers the socket transport stack introduced with ``repro cluster up``:
the frame codec and wire-message header, the partition store round-trip,
engine equivalence for every query family over real TCP against the
in-process oracle (bit-identical results, measured socket payload bytes
exactly equal to the modeled ``DirectionStats`` bytes, framing overhead
accounted separately), fault-schedule verdict parity against the
simulated-channel oracle, and the kill-and-rejoin acceptance scenario
(a killed site is excluded per policy; a restarted one serves its
partition from disk and heals the answer).
"""

from __future__ import annotations

import socket
import threading
from collections import Counter

import pytest

from conftest import adversarial_tables, make_flows
from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner, register_tpcr_fds
from repro.distributed import OptimizationOptions, SimulatedCluster, execute_query
from repro.distributed.deployment import ProcessCluster
from repro.distributed.evaluator import ExecutionConfig
from repro.distributed.executor import SiteRequest
from repro.distributed.siteserver import load_site, write_partition_store
from repro.distributed.stats import verify_against_network
from repro.errors import (
    NetworkError,
    RemoteSiteError,
    SerializationError,
    SiteUnavailableError,
)
from repro.gmdj.blocks import MDBlock
from repro.gmdj.expression import DistinctBase, GMDJExpression, MDStep
from repro.net import bodies, serialize, socket_channel
from repro.net.faults import FaultPlan
from repro.net.message import HEADER_BYTES, SHIP_BASE
from repro.net.socket_channel import (
    FLAG_DROPPED,
    FRAME_HELLO,
    FRAME_OVERHEAD_BYTES,
    FRAME_PING,
    FRAME_REPLY,
    FRAME_REQ,
    FRAME_WELCOME,
    decode_wire_message,
    encode_wire_message,
    map_remote_error,
    read_frame,
    write_frame,
)
from repro.queries.cube import cube_lattice_queries
from repro.queries.sql import parse_olap_query
from repro.queries.unpivot import marginal_queries
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.warehouse.partition import HashPartitioner, RoundRobinPartitioner

SITES = 4
FLOW = make_flows(count=240, seed=17, routers=8)
KEY = detail.SourceAS == base.SourceAS


def correlated_expression():
    inner = MDStep(
        "Flow",
        [MDBlock([count_star("cnt"), AggSpec("sum", detail.NumBytes, "s")], KEY)],
    )
    outer = MDStep(
        "Flow",
        [MDBlock([count_star("big")], KEY & (detail.NumBytes >= base.s / base.cnt))],
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS", "DestAS"]), [inner, outer])


def query_families():
    """One representative expression per paper query family."""
    aggs = [count_star("cnt"), AggSpec("sum", detail.NumBytes, "bytes")]
    families = []
    for subset, expression in cube_lattice_queries(
        "Flow", ["SourceAS", "DestAS"], aggs
    ):
        families.append((f"cube:{'+'.join(subset) or 'apex'}", expression))
        break  # one lattice vertex is enough per family
    for attribute, expression in marginal_queries(
        "Flow", ["SourceAS", "DestAS"], aggs
    ):
        families.append((f"unpivot:{attribute}", expression))
        break
    families.append(("multifeature:correlated", correlated_expression()))
    return families


@pytest.fixture(autouse=True)
def every_request_round_trips(monkeypatch):
    """Every request this module's runs build crosses as a typed control
    that decodes to the same request."""
    control = SiteRequest.control

    def checked(request):
        data = control(request)
        rebuilt = SiteRequest.from_control(data, request.fragment, request.site_id)
        # Not ``==``: the steps hold expressions, whose ``==`` builds an atom.
        assert repr(rebuilt) == repr(request)
        return data

    monkeypatch.setattr(SiteRequest, "control", checked)


def build_simulated():
    cluster = SimulatedCluster.with_sites(SITES)
    cluster.load_partitioned("Flow", FLOW, HashPartitioner(["SourceAS"], SITES))
    return cluster


@pytest.fixture(scope="module")
def sim_cluster():
    return build_simulated()


@pytest.fixture(scope="module")
def deployed(sim_cluster, tmp_path_factory):
    root = tmp_path_factory.mktemp("socket-cluster")
    with ProcessCluster.from_simulated(sim_cluster, str(root)) as cluster:
        yield cluster


def run_query(cluster, expression, executor, **config_kwargs):
    cluster.reset_network()
    config = ExecutionConfig(
        executor=executor, retry_backoff_s=0.0, **config_kwargs
    )
    result = execute_query(
        cluster, expression, options=OptimizationOptions.none(), config=config
    )
    assert verify_against_network(result.stats, cluster.network) == []
    return result


# ---------------------------------------------------------------------------
# Frame codec & wire header
# ---------------------------------------------------------------------------


def test_wire_message_round_trips_and_matches_modeled_size():
    payload = b"\x01" * 57
    body = encode_wire_message(SHIP_BASE, 3, payload)
    assert len(body) == HEADER_BYTES + len(payload)  # == Message.size_bytes
    kind, round_index, flags, decoded, rest = decode_wire_message(body)
    assert (kind, round_index, flags, decoded, rest) == (SHIP_BASE, 3, 0, payload, b"")
    # It ends where its header says: what follows is the frame's own.
    assert decode_wire_message(body + b"control") == (
        SHIP_BASE, 3, 0, payload, b"control",
    )
    with pytest.raises(NetworkError, match="short MSG body"):
        decode_wire_message(body[:-1])


def test_wire_message_carries_the_dropped_flag():
    body = encode_wire_message(SHIP_BASE, 0, b"x", flags=FLAG_DROPPED)
    _kind, _round, flags, _payload, _rest = decode_wire_message(body)
    assert flags & FLAG_DROPPED


def test_wire_message_rejects_garbage():
    with pytest.raises(NetworkError):
        decode_wire_message(b"nonsense")
    body = bytearray(encode_wire_message(SHIP_BASE, 0, b"abc"))
    body[0] ^= 0xFF  # break the magic
    with pytest.raises(NetworkError):
        decode_wire_message(bytes(body))


def test_frames_round_trip_over_a_real_socket_with_known_overhead():
    left, right = socket.socketpair()
    try:
        body = encode_wire_message(SHIP_BASE, 1, b"payload") + bodies.encode_control(
            {"kind": "round", "round_number": 1}
        )
        wire_bytes = write_frame(left, FRAME_REQ, body)
        assert wire_bytes == FRAME_OVERHEAD_BYTES + len(body)
        frame_type, received = read_frame(right)
        assert frame_type == FRAME_REQ
        assert received == body
    finally:
        left.close()
        right.close()


def test_read_frame_raises_on_closed_peer():
    left, right = socket.socketpair()
    left.close()
    try:
        with pytest.raises(ConnectionError):
            read_frame(right)
    finally:
        right.close()


def _req_body(control, request):
    """What ``SocketChannel.ask`` puts in the REQ frame for ``control``."""
    return encode_wire_message(SHIP_BASE, request.round_number, request.fragment) + (
        bodies.encode_control(control)
    )


def _req_body_with_every_field(request):
    """The REQ body as it would be if every field with a value always crossed."""
    names = (
        "kind", "round_number", "steps", "key_attrs",
        "independent_reduction", "traced", "query_id",
        "compute_delay_s", "since",
    )
    return _req_body({name: getattr(request, name) for name in names}, request)


@pytest.mark.parametrize(
    "optional",
    [
        {},
        {"compute_delay_s": 0.25},
        {"traced": True},
        {"since": 3},
        {
            "independent_reduction": True,
            "traced": True, "query_id": 0, "compute_delay_s": 0.25,
        },
    ],
    ids=lambda optional: "+".join(optional) or "defaults",
)
def test_req_body_carries_only_what_differs_from_the_defaults(optional):
    request = SiteRequest(
        kind="round",
        site_id="site2",
        round_number=1,
        steps=tuple(correlated_expression().steps),
        key_attrs=("SourceAS", "DestAS"),
        fragment=b"fragment",
        **optional,
    )
    control = bodies.decode_control(request.control())
    assert set(control) == {"kind", "round_number", "steps", "key_attrs", *optional}
    body = _req_body(control, request)
    assert len(body) < len(_req_body_with_every_field(request))
    kind, _round, _flags, fragment, control_bytes = decode_wire_message(body)
    assert (kind, fragment) == (SHIP_BASE, b"fragment")
    rebuilt = SiteRequest.from_control(control_bytes, fragment, "site2")
    # Not ``==``: the steps hold expressions, whose ``==`` builds an atom.
    assert repr(rebuilt) == repr(request)


def test_site_servers_reply_in_format_v3(deployed, monkeypatch):
    """No codec crosses in the REQ body: the site server encodes its reply
    blocks in the one wire format."""
    versions = []
    decode = serialize.decode_relation

    def recording(data):
        versions.append(data[4])
        return decode(data)

    # The coordinator process decodes nothing but the sites' replies.
    monkeypatch.setattr(serialize, "decode_relation", recording)
    run_query(deployed, correlated_expression(), "sockets")
    assert versions and set(versions) == {3}


def test_remote_errors_map_to_their_local_classes():
    assert isinstance(
        map_remote_error("SerializationError", "bad bytes"), SerializationError
    )
    assert isinstance(map_remote_error("NetworkError", "desync"), NetworkError)
    # Unknown classes (and non-repro ones) become the fatal catch-all.
    assert isinstance(map_remote_error("ValueError", "boom"), RemoteSiteError)
    assert isinstance(map_remote_error("NoSuchError", "boom"), RemoteSiteError)


# ---------------------------------------------------------------------------
# Partition store
# ---------------------------------------------------------------------------


def test_partition_store_round_trips_every_site(tmp_path):
    """By ``repr`` (``-0.0`` is not ``0.0``, a NaN is a NaN), the rows and
    every typed view, whether a column decodes to a list or, as every
    NULL-free INT and FLOAT column does, to a typed array."""
    cluster = build_simulated()
    for name, relation in adversarial_tables().items():
        cluster.sites[cluster.site_ids[0]].warehouse.register(name, relation)
    root = str(tmp_path / "store")
    write_partition_store(cluster, root)
    for site_id in cluster.site_ids:
        reloaded = load_site(root, site_id)
        original = cluster.sites[site_id].warehouse
        assert reloaded.warehouse.table_names() == original.table_names()
        for table_name in original.table_names():
            table, expected = (
                warehouse.table(table_name) for warehouse in (reloaded.warehouse, original)
            )
            assert table.schema == expected.schema
            for position in range(len(table.schema)):
                assert typed_repr(table, position) == typed_repr(expected, position)
            assert repr(table.rows) == repr(expected.rows)


def typed_repr(relation, position: int) -> tuple:
    data, valid = relation.typed(position)
    return data.dtype, repr(data.tolist()), None if valid is None else valid.tolist()


def test_deployed_cluster_mirrors_the_simulated_surface(sim_cluster, deployed):
    assert deployed.site_count == sim_cluster.site_count
    assert deployed.site_ids == sim_cluster.site_ids
    assert (
        deployed.conceptual_table("Flow").rows
        == sim_cluster.conceptual_table("Flow").rows
    )
    assert deployed.data_versions(["Flow"]) == sim_cluster.data_versions(["Flow"])
    # Site *data* lives in another process: the coordinator holds no site.
    assert not hasattr(deployed, "sites") and not hasattr(deployed, "site")


# ---------------------------------------------------------------------------
# Engine equivalence + byte parity (the tentpole acceptance bar)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,expression", query_families(), ids=[n for n, _e in query_families()]
)
def test_every_query_family_is_bit_identical_over_sockets(
    sim_cluster, deployed, name, expression
):
    oracle = run_query(sim_cluster, expression, "serial")
    over_sockets = run_query(deployed, expression, "sockets")
    assert over_sockets.relation.rows == oracle.relation.rows  # bit-identical
    # The simulation is the byte oracle: modeled bytes agree exactly...
    assert over_sockets.stats.bytes_down == oracle.stats.bytes_down
    assert over_sockets.stats.bytes_up == oracle.stats.bytes_up
    # ...and the measured socket payload equals the model, to the byte.
    stats = over_sockets.stats
    assert stats.transport == "sockets"
    assert stats.socket_bytes_down == stats.bytes_down
    assert stats.socket_bytes_up == stats.bytes_up
    assert stats.socket_parity()
    # Framing is real overhead, reported separately, never zero.
    assert stats.socket_framing_bytes > 0
    assert stats.socket_frames > 0


def test_a_leg_is_one_frame_each_way(tmp_path, monkeypatch):
    """A clean S5 run on 2 sites: past each connection's handshake (and
    any clock PING), every leg is one REQ and one REPLY, and the payload
    they carry is the modeled bytes exactly."""
    simulated = SimulatedCluster.with_sites(2)
    tpcr = generate_tpcr(TPCRConfig(scale=2_000 / 6_000_000, seed=101))
    simulated.load_partitioned("TPCR", tpcr, nation_partitioner(2))
    register_tpcr_fds(simulated.catalog)
    s5 = parse_olap_query(
        "SELECT PartKey, SuppKey, COUNT(*) AS cnt, AVG(Price) AS m FROM TPCR "
        "GROUP BY PartKey, SuppKey THEN SELECT COUNT(*) AS above WHERE Price >= m"
    )
    frames = Counter()
    write, read = socket_channel.write_frame, socket_channel.read_frame

    def writing(sock, frame_type, body=b""):
        frames[frame_type] += 1
        return write(sock, frame_type, body)

    def reading(sock):
        frame = read(sock)
        frames[frame[0]] += 1
        return frame

    with ProcessCluster.from_simulated(simulated, str(tmp_path)) as cluster:
        cluster.reset_network()
        monkeypatch.setattr(socket_channel, "write_frame", writing)
        monkeypatch.setattr(socket_channel, "read_frame", reading)
        result = execute_query(cluster, s5, config=ExecutionConfig(executor="sockets"))
        monkeypatch.undo()
        assert verify_against_network(result.stats, cluster.network) == []
    stats = result.stats
    legs = sum(len(round_stats.sites) for round_stats in stats.rounds)
    assert legs == 4  # two rounds (the base merged into the first), two sites
    assert frames[FRAME_HELLO] == frames[FRAME_WELCOME] == 2
    assert frames[FRAME_REQ] == frames[FRAME_REPLY] == legs
    handshakes = frames[FRAME_HELLO] + frames[FRAME_WELCOME] + frames[FRAME_PING]
    assert stats.socket_frames == sum(frames.values()) == 2 * legs + handshakes
    assert stats.socket_bytes_down == stats.bytes_down
    assert stats.socket_bytes_up == stats.bytes_up


def test_transport_shows_up_in_stats_dict_and_summary(deployed):
    _name, expression = query_families()[0]
    stats = run_query(deployed, expression, "sockets").stats
    snapshot = stats.to_dict()
    assert snapshot["transport"] == "sockets"
    assert snapshot["socket"]["parity"] is True
    assert snapshot["socket"]["bytes_down"] == stats.bytes_down
    assert snapshot["socket"]["framing_bytes"] == stats.socket_framing_bytes
    summary = stats.summary()
    assert "transport [sockets]" in summary
    assert "framing overhead" in summary


# ---------------------------------------------------------------------------
# Fault semantics over the real transport (satellite: verdict parity)
# ---------------------------------------------------------------------------

ACCEPTANCE_SPEC = (
    "drop site=site1 round=1 dir=up times=1; "
    "crash site=site1 rounds=1-2 times=4"
)


def run_faulty(cluster, executor, faults, **config_kwargs):
    plan = faults if isinstance(faults, FaultPlan) or faults is None else (
        FaultPlan.parse(faults)
    )
    cluster.install_faults(plan)
    try:
        return run_query(
            cluster, correlated_expression(), executor, **config_kwargs
        )
    finally:
        cluster.install_faults(None)


def observe(result):
    """The verdict tuple both transports must agree on."""
    return (
        result.relation.rows,
        result.stats.retries,
        result.stats.excluded_sites,
        result.stats.degraded,
        result.stats.faults,
    )


@pytest.mark.parametrize("failure_mode,max_retries", [("retry", 5), ("degrade", 1)])
def test_acceptance_fault_schedule_verdicts_match_the_simulated_oracle(
    sim_cluster, deployed, failure_mode, max_retries
):
    oracle = run_faulty(
        sim_cluster, "serial", ACCEPTANCE_SPEC,
        failure_mode=failure_mode, max_retries=max_retries,
    )
    over_sockets = run_faulty(
        deployed, "sockets", ACCEPTANCE_SPEC,
        failure_mode=failure_mode, max_retries=max_retries,
    )
    assert observe(over_sockets) == observe(oracle)
    # Parity holds through drops, crashes and retries too.
    assert over_sockets.stats.socket_parity()


def test_seeded_scatter_schedule_verdicts_match_the_simulated_oracle(
    sim_cluster, deployed
):
    plan = FaultPlan.scatter(
        [f"site{index}" for index in range(SITES)],
        seed=23,
        rounds=3,
        drop=0.25,
        delay=0.25,
        duplicate=0.25,
        corrupt=0.2,
    )
    assert plan.rules, "seed produced an empty schedule"
    oracle = run_faulty(
        sim_cluster, "serial", plan, failure_mode="retry", max_retries=4
    )
    over_sockets = run_faulty(
        deployed, "sockets", plan, failure_mode="retry", max_retries=4
    )
    assert observe(over_sockets) == observe(oracle)
    assert over_sockets.stats.socket_parity()


def test_fail_fast_propagates_a_crash_over_sockets(deployed):
    with pytest.raises(SiteUnavailableError):
        run_faulty(
            deployed, "sockets", "crash site=site1 rounds=0-9 times=0",
            failure_mode="fail_fast",
        )


@pytest.fixture
def thread_starts(monkeypatch):
    """Counts ``threading.Thread.start`` calls in this process."""
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


def test_a_socket_round_starts_no_thread(deployed, thread_starts):
    """Every socket round runs on the calling thread — fail-fast, a retried
    crash and a speculative backup alike — so a query starts no thread and
    leaves none behind."""
    threads = threading.active_count()
    with pytest.raises(SiteUnavailableError):
        run_faulty(
            deployed, "sockets", "crash site=site1 rounds=0-9 times=0",
            failure_mode="fail_fast",
        )
    retried = run_faulty(
        deployed, "sockets", "crash site=site2 round=1 times=1",
        failure_mode="retry",
    )
    assert retried.stats.retries == 1
    raced = run_straggled(deployed, speculation=True)
    assert raced.stats.speculative_legs == 1
    assert thread_starts == []
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# Speculative straggler re-execution
# ---------------------------------------------------------------------------

STRAGGLE_DELAY_S = 0.8


def run_straggled(deployed, *, speculation, delay_s=STRAGGLE_DELAY_S, seed=7):
    """One query with a seeded compute delay on one site in round 1."""
    return run_faulty(
        deployed,
        "sockets",
        FaultPlan.stragglers(
            deployed.site_ids, seed=seed, delay_s=delay_s, rounds=(1,)
        ),
        speculation=speculation,
        speculation_factor=2.0,
    )


def test_straggler_speculation_is_bit_identical_with_byte_parity(
    sim_cluster, deployed
):
    """The satellite-4 acceptance: a seeded delay fault triggers a
    speculative backup whose result is bit-identical to the fault-free
    flat run, and the measured socket bytes reconcile with the modeled
    ``DirectionStats`` once the abandoned leg's traffic is included."""
    reference = run_query(sim_cluster, correlated_expression(), "serial")
    result = run_straggled(deployed, speculation=True)

    assert result.relation.rows == reference.relation.rows
    stats = result.stats
    assert stats.speculative_legs == 1
    assert stats.speculation_wins == 1
    # The winning path's modeled bytes equal the fault-free oracle's —
    # the loser's traffic lives only in the speculative buckets.
    assert (stats.bytes_down, stats.bytes_up) == (
        reference.stats.bytes_down,
        reference.stats.bytes_up,
    )
    assert stats.speculative_bytes_down > 0  # the abandoned leg's re-send
    assert stats.socket_parity()
    assert stats.socket_bytes_down == (
        stats.bytes_down + stats.speculative_bytes_down
    )
    # The abandoned attempt's reply never arrived whole, so none of it counts.
    assert stats.socket_bytes_up == stats.bytes_up
    # run_query already ran verify_against_network: per-site totals
    # reconciled with the channels including the speculative buckets.


def test_speculation_beats_the_straggler_wall(deployed):
    """With speculation the delayed round finishes well under the
    injected delay; without it the round wall absorbs the delay whole."""
    with_speculation = run_straggled(deployed, speculation=True)
    spec_wall = max(r.wall_s for r in with_speculation.stats.rounds)
    assert with_speculation.stats.speculation_wins == 1
    assert spec_wall < STRAGGLE_DELAY_S

    baseline = run_straggled(deployed, speculation=False)
    base_wall = max(r.wall_s for r in baseline.stats.rounds)
    assert baseline.stats.speculative_legs == 0
    assert base_wall >= STRAGGLE_DELAY_S
    assert baseline.stats.socket_parity()


def test_speculation_is_inert_without_stragglers(deployed):
    # Generous slack so a CI scheduling hiccup on one healthy leg can
    # never masquerade as a straggler.
    result = run_query(
        deployed, correlated_expression(), "sockets",
        speculation=True, speculation_factor=2.0, speculation_slack_s=0.5,
    )
    assert result.stats.speculative_legs == 0
    assert result.stats.speculation_wins == 0
    assert result.stats.speculative_bytes_down == 0
    assert result.stats.socket_parity()


#: A site slow on every attempt of round 1, its backups included.
SLOW_EVERY_TIME = "straggle site=site1 round=1 delay=0.5 times=0"


@pytest.mark.parametrize(
    "knob, low, high, fixed",
    [
        ("speculation_factor", 1.0, 1000.0, {"speculation_slack_s": 0.25}),
        ("speculation_slack_s", 0.25, 1.0, {"speculation_factor": 2.0}),
    ],
)
def test_each_speculation_knob_setting_wins_a_case(deployed, knob, low, high, fixed):
    """Each deadline knob trades a straggler caught early against a backup
    spent on a site that is as slow the second time: its low setting wins
    the first case and its high one the second, so neither setting is a
    default that always wins."""

    def wall(faults, setting):
        result = run_faulty(
            deployed, "sockets", faults, speculation=True, **{knob: setting}, **fixed
        )
        return max(r.wall_s for r in result.stats.rounds), result.stats

    straggler = FaultPlan.stragglers(
        deployed.site_ids, seed=7, delay_s=STRAGGLE_DELAY_S, rounds=(1,)
    )
    caught, caught_stats = wall(straggler, low)
    waited, _stats = wall(straggler, high)
    assert caught_stats.speculation_wins == 1
    assert caught < waited

    spent, spent_stats = wall(SLOW_EVERY_TIME, low)
    patient, patient_stats = wall(SLOW_EVERY_TIME, high)
    assert spent_stats.speculative_legs == 1 and spent_stats.speculative_bytes_down > 0
    assert patient_stats.speculative_legs == 0
    assert patient < spent

# ---------------------------------------------------------------------------
# Observed-distribution group reduction, byte for byte over TCP
# ---------------------------------------------------------------------------

KEY2 = (base.SourceAS == detail.SourceAS) & (base.DestAS == detail.DestAS)


def fine_groups_expression():
    """S5's shape: fine groups on keys the data is not partitioned on."""
    inner = MDStep(
        "Flow",
        [MDBlock([count_star("cnt"), AggSpec("avg", detail.NumBytes, "m")], KEY2)],
    )
    outer = MDStep(
        "Flow", [MDBlock([count_star("above")], KEY2 & (detail.NumBytes >= base.m))]
    )
    return GMDJExpression(DistinctBase("Flow", ["SourceAS", "DestAS"]), [inner, outer])


def run_optimized(cluster, executor, options=None, **config_kwargs):
    cluster.reset_network()
    result = execute_query(
        cluster,
        fine_groups_expression(),
        options=options or OptimizationOptions.all(),
        config=ExecutionConfig(executor=executor, retry_backoff_s=0.0, **config_kwargs),
    )
    assert verify_against_network(result.stats, cluster.network) == []
    return result


@pytest.mark.parametrize("sites", [2, 4])
def test_observed_reduction_is_carried_byte_for_byte(sites, tmp_path):
    simulated = SimulatedCluster.with_sites(sites)
    simulated.load_partitioned("Flow", FLOW, RoundRobinPartitioner(sites))
    oracle = run_optimized(simulated, "serial")
    assert [r.observed_reduction for r in oracle.plan.rounds] == [False, True]
    with ProcessCluster.from_simulated(simulated, str(tmp_path)) as cluster:
        narrowed = run_optimized(cluster, "sockets")
        plain = run_optimized(
            cluster, "sockets", OptimizationOptions(aware_group_reduction=False)
        )
        # A straggler in the narrowed round: its speculative backup is cut
        # the fragment its primary was (the sets are per site name).
        cluster.install_faults(
            FaultPlan.stragglers(cluster.site_ids, seed=3, delay_s=0.8, rounds=(2,))
        )
        try:
            raced = run_optimized(
                cluster, "sockets", speculation=True, speculation_factor=2.0
            )
        finally:
            cluster.install_faults(None)

    assert narrowed.relation.rows == oracle.relation.rows == plain.relation.rows
    stats = narrowed.stats
    assert (stats.bytes_down, stats.bytes_up) == (
        oracle.stats.bytes_down, oracle.stats.bytes_up,
    )
    assert stats.socket_bytes_down == stats.bytes_down
    assert stats.socket_bytes_up == stats.bytes_up
    assert stats.socket_parity() and plain.stats.socket_parity()
    assert stats.rounds[1].bytes_down < plain.stats.rounds[1].bytes_down
    # Narrowed, a site answers every row it was shipped: its reply needs no
    # row addresses.
    assert stats.rounds[1].bytes_up <= plain.stats.rounds[1].bytes_up
    for site_id in simulated.site_ids:
        assert (
            stats.rounds[1].sites[site_id].tuples_down
            == stats.rounds[0].sites[site_id].tuples_up
        )

    assert raced.relation.rows == oracle.relation.rows
    assert raced.stats.speculative_legs == 1 and raced.stats.speculation_wins == 1
    assert raced.stats.socket_parity()
    for site_id in simulated.site_ids:
        assert (
            raced.stats.rounds[1].sites[site_id].tuples_down
            == stats.rounds[1].sites[site_id].tuples_down
        )


# ---------------------------------------------------------------------------
# Kill-and-rejoin (the acceptance scenario) — keep last: it restarts a site
# ---------------------------------------------------------------------------


def test_killed_site_is_excluded_and_rejoins_from_disk(sim_cluster, deployed):
    expression = correlated_expression()
    clean = run_query(sim_cluster, expression, "serial")
    victim = deployed.site_ids[1]

    before = run_query(deployed, expression, "sockets")
    assert before.relation.rows == clean.relation.rows

    deployed.kill_site(victim)
    degraded = run_query(
        deployed, expression, "sockets",
        failure_mode="degrade", max_retries=1,
    )
    assert degraded.stats.degraded
    assert {site for _round, site in degraded.stats.excluded_sites} == {victim}
    assert degraded.relation.rows != clean.relation.rows

    deployed.restart_site(victim)
    healed = run_query(
        deployed, expression, "sockets",
        failure_mode="retry", max_retries=2,
    )
    # The restarted site answered from its on-disk partition: exact again.
    assert healed.relation.rows == clean.relation.rows
    assert healed.stats.excluded_sites == ()
