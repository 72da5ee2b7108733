"""Micro-benchmarks of the engine substrates.

Not a paper figure — these time the building blocks (hash GMDJ scan,
super-aggregation, wire codec, SQL group-by) so engine regressions are
visible independently of the distributed experiments. These use
pytest-benchmark's normal repeated timing, unlike the single-shot
figure reproductions.
"""

import pytest

from repro.data.tpcr import TPCRConfig, generate_tpcr
from repro.gmdj.blocks import MDBlock
from repro.gmdj.operator import evaluate, evaluate_sub, super_aggregate
from repro.net.serialize import CODECS, decode_relation, encode_relation
from repro.relalg.aggregates import AggSpec, count_star
from repro.relalg.expressions import base, detail
from repro.relalg.operators import group_by

TPCR = generate_tpcr(TPCRConfig(scale=0.002, seed=12))
BASE = TPCR.distinct_project(["CustKey"])
BLOCKS = [
    MDBlock(
        [count_star("cnt"), AggSpec("avg", detail.Price, "avg_price")],
        base.CustKey == detail.CustKey,
    )
]


def test_gmdj_hash_scan(benchmark):
    result = benchmark(evaluate, BASE, TPCR, BLOCKS)
    assert len(result) == len(BASE)


def test_gmdj_sub_aggregation(benchmark):
    result, _touched = benchmark(evaluate_sub, BASE, TPCR, BLOCKS)
    assert len(result) == len(BASE)


def test_super_aggregation(benchmark):
    h, _touched = evaluate_sub(BASE, TPCR, BLOCKS)
    result = benchmark(super_aggregate, BASE, h, ["CustKey"], BLOCKS)
    assert len(result) == len(BASE)


def test_sql_group_by(benchmark):
    result = benchmark(
        group_by,
        TPCR,
        ["CustKey"],
        [count_star("cnt"), AggSpec("avg", detail.Price, "avg_price")],
    )
    assert len(result) == len(BASE)


@pytest.mark.parametrize("codec", CODECS)
def test_codec_encode(benchmark, codec):
    payload = benchmark(encode_relation, TPCR, codec)
    assert len(payload) > 0


@pytest.mark.parametrize("codec", CODECS)
def test_codec_decode(benchmark, codec):
    payload = encode_relation(TPCR, codec)
    result = benchmark(decode_relation, payload)
    assert len(result) == len(TPCR)


def test_codec_encode_reference(benchmark):
    """The straight-line row encoder, kept as the differential baseline.

    Benchmarked next to ``test_codec_encode[row]`` so the before/after
    rows/s of the compiled encode plan stays visible in every run.
    """
    from repro.net.serialize import _encode_relation_reference

    payload = benchmark(_encode_relation_reference, TPCR)
    assert payload == encode_relation(TPCR, "row")


def test_codec_decode_reference(benchmark):
    """The straight-line row decoder (partner of ``test_codec_decode[row]``)."""
    from repro.net.serialize import _decode_relation_reference

    payload = encode_relation(TPCR, "row")
    result = benchmark(_decode_relation_reference, payload)
    assert result.rows == decode_relation(payload).rows
