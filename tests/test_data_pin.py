"""The generated data sets, and their partitions, pinned to the byte.

Each digest is the SHA-256 of :func:`repro.net.serialize.encode_relation`
over a generator's output or over one site's partition of it. The column
codec writes each value's type and each column's block kind, so a change
to how the generators or the partitioners build their columns that moves
a value, a type or a row order fails here.
"""

import hashlib

import pytest

from repro.data.flows import FlowConfig, generate_flows, router_partitioner
from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner
from repro.net import serialize

TPCR_SCALE = 0.0005  # 3 000 rows
FLOW_COUNT = 2_000
SITES = 3

TPCR_DIGESTS = {
    7: "4488c2833f363ac6d5cd8d6a753e9ae467d316027f8bd9851c8e37b83bd2dd42",
    101: "e99b0239acc8995f2aab35b91c87a4b702f96be461998048e8d8e5051bdf64c0",
}
TPCR_SITE_DIGESTS = {
    7: [
        "3a75dc8f60e811b854b829737983f24172eba77727cf507266ab26f296b94e33",
        "b6419ae3af0085b500572e643067afb0a596f26c4b9b3cec1c1a704a9b3e1bdd",
        "db936bb080248ee5ab2fd270a660bfe056bac9a1df37d47a3a55b0849ade1e42",
    ],
    101: [
        "58033eaf5666388873df05ded0a813ef3e1e56b25eaac270b3ee5bb316370291",
        "f726f9b2e056c6800a2d4d878c0d2477f410ce59d5f80b60a2c56aa01da58814",
        "cefc440bc1a4357fce449b13abc32679e1146e4d87b671fb7700fe110a6ff45d",
    ],
}
FLOW_DIGESTS = {
    11: "df2106280a7b191ccd3277f3d313a80f3c633e719bc347799fc3c70767e7a505",
    101: "507d0bb053de89ec7f17f93b7768828650693a6cf5008cd18c7a63c4c08b23db",
}
FLOW_SITE_DIGESTS = {
    11: [
        "ee5950804d7c8c45b4e4550f78b23e2e4d6112af78163898170f8a5afdb6f49b",
        "e406eac3051b2e2dbd644ed09560fad9a636a525ddcf3fd8eea84165dcb1ddd3",
        "96bfec40523d58d93dfd39468d71f440aad21db0bdd1c67123514164e65e7fc8",
    ],
    101: [
        "55b06664b62a3fd80e033945886162efe05f363aaa24b30e23b2969a2b4f1fbd",
        "6894eeb9b005af297fd1631e35f930a0a0ab8785ff7e51ce7c13ee47c0ffde53",
        "1507db4c6fd84fecc98875f6530bc18800b87b1b96e9eca349f70beddc1b0a9a",
    ],
}


def _digest(relation) -> str:
    return hashlib.sha256(serialize.encode_relation(relation)).hexdigest()


@pytest.mark.parametrize("seed", sorted(TPCR_DIGESTS))
def test_tpcr_and_its_nation_partitions_are_pinned(seed):
    tpcr = generate_tpcr(TPCRConfig(scale=TPCR_SCALE, seed=seed))
    assert len(tpcr) == 3_000
    assert _digest(tpcr) == TPCR_DIGESTS[seed]
    parts = nation_partitioner(SITES).split(tpcr)
    assert [_digest(part) for part in parts] == TPCR_SITE_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(FLOW_DIGESTS))
def test_flows_and_their_router_partitions_are_pinned(seed):
    config = FlowConfig(flow_count=FLOW_COUNT, router_count=SITES, seed=seed)
    flows = generate_flows(config)
    assert len(flows) == FLOW_COUNT
    assert _digest(flows) == FLOW_DIGESTS[seed]
    parts = router_partitioner(config).split(flows)
    assert [_digest(part) for part in parts] == FLOW_SITE_DIGESTS[seed]
