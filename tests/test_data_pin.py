"""The generated data sets, and their partitions, pinned to the byte.

Each digest is the SHA-256 of an encoding of a generator's output or of
one site's partition of it, by two codecs:

- the *reference* digests encode with the row codec of
  ``tests/oracle/codec.py`` (format v1), which writes every value in one
  fixed form: they pin the data — each value, NULL and row order — and
  no block form of the wire format, so a new block form leaves them be;
- the *v3* digests encode with :func:`repro.net.serialize.encode_relation`,
  which also writes each column's block kind: they pin the bytes the wire
  format ships for that data.

A change to how the generators or the partitioners build their columns
that moves a value or a row order fails both; a change of the wire
format's block forms fails the v3 digests alone.
"""

import hashlib

import pytest

from oracle import encode_relation_reference
from repro.data.flows import FlowConfig, generate_flows, router_partitioner
from repro.data.tpcr import TPCRConfig, generate_tpcr, nation_partitioner
from repro.net import serialize

TPCR_SCALE = 0.0005  # 3 000 rows
FLOW_COUNT = 2_000
SITES = 3

TPCR_DIGESTS = {
    7: "2d0281b1802b5fcf4fc838bb474ea78a9404d2e7e24047a98dbf8b6b81241f59",
    101: "dea6e294bc8f08a9c43e033ab9253d06f41f1bc4ed08e561354414cf4c9e9754",
}
TPCR_SITE_DIGESTS = {
    7: [
        "0c13382d460d63809097da4df1e8282f4fc92f7f8f92d32c14fbc28ec5024cbc",
        "2dec4ceb9a9dc9d9a282581f0ee0b3eba9dbcf3768a6f3c6a9daea4e01fd63fe",
        "49b67ff81b962907b0efa9747224db50d9aa682b68322cd8bd8605c955cf112e",
    ],
    101: [
        "80b7576a4ef1027aa1601c470b6720bdec90b4d5f1e4d716cf8c0f4042cb9ba0",
        "eecdbd6dd28cdb27559d533bdabfff9a6a44386319aed2fe272020bb04c60a47",
        "156e99f5798ae20afdd16c3a19095de6715d0350a723b0dcb5c5108d93ea0a03",
    ],
}
FLOW_DIGESTS = {
    11: "eeb77a4630e2b0c22fd7d79988e3155a22752b4f33b997508033927bf6fb88fc",
    101: "80204687d65327c10a3653d180692686627bd5c484a7326d32cd78f22c648c3b",
}
FLOW_SITE_DIGESTS = {
    11: [
        "f81aace62d811de3a134d2cf04654ab3423e9cb3ff3896dbce8a566cfdac7cb5",
        "8faf9d2b3754248821697ffd3ee08ab4f399ad6c24656e3e928c973f2be7e3e7",
        "e78f661a787ce4807a7df34b0cadc197216e5b03afaa1abe25ed7229735e8be0",
    ],
    101: [
        "83e5064986218482160058db338b5f3964c9d9ee1a50cf1df7d0df7872bd0ae4",
        "cb0991f9f29ab9cb6597463f44c7c07cea682bc600e8c614a649d84530caad0a",
        "b20b6c03f463372498e09cdf25d366e7cd5ff96eaed79a31c59c6609299d8016",
    ],
}


TPCR_REFERENCE_DIGESTS = {
    7: "82d7b5af3ac117be0777df7bac9c9a32cfff922436d4955886e67ee82d5bf242",
    101: "c35b402a357fcc27eab04ec9173011fd4d9841bc2b06800730ef98ca232ef988",
}
TPCR_SITE_REFERENCE_DIGESTS = {
    7: [
        "780a0eea145237599965af70c071a5cb225a8c3b989c1f3a486529c25768e909",
        "4abba95eee81aa574db65a45ffad6b1d05ede149a51cdcfbbcc0af551a674e5f",
        "ce27dcaec6ec4758b65f15a92f7e015ba8217ceddab862af4852b4c72eb06689",
    ],
    101: [
        "9a7fcc107d05717e22902de39cc71786e39065de34917ee73852f3407985fd66",
        "1c483d7b0859a8a74f823ae8b5aa68ba9fbd9d796b0c9da7e1e3189c428e1beb",
        "eb575307fc15a9ef4d8af36d8155f0d47a7da1766098977c0f8326a651c5a079",
    ],
}
FLOW_REFERENCE_DIGESTS = {
    11: "2da9a140b860d9b0892c98f6a35fd8bcee937cb80ef0955eb185823f2847c757",
    101: "8b7fe9b222d917094225fa4eedba455d738542e648d3adc89506ac284a8b8704",
}
FLOW_SITE_REFERENCE_DIGESTS = {
    11: [
        "53ea644e9b07ffc0d500e9b2ef9abf3373a76bf7ff6855cb24275676ccb5bd6b",
        "d23c5f5f56d2e4736b2fff63da8a0bba46b1c072ea9b062450b2f309266081e5",
        "f2ef1e7e71462db1fb765911f5f9f538926a5732eb4d0c0fb4ee926c91ff6529",
    ],
    101: [
        "bf4ad19d6292baa69e1fc0128f221a47c819e4be0dd3fea511230a3b9fde2a28",
        "c6fb6a059e42b064836c922858fdffcdd19adfd05b55f3e9430a2e06069ad127",
        "2a58c1a98070a4a6f13873d9debadeaca0953865b3929742adcf832ed9bf8750",
    ],
}


def _digest(relation, encode=serialize.encode_relation) -> str:
    return hashlib.sha256(encode(relation)).hexdigest()


def _reference_digest(relation) -> str:
    return _digest(relation, encode_relation_reference)


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


@pytest.mark.parametrize("seed", sorted(TPCR_REFERENCE_DIGESTS))
def test_tpcr_and_its_nation_partitions_hold_the_pinned_values(seed):
    tpcr = generate_tpcr(TPCRConfig(scale=TPCR_SCALE, seed=seed))
    assert _reference_digest(tpcr) == TPCR_REFERENCE_DIGESTS[seed]
    parts = nation_partitioner(SITES).split(tpcr)
    assert [_reference_digest(part) for part in parts] == TPCR_SITE_REFERENCE_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(FLOW_REFERENCE_DIGESTS))
def test_flows_and_their_router_partitions_hold_the_pinned_values(seed):
    config = FlowConfig(flow_count=FLOW_COUNT, router_count=SITES, seed=seed)
    flows = generate_flows(config)
    assert _reference_digest(flows) == FLOW_REFERENCE_DIGESTS[seed]
    parts = router_partitioner(config).split(flows)
    assert [_reference_digest(part) for part in parts] == FLOW_SITE_REFERENCE_DIGESTS[seed]
