"""Test oracles that live beside the suite, not on the production path.

:mod:`oracle.scan` is the row GMDJ scan the vector scan must match by
``repr``; ``row_scan()`` swaps it in for the production one.
:mod:`oracle.codec` is format v1, the row codec the wire format v3 is
diffed against. :mod:`oracle.keys` holds the ``dict`` key mechanisms
that both implementations of the one key interface
(``columnar.KeyMatcher``) must match; ``keys.dict_keys()`` makes its
selector pick the ``dict``. :mod:`oracle.order` is the per-row ``repr``
sort the service's column sort of served rows must match.
"""

from oracle.codec import FORMATS, decode_relation_reference, encode_relation_reference
from oracle.order import canonical_order_reference
from oracle.scan import accumulate, row_scan

__all__ = [
    "FORMATS",
    "accumulate",
    "canonical_order_reference",
    "decode_relation_reference",
    "encode_relation_reference",
    "row_scan",
]
