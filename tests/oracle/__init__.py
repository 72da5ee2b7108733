"""Test oracles that live beside the suite, not on the production path.

:mod:`oracle.scan` is the row GMDJ scan the vector scan must match by
``repr``; ``row_scan()`` swaps it in for the production one.
:mod:`oracle.codec` is format v1, the row codec the wire format v3 is
diffed against. :mod:`oracle.keys` is the ``dict`` key path the
``int64`` composite keys must match; ``keys.dict_keys()`` sends the
production code down it. :mod:`oracle.order` is the per-row ``repr``
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
