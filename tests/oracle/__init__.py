"""Test oracles that live beside the suite, not on the production path.

:mod:`oracle.interp` is the expression interpreter, the reference
semantics both lowerings of ``repro.relalg.compiler`` must match.
:mod:`oracle.accumulate` holds the per-group row accumulators the column
folds are checked against, and :mod:`oracle.algebra` the joins and SQL
``GROUP BY`` that GMDJ answers are compared with. :mod:`oracle.scan` is
the row GMDJ scan the vector scan must match by ``repr``; ``row_scan()``
swaps it in for the production one. :mod:`oracle.codec` is format v1,
the row codec the wire format v3 is diffed against. :mod:`oracle.keys`
holds the ``dict`` key mechanisms that both implementations of the one
key interface (``columnar.KeyMatcher``) must match; ``keys.dict_keys()``
makes its selector pick the ``dict``. :mod:`oracle.order` is the per-row
``repr`` sort the service's column sort of served rows must match.
:mod:`oracle.partition` places rows one at a time, the rule every
partitioner's column-wise ``assign`` must match.
"""

from oracle.codec import FORMATS, decode_relation_reference, encode_relation_reference
from oracle.order import canonical_order_reference
from oracle.scan import row_scan

__all__ = [
    "FORMATS",
    "canonical_order_reference",
    "decode_relation_reference",
    "encode_relation_reference",
    "row_scan",
]
