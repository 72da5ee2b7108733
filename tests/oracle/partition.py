"""The per-row partitioners: what each column-wise ``Partitioner.assign``
must equal.

A partitioner used to place one row at a time: it read the row's value
(or key tuple), looked it up, compared it or hashed it, and
``Partitioner.split`` built every row to ask. :func:`assign` keeps that
rule per partitioner class, and :func:`split` the rows per site it makes,
in row order. The one change from the old rule is the range
partitioner's refusal of NaN, which satisfies no site's φᵢ.
"""

from __future__ import annotations

import math

from repro.errors import WarehouseError
from repro.warehouse.partition import (
    HashPartitioner,
    RangePartitioner,
    RoundRobinPartitioner,
    ValueListPartitioner,
)


def _value_list(partitioner, index, row, schema) -> int:
    value = row[schema.position(partitioner.attribute)]
    try:
        return partitioner.assignment[value]
    except KeyError:
        raise WarehouseError(
            f"value {value!r} of {partitioner.attribute!r} has no assigned site"
        ) from None


def _range(partitioner, index, row, schema) -> int:
    value = row[schema.position(partitioner.attribute)]
    if value is None:
        raise WarehouseError(f"NULL {partitioner.attribute!r} cannot be range-partitioned")
    if isinstance(value, float) and math.isnan(value):
        raise WarehouseError(f"NaN {partitioner.attribute!r} cannot be range-partitioned")
    for site, bound in enumerate(partitioner.boundaries):
        if value <= bound:
            return site
    return partitioner.site_count - 1


def stable_hash(key: tuple) -> int:
    """FNV-1a over the UTF-8 bytes of each key value's ``repr``, in order."""
    result = 1469598103934665603  # FNV-1a offset basis
    for part in key:
        for byte in repr(part).encode("utf-8"):
            result ^= byte
            result = (result * 1099511628211) % (1 << 64)
    return result


def _hash(partitioner, index, row, schema) -> int:
    key = tuple(row[schema.position(name)] for name in partitioner.attributes)
    return stable_hash(key) % partitioner.site_count


def _round_robin(partitioner, index, row, schema) -> int:
    return index % partitioner.site_count


_RULES = {
    ValueListPartitioner: _value_list,
    RangePartitioner: _range,
    HashPartitioner: _hash,
    RoundRobinPartitioner: _round_robin,
}


def assign(partitioner, index: int, row: tuple, schema) -> int:
    """The site of row ``index`` (``row``) under ``partitioner``."""
    return _RULES[type(partitioner)](partitioner, index, row, schema)


def split(partitioner, relation) -> list:
    """Each site's rows, in row order, placed one row at a time."""
    sites = [
        assign(partitioner, index, row, relation.schema)
        for index, row in enumerate(relation.rows)
    ]
    return [
        [row for row, site in zip(relation.rows, sites) if site == index]
        for index in range(partitioner.site_count)
    ]
