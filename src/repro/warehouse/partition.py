"""Partitioners: how a conceptual fact relation is split across sites.

In the paper, data is partitioned by collection point (RouterId for
flows, NationKey for the TPC-R experiments). A :class:`Partitioner` is a
function of a relation's columns: :meth:`Partitioner.assign` gives every
row's site as one array, and :meth:`Partitioner.split` gathers each
site's rows from the columns, building no row tuple. When possible a
partitioner also *describes* the distribution so the catalog can exploit
it:

- :meth:`Partitioner.site_predicate` returns φᵢ, a predicate every row at
  site *i* satisfies (Theorem 4's hypothesis), or ``None`` when the
  assignment is not expressible as a simple predicate;
- :meth:`Partitioner.partition_attributes` returns attributes satisfying
  Definition 2 (value sets disjoint across sites), which is all Corollary
  1 needs — note a hash partitioner has a partition attribute but no
  analyzable φᵢ.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import WarehouseError
from repro.relalg.columnar import as_list, held_column
from repro.relalg.expressions import Expr, Field, DETAIL_VAR
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema


class Partitioner:
    """Assigns rows of a relation to ``site_count`` sites."""

    def __init__(self, site_count: int):
        if site_count < 1:
            raise WarehouseError(f"need at least one site, got {site_count}")
        self.site_count = site_count

    def assign(self, relation: Relation) -> np.ndarray:
        """Each row's site index, in ``range(site_count)``, in row order."""
        raise NotImplementedError

    def site_predicate(self, site_index: int, schema: Schema) -> Optional[Expr]:
        """φᵢ over detail fields, or ``None`` when not expressible."""
        return None

    def partition_attributes(self) -> tuple:
        """Attributes with disjoint per-site value sets (Definition 2)."""
        return ()

    def split(self, relation: Relation) -> list:
        """Partition a relation into ``site_count`` relations: each row's
        site, then each site's rows gathered from the columns."""
        sites = self.assign(relation)
        wrong = (sites < 0) | (sites >= self.site_count)
        if wrong.any():
            raise WarehouseError(
                f"partitioner assigned site {sites[wrong][0]}, valid range is "
                f"0..{self.site_count - 1}"
            )
        schema, positions = relation.schema, range(len(relation.schema))
        partitions = []
        for index in range(self.site_count):
            rows = np.flatnonzero(sites == index)
            # A site's rows may meet the typed rule where the whole did not
            # (its NULLs went elsewhere): hold them as a site server would.
            columns = [
                held_column(column, attribute.type)
                for column, attribute in zip(relation.take(positions, rows), schema.attributes)
            ]
            partitions.append(Relation.of_columns(schema, columns, len(rows)))
        return partitions


class ValueListPartitioner(Partitioner):
    """Explicit value -> site mapping on one attribute.

    This is the paper's NationKey partitioning: each attribute value is
    pinned to one site, and φᵢ is ``attr IN (values at site i)``.
    """

    def __init__(self, attribute: str, assignment: dict, site_count: int):
        super().__init__(site_count)
        self.attribute = attribute
        self.assignment = dict(assignment)
        for value, site in self.assignment.items():
            if not 0 <= site < site_count:
                raise WarehouseError(
                    f"value {value!r} assigned to invalid site {site}"
                )

    @classmethod
    def spread(cls, attribute: str, values: Sequence, site_count: int) -> "ValueListPartitioner":
        """Deal values round-robin across sites (the paper's equal split)."""
        assignment = {value: index % site_count for index, value in enumerate(sorted(values))}
        return cls(attribute, assignment, site_count)

    def assign(self, relation):
        """One lookup per distinct value, keys equal as ``dict`` keys are
        (the relation's cached factorization of the attribute), then a
        gather by each row's code."""
        position = (relation.schema.position(self.attribute),)
        firsts, codes = relation.codes(position)
        sites = []
        for value in as_list(relation.take(position, firsts)[0]):
            site = self.assignment.get(value)
            if site is None:
                raise WarehouseError(
                    f"value {value!r} of {self.attribute!r} has no assigned site"
                )
            sites.append(site)
        return np.array(sites, dtype=np.int64)[codes]

    def site_predicate(self, site_index, schema):
        values = frozenset(
            value for value, site in self.assignment.items() if site == site_index
        )
        return Field(self.attribute, DETAIL_VAR).is_in(values)

    def partition_attributes(self):
        return (self.attribute,)

    def values_at_site(self, site_index: int) -> frozenset:
        return frozenset(
            value for value, site in self.assignment.items() if site == site_index
        )


class RangePartitioner(Partitioner):
    """Contiguous ranges of one numeric attribute.

    ``boundaries`` are the inclusive upper bounds of all but the last
    site: with boundaries ``[25, 50]`` and 3 sites, site 0 holds values
    ``<= 25``, site 1 holds ``(25, 50]``, site 2 the rest.
    """

    def __init__(self, attribute: str, boundaries: Sequence, site_count: int):
        super().__init__(site_count)
        boundaries = list(boundaries)
        if len(boundaries) != site_count - 1:
            raise WarehouseError(
                f"{site_count} sites need {site_count - 1} boundaries, got {len(boundaries)}"
            )
        if boundaries != sorted(boundaries):
            raise WarehouseError("range boundaries must be sorted")
        self.attribute = attribute
        self.boundaries = boundaries

    def assign(self, relation):
        """The first boundary at or above each value, by one binary search.
        NULL and NaN satisfy no φᵢ, so they are refused."""
        data, valid = relation.typed(relation.schema.position(self.attribute))
        if valid is not None and not valid.all():
            raise WarehouseError(f"NULL {self.attribute!r} cannot be range-partitioned")
        if (data != data).any():  # NaN, the one value unequal to itself
            raise WarehouseError(f"NaN {self.attribute!r} cannot be range-partitioned")
        boundaries = np.array(self.boundaries, dtype=object if data.dtype == object else None)
        return np.searchsorted(boundaries, data, side="left")

    def site_predicate(self, site_index, schema):
        field = Field(self.attribute, DETAIL_VAR)
        if site_index == 0:
            return field <= self.boundaries[0]
        if site_index == self.site_count - 1:
            return field > self.boundaries[-1]
        return (field > self.boundaries[site_index - 1]) & (
            field <= self.boundaries[site_index]
        )

    def partition_attributes(self):
        return (self.attribute,)


class HashPartitioner(Partitioner):
    """Deterministic hash of one or more attributes.

    The hashed attributes are partition attributes (each value lands on
    exactly one site) but φᵢ is not expressible as a simple predicate, so
    distribution-aware reduction cannot fire — only Corollary 1 can.
    """

    def __init__(self, attributes: Sequence[str], site_count: int):
        super().__init__(site_count)
        self.attributes = tuple(attributes)
        if not self.attributes:
            raise WarehouseError("hash partitioner needs at least one attribute")

    def assign(self, relation):
        """The hash of each row's key values' ``repr``s, once per distinct
        text: ``1``, ``1.0`` and ``True`` hash apart."""
        columns = [relation.values(position) for position in relation.schema.positions(self.attributes)]
        texts = list(map("".join, zip(*[map(repr, column) for column in columns])))
        site_of = {text: _stable_hash(text) % self.site_count for text in dict.fromkeys(texts)}
        return np.fromiter(map(site_of.__getitem__, texts), dtype=np.int64, count=len(texts))

    def partition_attributes(self):
        # A combination of attributes is a partition "attribute" only when
        # it is a single attribute; multi-attribute hashes guarantee
        # disjointness of the *tuple*, not of each attribute.
        return self.attributes if len(self.attributes) == 1 else ()


class RoundRobinPartitioner(Partitioner):
    """Row-order striping: no distribution knowledge at all.

    The worst case for Skalla's optimizations — every group can live on
    every site — used as the "no knowledge" baseline in tests.
    """

    def assign(self, relation):
        return np.arange(len(relation)) % self.site_count


def _stable_hash(text: str) -> int:
    """A process-independent hash (Python's ``hash`` is salted for str):
    FNV-1a over the UTF-8 bytes of ``text``."""
    result = 1469598103934665603  # FNV-1a offset basis
    for byte in text.encode("utf-8"):
        result ^= byte
        result = (result * 1099511628211) % (1 << 64)
    return result
