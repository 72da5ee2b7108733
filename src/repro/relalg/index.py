"""Hash indexes over relations.

The coordinator's base-result structure is "indexed on K, which allows us
to efficiently determine RNG(X, t, θ_K) for any tuple t in H" (Section
3.2 of the paper) — :class:`HashIndex` is that structure. It maps a tuple
of key-attribute values to the list of row positions holding that key.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.relalg.relation import Relation


class HashIndex:
    """A hash index from key-attribute values to row positions."""

    __slots__ = ("key_names", "_positions", "_buckets")

    def __init__(self, relation: Relation, key_names: Sequence[str]):
        self.key_names = tuple(key_names)
        self._positions = relation.schema.positions(self.key_names)
        self._buckets: dict = {}
        # Build from the key columns only: the columnar view transposes just
        # the attributes indexed here, and zipping those vectors avoids
        # re-indexing into every full row tuple.
        value_lists = relation.to_columnar().value_lists()
        key_columns = [value_lists[position] for position in self._positions]
        setdefault = self._buckets.setdefault
        for row_index, key in enumerate(zip(*key_columns)):
            setdefault(key, []).append(row_index)
        if not key_columns:
            for row_index in range(len(relation.rows)):
                setdefault((), []).append(row_index)

    def key_of(self, row: tuple) -> tuple:
        """Extract this index's key from a row of the indexed relation."""
        return tuple(row[position] for position in self._positions)

    def lookup(self, key: tuple) -> list:
        """Row positions matching ``key`` (empty list when absent)."""
        return self._buckets.get(key, [])

    def __contains__(self, key: tuple) -> bool:
        return key in self._buckets

    def __len__(self) -> int:
        return len(self._buckets)

    def keys(self) -> Iterator[tuple]:
        return iter(self._buckets)

    @property
    def is_unique(self) -> bool:
        """True when no key maps to more than one row (K is a key)."""
        return all(len(rows) == 1 for rows in self._buckets.values())
