"""Local data warehouses: the per-site storage engine.

Each Skalla site is "adjacent" to a collection point and stores its
partition of every fact relation (Section 2.1). A
:class:`LocalWarehouse` is a named-table store capable of the local
operations Alg. GMDJDistribEval requires — scans, distinct projections
and GMDJ evaluation — via the ``repro.relalg`` / ``repro.gmdj`` engines.

Each table keeps its *append log*: an append adds its rows as a part
tagged with the version it produced and copies nothing, so it costs
O(|Δ|). The parts are concatenated onto the held relation once, on the
next full read (:meth:`LocalWarehouse.table`), and the log keeps only
where each version's rows end — so :meth:`LocalWarehouse.appended_since`
can hand an incremental refresh the rows after any version since the
table was registered, and a delta relation is not kept past that read.
"""

from __future__ import annotations

import threading
from typing import Iterator, Mapping, Optional

from repro.errors import SchemaError, WarehouseError
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema


class LocalWarehouse:
    """A named collection of relations held by one site (or coordinator)."""

    def __init__(self, name: str = "warehouse", tables: Optional[Mapping[str, Relation]] = None):
        self.name = name
        #: The relation each table had at its last full read.
        self._tables: dict = {}
        #: Per table, the parts appended since that read, in order.
        self._parts: dict = {}
        #: Per table, each version since its last register with the row
        #: count it left: ``[(version, rows), ...]``, consecutive versions.
        self._log: dict = {}
        #: Monotonic per-table data version, bumped by every mutation
        #: (register/append/drop). Never reset — a dropped-and-reloaded
        #: table keeps counting, so stale cached plans can never collide
        #: with a same-numbered later state.
        self._versions: dict = {}
        self._lock = threading.Lock()
        if tables:
            for table_name, relation in tables.items():
                self.register(table_name, relation)

    def register(self, table_name: str, relation: Relation) -> None:
        """Add or replace a table."""
        if not isinstance(relation, Relation):
            raise WarehouseError(f"expected Relation for {table_name!r}, got {relation!r}")
        with self._lock:
            version = self._bump(table_name)
            self._tables[table_name] = relation
            self._parts[table_name] = []
            self._log[table_name] = [(version, len(relation))]

    def append(self, table_name: str, relation: Relation) -> None:
        """Append rows to an existing table (same schema required).

        The rows join the table's append log as one part; nothing already
        held is copied.
        """
        with self._lock:
            held = self._held(table_name)
            if relation.schema != held.schema:
                raise SchemaError(
                    f"{self.name}: append to {table_name!r} has schema "
                    f"{relation.schema!r}, table has {held.schema!r}"
                )
            log = self._log[table_name]
            version = self._bump(table_name)
            self._parts[table_name].append(relation)
            log.append((version, log[-1][1] + len(relation)))

    def drop(self, table_name: str) -> None:
        with self._lock:
            try:
                del self._tables[table_name]
            except KeyError:
                raise WarehouseError(f"{self.name}: unknown table {table_name!r}") from None
            del self._parts[table_name], self._log[table_name]
            self._bump(table_name)

    def _bump(self, table_name: str) -> int:
        version = self._versions[table_name] = self._versions.get(table_name, 0) + 1
        return version

    def version(self, table_name: str) -> int:
        """The table's data version (0 = never held).

        Every mutation — :meth:`register`, :meth:`append`, :meth:`drop` —
        increments it, so equal versions imply identical table contents
        within one process. The query service keys its result cache on
        these (per site) to decide hit / refresh-upgrade / miss.
        """
        return self._versions.get(table_name, 0)

    def _held(self, table_name: str) -> Relation:
        try:
            return self._tables[table_name]
        except KeyError:
            raise WarehouseError(
                f"{self.name}: unknown table {table_name!r}; "
                f"have {sorted(self._tables)}"
            ) from None

    def table(self, table_name: str) -> Relation:
        """The whole table: pending appended parts are concatenated onto
        the held relation here, once, under the lock."""
        if not self._parts.get(table_name):
            return self._held(table_name)
        with self._lock:
            parts = self._parts[table_name]
            if parts:
                self._tables[table_name] = self._tables[table_name].union_all(*parts)
                parts.clear()
            return self._tables[table_name]

    def appended_since(self, table_name: str, version: int) -> Optional[Relation]:
        """The rows appended after ``version``, in order, or ``None`` when a
        :meth:`register` or :meth:`drop` came after it (nothing it held is
        known to be still there). O(rows returned); nothing is concatenated
        onto the held relation."""
        with self._lock:
            log = self._log.get(table_name)
            if log is None or not log[0][0] <= version <= log[-1][0]:
                return None
            start = log[version - log[0][0]][1]
            held, parts = self._tables[table_name], list(self._parts[table_name])
        if start < len(held):
            parts.insert(0, held.tail(start))
        else:
            # Parts split at version ends: drop the ones before ``start``.
            skipped = len(held)
            while skipped < start:
                skipped += len(parts.pop(0))
        if not parts:
            return Relation.empty(held.schema)
        return parts[0].union_all(*parts[1:])

    def schema(self, table_name: str) -> Schema:
        return self._held(table_name).schema

    def has_table(self, table_name: str) -> bool:
        return table_name in self._tables

    def table_names(self) -> tuple:
        return tuple(sorted(self._tables))

    def tables(self) -> Mapping[str, Relation]:
        """Read-only view of all tables (for centralized evaluation)."""
        return {table_name: self.table(table_name) for table_name in self.table_names()}

    def row_count(self, table_name: str) -> int:
        self._held(table_name)
        return self._log[table_name][-1][1]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._tables))

    def __repr__(self):
        inner = ", ".join(
            f"{name}({self.row_count(name)})" for name in self.table_names()
        )
        return f"LocalWarehouse({self.name!r}: {inner})"

