"""Canonical plan signatures: the result cache's key space.

A cached result may be served only while three things are unchanged:

1. **what** is asked — the expression's *canonical* fingerprint
   (:meth:`~repro.gmdj.expression.GMDJExpression.fingerprint`), so two
   queries differing only commutatively (AND/OR operand order,
   comparison orientation) share one cache slot;
2. **how** it would be planned — the distribution catalog's fingerprint
   (:meth:`~repro.warehouse.catalog.DistributionCatalog.fingerprint`);
   a new FD or harvested value predicate can change the plan, so it must
   open a fresh slot;
3. **over which data** — the per-(table, site) warehouse versions of
   every table the expression reads.

The first two components match exactly or the entry is unrelated. The
data component is where the service earns its keep: when only the data
versions moved *forward* (append-only growth), the entry is a candidate
for a refresh *upgrade* via the retained sub-aggregate state instead of
a plain miss — :meth:`PlanSignature.version_gaps` computes which
(table, site) pairs moved. The service refreshes when only the view's
detail table did; the refresh round reads the rows each site appended
since, from the site's own append log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.gmdj.expression import GMDJExpression


@dataclass(frozen=True)
class PlanSignature:
    """Hashable identity of one (query, catalog, data) combination."""

    expression_fp: str
    catalog_fp: str
    #: ``((table, site, version), ...)`` — sorted by table, then cluster
    #: site order (see ``SimulatedCluster.data_versions``).
    data_versions: tuple

    @classmethod
    def compute(cls, cluster, expression: GMDJExpression) -> "PlanSignature":
        """The signature this query has against the cluster *right now*."""
        tables = set(expression.detail_tables())
        base_table = expression.base_source.table_name
        if base_table is not None:
            tables.add(base_table)
        return cls(
            expression_fp=expression.fingerprint(),
            catalog_fp=cluster.catalog.fingerprint(),
            data_versions=cluster.data_versions(sorted(tables)),
        )

    @property
    def plan_key(self) -> tuple:
        """The data-independent part: same query against same catalog."""
        return (self.expression_fp, self.catalog_fp)

    def version_gaps(self, current: "PlanSignature") -> Optional[tuple]:
        """Per-(table, site) version ranges separating ``self`` from ``current``.

        Returns ``((table, site, old_version, new_version), ...)`` for
        every pair whose version moved, or ``None`` when the two
        signatures are not upgrade-comparable: different plan key,
        different table/site coverage, or any version that moved
        *backwards* (a drop/re-register is never an append).
        """
        if self.plan_key != current.plan_key:
            return None
        if len(self.data_versions) != len(current.data_versions):
            return None
        gaps = []
        for old, new in zip(self.data_versions, current.data_versions):
            if old[:2] != new[:2]:
                return None
            old_version, new_version = old[2], new[2]
            if new_version < old_version:
                return None
            if new_version > old_version:
                gaps.append((old[0], old[1], old_version, new_version))
        return tuple(gaps)
