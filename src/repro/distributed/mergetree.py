"""Merge topology as data: one tree, priced and executed from one object.

The paper's Section 6 names "a multi-tiered coordinator architecture or
spanning-tree networks" as future work. Both are the same mechanism: a
tree whose leaves are Skalla sites, whose root is the query coordinator,
and whose interior nodes are *combiners*. Every node

- ships each child ONE copy of the base-result fragment that child's
  sites can use (the union of their aware-reduction fragments), and
- merges its children's sub-results by key before answering its parent —
  sub-aggregate components combine associatively
  (:func:`repro.gmdj.operator.merge_sub_results`, Theorem 1), so every
  edge below a merge carries at most |Q| rows per round however many
  sites sit beneath it.

The root runs Theorem-1 synchronization on the merged streams exactly as
the star does, which is why every tree shape returns the flat star's
relation for every plan the optimizer emits.

:class:`MergeTree` is only that value: the cost model prices it
(:func:`repro.distributed.costing.estimate_topology_costs`),
:func:`repro.distributed.evaluator.execute_plan` walks it, and
:func:`tree_for` maps a topology label to it, so the tree that is priced
*is* the tree that runs. The flat star is the depth-1 tree
(:meth:`MergeTree.flat`) and runs through the same walk as any other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.errors import NetworkError, PlanError

#: Name of every tree's root: the query coordinator.
ROOT_NAME = "coordinator"
#: Name prefix of the interior nodes the builders create; it is also how
#: a combiner's edge shows up among a round's per-site statistics.
COMBINER_PREFIX = "combiner:"


@dataclass(frozen=True)
class MergeTree:
    """A node of the merge tree: a site (leaf) or a merge point."""

    name: str
    children: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_star(self) -> bool:
        """True when every child of this node is a site: the flat star."""
        return not self.is_leaf and all(child.is_leaf for child in self.children)

    def leaves(self) -> tuple:
        if self.is_leaf:
            return (self.name,)
        return tuple(
            itertools.chain.from_iterable(child.leaves() for child in self.children)
        )

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def descendants(self):
        """Every node below this one, parents before their children."""
        for child in self.children:
            yield child
            yield from child.descendants()

    def validate(self) -> None:
        seen = {self.name}
        for node in self.descendants():
            if node.name in seen:
                raise NetworkError(f"duplicate node name {node.name!r} in tree")
            seen.add(node.name)

    # -- builders ---------------------------------------------------------------

    @classmethod
    def flat(cls, site_ids: Sequence[str]) -> "MergeTree":
        """The star: every site a child of the coordinator."""
        site_ids = tuple(site_ids)
        if not site_ids:
            raise NetworkError("a merge tree needs at least one site")
        return cls(ROOT_NAME, tuple(cls(site_id) for site_id in site_ids))

    @classmethod
    def regions(cls, site_ids: Sequence[str], region_count: int) -> "MergeTree":
        """Two levels: sites dealt round-robin into ``region_count`` combiners.

        ``region_count`` must lie in ``1..len(site_ids)`` — fewer would
        build no region at all, more would leave regions empty; either
        is a caller bug (``ValueError``), not a network condition.
        """
        site_ids = tuple(site_ids)
        if not isinstance(region_count, int) or isinstance(region_count, bool):
            raise ValueError(f"region_count must be an int, got {region_count!r}")
        if not 1 <= region_count <= len(site_ids):
            raise ValueError(
                f"region_count must be in 1..{len(site_ids)} "
                f"(one region per site at most), got {region_count}"
            )
        return cls(
            ROOT_NAME,
            tuple(
                cls(
                    f"{COMBINER_PREFIX}{index}",
                    tuple(cls(site_id) for site_id in site_ids[index::region_count]),
                )
                for index in range(region_count)
            ),
        )

    @classmethod
    def fanout(cls, site_ids: Sequence[str], fanout: int) -> "MergeTree":
        """Group nodes ``fanout`` at a time, level by level, up to the root.

        ``fanout`` must be an integer >= 2: a smaller one never shrinks
        a level, so the grouping would not terminate (``ValueError``).
        """
        if not isinstance(fanout, int) or isinstance(fanout, bool):
            raise ValueError(f"fanout must be an int, got {fanout!r}")
        if fanout < 2:
            raise ValueError(
                f"fanout must be at least 2 (a fanout of {fanout} cannot reduce "
                "a level, so the tree would never converge)"
            )
        level = cls.flat(site_ids).children
        names = (f"{COMBINER_PREFIX}{index}" for index in itertools.count())
        while len(level) > fanout:
            groups = [
                level[start : start + fanout]
                for start in range(0, len(level), fanout)
            ]
            level = tuple(
                group[0] if len(group) == 1 else cls(next(names), group)
                for group in groups
            )
        return cls(ROOT_NAME, level)


def parse_topology(label: str) -> tuple:
    """``"flat" | "hierarchical:R" | "chain:F"`` -> ``(kind, parameter)``."""
    if label == "flat":
        return "flat", 0
    kind, _, raw = label.partition(":")
    if kind in ("hierarchical", "chain") and raw.isdigit() and int(raw) > 0:
        return kind, int(raw)
    raise PlanError(
        f"unknown topology {label!r}; expected 'auto', 'flat', "
        "'hierarchical:<regions>' or 'chain:<fanout>'"
    )


def tree_for(label: str, site_ids: Sequence[str]) -> MergeTree:
    """The merge tree a topology label denotes over ``site_ids``."""
    kind, parameter = parse_topology(label)
    try:
        if kind == "hierarchical":
            return MergeTree.regions(site_ids, parameter)
        if kind == "chain":
            return MergeTree.fanout(site_ids, parameter)
        return MergeTree.flat(site_ids)
    except ValueError as error:
        raise PlanError(f"topology {label!r} unavailable: {error}") from error

