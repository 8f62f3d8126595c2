"""Level-indexed neighbor sets ``N^0_u >= N^1_u >= N^2_u >= ...``.

A node keeps, for every discovered neighbor, the highest level ``s`` such that
the neighbor belongs to ``N^s_u``.  Because neighbors are only ever added to
level ``s`` after having been added to all smaller levels, and removal always
removes a neighbor from every level at once (Listing 1), storing the single
highest level per neighbor represents the whole family of sets and makes the
subset invariant of Lemma 5.1 hold by construction.

Edges present at time 0 are members of every level from the start; this is
represented by the sentinel :data:`FULLY_INSERTED`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, Iterator, Optional, Set

from ..network.edge import NodeId

#: Sentinel level meaning "member of N^s for every s" (fully inserted edge).
FULLY_INSERTED: int = 10 ** 9


class NeighborLevelError(ValueError):
    """Raised on invalid neighbor set manipulations."""


class NeighborLevels:
    """Per-node view of the level sets ``N^s_u``."""

    def __init__(self, max_level: int):
        if max_level < 1:
            raise NeighborLevelError(f"max_level must be >= 1, got {max_level}")
        self.max_level = int(max_level)
        self._level: Dict[NodeId, int] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def discover(self, neighbor: NodeId) -> None:
        """Add a freshly discovered neighbor to ``N^0_u`` only."""
        if neighbor not in self._level:
            self._level[neighbor] = 0

    def add_fully_inserted(self, neighbor: NodeId) -> None:
        """Add a neighbor to every level at once (edges present at time 0)."""
        self._level[neighbor] = FULLY_INSERTED

    def promote(self, neighbor: NodeId, level: int) -> None:
        """Insert ``neighbor`` into ``N^level_u`` (and implicitly all below)."""
        if level < 0:
            raise NeighborLevelError(f"levels are non-negative, got {level}")
        if neighbor not in self._level:
            raise NeighborLevelError(
                f"neighbor {neighbor} must be discovered before promotion"
            )
        if level > self._level[neighbor]:
            self._level[neighbor] = level
        if self._level[neighbor] >= self.max_level:
            self._level[neighbor] = FULLY_INSERTED

    def remove(self, neighbor: NodeId) -> None:
        """Remove a neighbor from every level (edge failure, Listing 1)."""
        self._level.pop(neighbor, None)

    def clear(self) -> None:
        self._level.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def discovered(self) -> Set[NodeId]:
        """The set ``N^0_u = N_u`` of all discovered neighbors."""
        return set(self._level)

    def members(self, level: int) -> Set[NodeId]:
        """The set ``N^level_u``."""
        if level < 0:
            raise NeighborLevelError(f"levels are non-negative, got {level}")
        return {v for v, lv in self._level.items() if lv >= level}

    def level_of(self, neighbor: NodeId) -> Optional[int]:
        """Highest level the neighbor belongs to, or ``None`` if unknown."""
        return self._level.get(neighbor)

    def levels_of(self, neighbors: Iterable[NodeId]) -> Iterator[int]:
        """:meth:`level_of` for each of ``neighbors``, 0 where it is unknown."""
        return map(self._level.get, neighbors, repeat(0))

    def contains(self, neighbor: NodeId, level: int) -> bool:
        lv = self._level.get(neighbor)
        return lv is not None and lv >= level

    def is_fully_inserted(self, neighbor: NodeId) -> bool:
        return self._level.get(neighbor, -1) >= self.max_level

    def fully_inserted(self) -> Set[NodeId]:
        return {v for v in self._level if self.is_fully_inserted(v)}

    def __len__(self) -> int:
        return len(self._level)

    def __contains__(self, neighbor: NodeId) -> bool:
        return neighbor in self._level

    # ------------------------------------------------------------------
    # Invariant checks (used by tests and the invariant benchmark)
    # ------------------------------------------------------------------
    def subset_chain_holds(self) -> bool:
        """Lemma 5.1: ``N^s_u`` is a subset of ``N^(s-1)_u`` for every s.

        ``N^s_u = {v : level(v) >= s}`` nests for every ``s`` unless a stored
        level is not a non-negative number; one pass checks exactly that.
        """
        try:
            return min(self._level.values(), default=0) >= 0
        except TypeError:
            return False
