"""Tests for repro.core.neighbor_sets."""

import random

import pytest

from repro.core.neighbor_sets import FULLY_INSERTED, NeighborLevelError, NeighborLevels


def exhaustive_chain_holds(levels):
    """Lemma 5.1 checked on the sets themselves: ``members(s)`` inside
    ``members(s - 1)`` for every level.  The oracle for ``subset_chain_holds``."""
    previous = levels.members(0)
    for level in range(1, levels.max_level + 1):
        current = levels.members(level)
        if not current.issubset(previous):
            return False
        previous = current
    return True


class TestNeighborLevels:
    def test_requires_positive_max_level(self):
        with pytest.raises(NeighborLevelError):
            NeighborLevels(0)

    def test_discover_adds_to_level_zero_only(self):
        levels = NeighborLevels(4)
        levels.discover(7)
        assert 7 in levels
        assert levels.level_of(7) == 0
        assert levels.members(0) == {7}
        assert levels.members(1) == set()

    def test_discover_does_not_demote(self):
        levels = NeighborLevels(4)
        levels.add_fully_inserted(7)
        levels.discover(7)
        assert levels.level_of(7) == FULLY_INSERTED

    def test_fully_inserted_in_all_levels(self):
        levels = NeighborLevels(4)
        levels.add_fully_inserted(3)
        for s in range(5):
            assert 3 in levels.members(s)
        assert levels.is_fully_inserted(3)
        assert levels.fully_inserted() == {3}

    def test_promotion_is_monotone(self):
        levels = NeighborLevels(4)
        levels.discover(1)
        levels.promote(1, 2)
        assert levels.level_of(1) == 2
        levels.promote(1, 1)
        assert levels.level_of(1) == 2

    def test_promotion_to_max_level_means_fully_inserted(self):
        levels = NeighborLevels(3)
        levels.discover(1)
        levels.promote(1, 3)
        assert levels.is_fully_inserted(1)

    def test_promotion_requires_discovery(self):
        levels = NeighborLevels(4)
        with pytest.raises(NeighborLevelError):
            levels.promote(9, 1)

    def test_promotion_rejects_negative_level(self):
        levels = NeighborLevels(4)
        levels.discover(1)
        with pytest.raises(NeighborLevelError):
            levels.promote(1, -1)

    def test_remove_drops_from_all_levels(self):
        levels = NeighborLevels(4)
        levels.add_fully_inserted(2)
        levels.remove(2)
        assert 2 not in levels
        assert levels.members(0) == set()

    def test_remove_unknown_is_noop(self):
        levels = NeighborLevels(4)
        levels.remove(99)
        assert len(levels) == 0

    def test_clear(self):
        levels = NeighborLevels(4)
        levels.discover(1)
        levels.discover(2)
        levels.clear()
        assert len(levels) == 0

    def test_members_negative_level_rejected(self):
        with pytest.raises(NeighborLevelError):
            NeighborLevels(4).members(-1)

    def test_contains_at_level(self):
        levels = NeighborLevels(4)
        levels.discover(1)
        levels.promote(1, 2)
        assert levels.contains(1, 2)
        assert not levels.contains(1, 3)
        assert not levels.contains(5, 0)

    def test_discovered_set(self):
        levels = NeighborLevels(4)
        levels.discover(1)
        levels.add_fully_inserted(2)
        assert levels.discovered() == {1, 2}

    def test_subset_chain_lemma_5_1(self):
        """Lemma 5.1: the level sets form a descending chain."""
        levels = NeighborLevels(5)
        levels.add_fully_inserted(0)
        levels.discover(1)
        levels.promote(1, 2)
        levels.discover(2)
        levels.promote(2, 4)
        levels.discover(3)
        assert levels.subset_chain_holds()
        assert exhaustive_chain_holds(levels)

    @pytest.mark.parametrize("seed", range(8))
    def test_subset_chain_agrees_with_the_exhaustive_scan(self, seed):
        rng = random.Random(seed)
        levels = NeighborLevels(rng.randint(1, 6))
        for _ in range(200):
            neighbor = rng.randrange(8)
            op = rng.choice(["discover", "promote", "remove", "full"])
            if op == "discover":
                levels.discover(neighbor)
            elif op == "promote" and neighbor in levels:
                levels.promote(neighbor, rng.randint(0, 8))
            elif op == "remove":
                levels.remove(neighbor)
            elif op == "full":
                levels.add_fully_inserted(neighbor)
            assert levels.subset_chain_holds() is exhaustive_chain_holds(levels) is True

    @pytest.mark.parametrize("corrupt", [-1, None, "2"])
    def test_subset_chain_reports_a_corrupted_level(self, corrupt):
        levels = NeighborLevels(3)
        levels.add_fully_inserted(0)
        levels.discover(1)
        levels.discover(2)
        levels.promote(2, 2)
        assert levels.subset_chain_holds()
        levels._level[1] = corrupt  # not reachable through the public methods
        assert not levels.subset_chain_holds()

    def test_levels_of_reads_a_row_like_level_of(self):
        levels = NeighborLevels(3)
        levels.add_fully_inserted(4)
        levels.discover(2)
        levels.promote(2, 1)
        assert list(levels.levels_of([1, 2, 4])) == [0, 1, FULLY_INSERTED]
        assert list(levels.levels_of([])) == []
