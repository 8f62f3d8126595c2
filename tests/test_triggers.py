"""Tests for repro.core.triggers (Definitions 4.5 - 4.7 and Lemma 5.3)."""

import pytest

from repro.core.parameters import Parameters
from repro.core.triggers import (
    NeighborView,
    evaluate_triggers,
    fast_trigger_at_level,
    fast_trigger_level,
    slow_trigger_at_level,
    slow_trigger_level,
    views_at_level,
)


def make_view(params, neighbor, estimate, *, level=5, epsilon=1.0, tau=0.5):
    kappa = params.kappa_for(epsilon, tau)
    delta = params.delta_for(kappa, epsilon, tau)
    return NeighborView(
        neighbor=neighbor,
        estimate=estimate,
        kappa=kappa,
        epsilon=epsilon,
        tau=tau,
        delta=delta,
        level=level,
    )


@pytest.fixture
def kappa(params):
    return params.kappa_for(1.0, 0.5)


class TestNeighborView:
    def test_validation(self, params):
        with pytest.raises(ValueError):
            NeighborView(1, 0.0, kappa=0.0, epsilon=1.0, tau=0.5, delta=0.1, level=1)
        with pytest.raises(ValueError):
            NeighborView(1, 0.0, kappa=4.0, epsilon=-1.0, tau=0.5, delta=0.1, level=1)
        with pytest.raises(ValueError):
            NeighborView(1, 0.0, kappa=4.0, epsilon=1.0, tau=0.5, delta=0.1, level=-1)

    def test_views_at_level_filters(self, params):
        views = [make_view(params, 1, 0.0, level=1), make_view(params, 2, 0.0, level=3)]
        assert len(views_at_level(views, 1)) == 2
        assert len(views_at_level(views, 2)) == 1
        assert len(views_at_level(views, 4)) == 0


class TestFastTrigger:
    def test_fires_when_neighbor_far_ahead(self, params, kappa):
        logical = 100.0
        view = make_view(params, 1, logical + kappa + 1.0)
        assert fast_trigger_at_level(logical, 1, [view], params)

    def test_does_not_fire_without_neighbor_ahead(self, params, kappa):
        logical = 100.0
        view = make_view(params, 1, logical + kappa / 2)
        assert not fast_trigger_at_level(logical, 1, [view], params)

    def test_blocked_by_neighbor_far_behind(self, params, kappa):
        logical = 100.0
        ahead = make_view(params, 1, logical + kappa + 1.0)
        behind = make_view(params, 2, logical - 2 * kappa)
        assert not fast_trigger_at_level(logical, 1, [ahead, behind], params)

    def test_estimate_error_compensation(self, params, kappa):
        # The trigger fires already when the *estimate* is s*kappa - epsilon
        # ahead, so that the condition on true values is implied.
        logical = 100.0
        view = make_view(params, 1, logical + kappa - 0.9)
        assert fast_trigger_at_level(logical, 1, [view], params)

    def test_higher_level_needs_larger_skew(self, params, kappa):
        logical = 100.0
        view = make_view(params, 1, logical + kappa + 1.0)
        assert fast_trigger_at_level(logical, 1, [view], params)
        assert not fast_trigger_at_level(logical, 2, [view], params)

    def test_no_views_means_no_trigger(self, params):
        assert not fast_trigger_at_level(100.0, 1, [], params)

    def test_level_zero_rejected(self, params, kappa):
        with pytest.raises(ValueError):
            fast_trigger_at_level(100.0, 0, [make_view(params, 1, 100.0)], params)

    def test_fast_trigger_level_returns_smallest(self, params, kappa):
        logical = 100.0
        view = make_view(params, 1, logical + 3 * kappa)
        assert fast_trigger_level(logical, [view], params, max_level=5) == 1


class TestSlowTrigger:
    def test_fires_when_neighbor_far_behind(self, params, kappa):
        logical = 100.0
        view = make_view(params, 1, logical - 2 * kappa)
        assert slow_trigger_at_level(logical, 1, [view], params)

    def test_does_not_fire_without_neighbor_behind(self, params, kappa):
        logical = 100.0
        view = make_view(params, 1, logical - kappa / 2)
        assert not slow_trigger_at_level(logical, 1, [view], params)

    def test_blocked_by_neighbor_far_ahead(self, params, kappa):
        logical = 100.0
        behind = make_view(params, 1, logical - 2 * kappa)
        ahead = make_view(params, 2, logical + 3 * kappa)
        assert not slow_trigger_at_level(logical, 1, [behind, ahead], params)

    def test_no_views_means_no_trigger(self, params):
        assert not slow_trigger_at_level(100.0, 1, [], params)

    def test_slow_trigger_level_returns_smallest(self, params, kappa):
        logical = 100.0
        view = make_view(params, 1, logical - 3 * kappa)
        assert slow_trigger_level(logical, [view], params, max_level=5) == 1

    def test_level_zero_rejected(self, params, kappa):
        with pytest.raises(ValueError):
            slow_trigger_at_level(100.0, 0, [make_view(params, 1, 100.0)], params)


class TestMutualExclusion:
    """Lemma 5.3: fast and slow triggers are never simultaneously satisfied."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_configurations(self, params, seed):
        import random

        rng = random.Random(seed)
        logical = 100.0
        kappa = params.kappa_for(1.0, 0.5)
        views = [
            make_view(
                params,
                i,
                logical + rng.uniform(-6 * kappa, 6 * kappa),
                level=rng.randint(1, 4),
            )
            for i in range(1, 6)
        ]
        fast = fast_trigger_level(logical, views, params, max_level=4)
        slow = slow_trigger_level(logical, views, params, max_level=4)
        assert fast is None or slow is None


class TestEvaluateTriggers:
    def test_slow_takes_precedence(self, params, kappa):
        logical = 100.0
        behind = make_view(params, 1, logical - 2 * kappa)
        decision = evaluate_triggers(logical, logical, [behind], params, max_level=4)
        assert decision.mode == "slow"
        assert decision.level == 1

    def test_fast_trigger_mode(self, params, kappa):
        logical = 100.0
        ahead = make_view(params, 1, logical + 2 * kappa)
        decision = evaluate_triggers(logical, logical + 10, [ahead], params, max_level=4)
        assert decision.mode == "fast"
        assert decision.level == 1

    def test_max_estimate_slow_when_at_max(self, params):
        decision = evaluate_triggers(100.0, 100.0, [], params, max_level=4)
        assert decision.mode == "slow"
        assert "max estimate" in decision.reason

    def test_max_estimate_fast_when_lagging(self, params):
        decision = evaluate_triggers(100.0, 100.0 + 2 * params.iota, [], params, max_level=4)
        assert decision.mode == "fast"

    def test_free_zone_between_max_estimate_triggers(self, params):
        decision = evaluate_triggers(100.0, 100.0 + params.iota / 2, [], params, max_level=4)
        assert decision.mode == "free"


class _CountingView:
    """A neighbor view whose ``estimate`` reads are counted."""

    def __init__(self, view, reads):
        self._view = view
        self._reads = reads

    @property
    def estimate(self):
        self._reads.append(self._view.neighbor)
        return self._view.estimate

    def __getattr__(self, name):
        return getattr(self._view, name)


class _CountingViews(list):
    """A view list that counts how often it is iterated."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestLevelScanWork:
    """Predicate evaluations per call, not wall-clock: the scan stops at the
    first level nobody reaches (exhaustive-scan equality is the property test
    ``test_level_scan_equals_exhaustive_scan``)."""

    @pytest.mark.parametrize("trigger_level", [slow_trigger_level, fast_trigger_level])
    @pytest.mark.parametrize("max_level", [1, 8, 64])
    def test_balanced_node_scans_level_one_only(self, params, trigger_level, max_level):
        logical = 100.0
        reads = []
        views = _CountingViews(
            _CountingView(make_view(params, neighbor, logical, level=max_level), reads)
            for neighbor in range(5)
        )
        assert trigger_level(logical, views, params, max_level) is None
        # Nobody is behind or ahead: one existential pass over level 1, the
        # universal clause is never reached, the caller's views filtered once.
        assert reads == [0, 1, 2, 3, 4]
        assert views.passes == 1

    def test_scan_goes_as_deep_as_the_existential_clause_holds(self, params, kappa):
        # One neighbor 3.2 kappa behind, one far ahead that blocks every
        # level: the scan visits the levels on which the first still counts
        # as "behind", plus the one on which it no longer does.
        logical = 100.0
        reads = []
        behind = make_view(params, 1, logical - 3.2 * kappa, level=64)
        ahead = make_view(params, 2, logical + 100 * kappa, level=64)
        views = [_CountingView(behind, reads), _CountingView(ahead, reads)]
        assert slow_trigger_level(logical, views, params, 64) is None
        deep = sum(
            1
            for level in range(1, 65)
            if 3.2 * kappa >= (level + 0.5) * kappa - behind.delta - behind.epsilon
        )
        assert 2 <= deep < 64
        # ``ahead`` is read by the universal clause of each such level and by
        # the last, failing existential pass.
        assert reads.count(2) == deep + 1
