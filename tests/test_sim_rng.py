"""Unit tests for deterministic RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import RngStreams


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a = RngStreams(7).stream("ost0").random(10)
        b = RngStreams(7).stream("ost0").random(10)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        r = RngStreams(7)
        a = r.stream("node0").random(10)
        b = r.stream("node1").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").random(5)
        b = RngStreams(2).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        r = RngStreams(0)
        assert r.stream("a") is r.stream("a")

    def test_creation_order_does_not_matter(self):
        r1 = RngStreams(5)
        r1.stream("aaa")
        x1 = r1.stream("bbb").random(4)
        r2 = RngStreams(5)
        x2 = r2.stream("bbb").random(4)  # no 'aaa' created first
        assert np.array_equal(x1, x2)

    def test_lognormal_factor_median_near_one(self):
        r = RngStreams(3)
        draws = np.array(
            [r.lognormal_factor("svc", sigma=0.3) for _ in range(4000)]
        )
        assert 0.9 < np.median(draws) < 1.1

    def test_lognormal_factor_capped(self):
        r = RngStreams(3)
        draws = [r.lognormal_factor("svc", sigma=2.0, cap=3.0) for _ in range(2000)]
        assert max(draws) <= 3.0

    def test_lognormal_zero_sigma_is_identity(self):
        assert RngStreams(0).lognormal_factor("x", 0.0) == 1.0

    def test_choice_weighted_respects_weights(self):
        r = RngStreams(11)
        picks = [
            r.choice_weighted("d", ["a", "b"], [0.9, 0.1]) for _ in range(2000)
        ]
        frac_a = picks.count("a") / len(picks)
        assert 0.85 < frac_a < 0.95

    def test_choice_weighted_single_option(self):
        r = RngStreams(0)
        assert r.choice_weighted("d", [42], [1.0]) == 42

    def test_choice_weighted_matches_generator_choice(self):
        """Same index as ``Generator.choice(n, p=...)`` on a twin stream,
        call after call, and the same stream state afterwards."""
        fast = RngStreams(2024)
        twin = RngStreams(2024).stream("d")
        spec = np.random.default_rng(99)
        for _ in range(3000):
            n = int(spec.integers(1, 7))
            weights = spec.random(n) * spec.choice([1e-3, 1.0, 1e6])
            weights[spec.random(n) < 0.2] = 0.0
            if not weights.any():
                weights[-1] = 0.5
            options = list(range(n))
            expected = int(twin.choice(n, p=weights / weights.sum()))
            drawn = fast.choice_weighted("d", options, list(weights))
            assert drawn == expected
        assert fast.stream("d").random() == twin.random()

    @pytest.mark.parametrize(
        "options, weights",
        [
            ([], []),
            ([1, 2], [1.0]),
            ([1, 2], [1.0, -0.5]),
            ([1, 2], [1.0, float("nan")]),
            ([1, 2], [1.0, float("inf")]),
            ([1, 2], [0.0, 0.0]),
        ],
    )
    def test_choice_weighted_rejects_bad_weights(self, options, weights):
        with pytest.raises(ValueError, match="choice_weighted"):
            RngStreams(0).choice_weighted("d", options, weights)

    def test_uniform_bounds(self):
        r = RngStreams(9)
        draws = [r.uniform("u", 2.0, 5.0) for _ in range(500)]
        assert all(2.0 <= d <= 5.0 for d in draws)
