"""Unit and property tests for fault-schedule distributions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import Exponential, Fixed, Uniform

ALL_DISTRIBUTIONS = [
    Fixed(2.0),
    Uniform(1.0, 3.0),
    Exponential(2.0),
]


class TestSamplingBasics:
    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_samples_nonnegative(self, dist):
        rng = random.Random(1)
        assert all(dist.sample(rng) >= 0 for __ in range(200))

    @pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_deterministic_given_seed(self, dist):
        a = [dist.sample(random.Random(7)) for __ in range(5)]
        b = [dist.sample(random.Random(7)) for __ in range(5)]
        assert a == b

    def test_fixed_always_equal(self):
        rng = random.Random(0)
        assert {Fixed(3.5).sample(rng) for __ in range(10)} == {3.5}

    def test_uniform_within_bounds(self):
        rng = random.Random(0)
        for __ in range(100):
            v = Uniform(2.0, 5.0).sample(rng)
            assert 2.0 <= v <= 5.0


class TestMeans:
    def test_analytic_means(self):
        assert Fixed(2.0).mean() == 2.0
        assert Uniform(1.0, 3.0).mean() == 2.0
        assert Exponential(2.0).mean() == 2.0

    @pytest.mark.parametrize(
        "dist",
        [Uniform(1.0, 3.0), Exponential(2.0)],
        ids=lambda d: type(d).__name__,
    )
    def test_sample_mean_approaches_analytic(self, dist):
        rng = random.Random(42)
        n = 20000
        sample_mean = sum(dist.sample(rng) for __ in range(n)) / n
        assert sample_mean == pytest.approx(dist.mean(), rel=0.05)


class TestValidation:
    def test_fixed_negative_rejected(self):
        with pytest.raises(ValueError):
            Fixed(-1.0)

    def test_uniform_bounds_rejected(self):
        with pytest.raises(ValueError):
            Uniform(3.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(-1.0, 1.0)

    def test_exponential_mean_rejected(self):
        with pytest.raises(ValueError):
            Exponential(0.0)


class TestProperties:
    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_fixed_roundtrip(self, value):
        assert Fixed(value).sample(random.Random(0)) == value

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50)
    def test_uniform_always_in_bounds(self, a, width, seed):
        dist = Uniform(a, a + width)
        v = dist.sample(random.Random(seed))
        assert a <= v <= a + width
