"""Unit and property tests for largest-remainder apportioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import apportion


class TestApportion:
    def test_exact_division(self):
        assert apportion(12, [1.0, 1.0, 1.0]) == [4, 4, 4]

    def test_largest_remainder(self):
        assert apportion(10, [1.0, 1.0, 2.0]) in ([2, 3, 5], [3, 2, 5])
        assert apportion(400, [5.5, 5.5, 5.5, 2.75]) == [115, 114, 114, 57]

    def test_zero_total(self):
        assert apportion(0, [1.0, 2.0]) == [0, 0]

    def test_zero_weight_gets_nothing(self):
        assert apportion(10, [0.0, 1.0]) == [0, 10]

    def test_validation(self):
        with pytest.raises(ValueError):
            apportion(-1, [1.0])
        with pytest.raises(ValueError):
            apportion(10, [-1.0, 2.0])
        with pytest.raises(ValueError):
            apportion(10, [0.0, 0.0])

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20),
    )
    @settings(max_examples=80)
    def test_sums_to_total_and_nonnegative(self, total, weights):
        if sum(weights) <= 0:
            weights = weights + [1.0]
        shares = apportion(total, weights)
        assert sum(shares) == total
        assert all(s >= 0 for s in shares)

    @given(st.integers(min_value=1, max_value=1000))
    @settings(max_examples=30)
    def test_proportionality_error_bounded(self, total):
        weights = [5.5, 5.5, 5.5, 2.75]
        shares = apportion(total, weights)
        for share, weight in zip(shares, weights):
            ideal = total * weight / sum(weights)
            assert abs(share - ideal) < 1.0
