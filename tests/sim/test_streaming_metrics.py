"""Unit tests for the online moments."""

import math
import random

from repro.sim.metrics import StreamingMoments


class TestStreamingMoments:
    def test_empty(self):
        m = StreamingMoments()
        assert m.count == 0
        assert m.variance == 0.0
        assert m.stddev == 0.0

    def test_matches_two_pass_exactly_enough(self):
        rng = random.Random(1)
        xs = [rng.uniform(-5, 5) for _ in range(1000)]
        m = StreamingMoments()
        for x in xs:
            m.push(x)
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        assert m.count == len(xs)
        assert m.minimum == min(xs)
        assert m.maximum == max(xs)
        assert math.isclose(m.mean, mean, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(m.variance, var, rel_tol=1e-9)

    def test_stable_under_large_offset(self):
        """The regime that breaks the sum-of-squares shortcut."""
        offset = 1e9
        m = StreamingMoments()
        naive_sum = naive_sumsq = 0.0
        values = [offset + x for x in (0.0, 1.0, 2.0, 3.0, 4.0)]
        for x in values:
            m.push(x)
            naive_sum += x
            naive_sumsq += x * x
        assert math.isclose(m.variance, 2.0, rel_tol=1e-9)
        naive_var = naive_sumsq / 5 - (naive_sum / 5) ** 2
        assert abs(naive_var - 2.0) > 1e-3  # the shortcut really does break

    def test_no_dict(self):
        assert not hasattr(StreamingMoments(), "__dict__")

