"""Property tests: closed-form FIFO delay reconstruction vs the discrete engine.

The hybrid engine's saturated regime rests on
:func:`~repro.sim.fluid.fifo_uniform_ramps`, the uniform-schedule
specialization of the closed-form Lindley recurrence to at most two
arithmetic ramps; :func:`tests.sim.reference_fifo.fifo_completions` is
the general closed form it specializes.  These
properties drive both against a real :class:`~repro.sim.resources.RateServer`
on a :class:`~repro.sim.engine.Simulator` over random overload/drain
schedules: every per-request completion time must agree to 1e-9
relative, and work conservation must be exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.fluid import fifo_uniform_ramps
from repro.sim.resources import RateServer

from .reference_fifo import fifo_completions

_REL = 1e-9


def _discrete_completions(arrivals, works, rate, busy_until):
    """Completion times from a real RateServer fed the same open arrivals.

    ``busy_until`` is modeled as a warmup job submitted at t=0 whose
    work drains exactly at that instant; FIFO queueing behind it and
    between the jobs is the server's own.
    """
    sim = Simulator()
    server = RateServer(sim, rate)
    if busy_until > 0.0:
        server.submit(busy_until * rate)
    completions = []

    def one(arrival, work):
        if arrival > 0.0:
            yield sim.timeout(arrival)
        stats = yield server.submit(work)
        completions.append(stats.completed_at)

    for a, w in zip(arrivals, works):
        sim.process(one(a, w))
    sim.run()
    return completions, server.work_completed


def _assert_close(analytic, discrete):
    assert len(analytic) == len(discrete)
    for c_a, c_d in zip(analytic, discrete):
        assert abs(c_a - c_d) <= _REL * max(1.0, abs(c_d)), (c_a, c_d)


@st.composite
def _fifo_cases(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    rate = draw(st.floats(min_value=0.5, max_value=10.0))
    busy = draw(st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=4.0)))
    a0 = draw(st.floats(min_value=0.0, max_value=2.0))
    # Gaps spanning both regimes: far below and far above typical
    # service times, so schedules oscillate between overload (queue
    # growth) and drain (queue collapse back to idle).
    gaps = draw(st.lists(st.floats(min_value=0.001, max_value=2.0),
                         min_size=n - 1, max_size=n - 1))
    works = draw(st.lists(st.floats(min_value=0.01, max_value=2.0),
                          min_size=n, max_size=n))
    arrivals = [a0]
    for g in gaps:
        arrivals.append(arrivals[-1] + g)
    return arrivals, works, rate, busy


class TestFifoCompletionsProperty:
    @given(_fifo_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_discrete_server(self, case):
        arrivals, works, rate, busy = case
        analytic = fifo_completions(
            np.asarray(arrivals), np.asarray(works), rate, busy_until=busy
        )
        discrete, served = _discrete_completions(arrivals, works, rate, busy)
        _assert_close(analytic.tolist(), discrete)
        # Exact work conservation: the server's counter accumulates the
        # warmup then every job in completion (= submission) order, so
        # the same left-to-right float sum must match bit for bit.
        expected = 0.0
        if busy > 0.0:
            expected += busy * rate
        for w in works:
            expected += w
        assert served == expected

    @given(_fifo_cases())
    @settings(max_examples=60, deadline=None)
    def test_per_job_service_identity(self, case):
        """Each reconstructed busy stretch serves exactly the job's work."""
        arrivals, works, rate, busy = case
        completions = fifo_completions(
            np.asarray(arrivals), np.asarray(works), rate, busy_until=busy
        )
        prev = busy
        for a, w, c in zip(arrivals, works, completions):
            start = max(prev, a)
            assert abs((c - start) * rate - w) <= _REL * max(1.0, w)
            prev = c


@st.composite
def _uniform_cases(draw):
    count = draw(st.integers(min_value=1, max_value=200))
    rate = draw(st.floats(min_value=0.5, max_value=10.0))
    work = draw(st.floats(min_value=0.05, max_value=2.0))
    # Spacing from deep overload (a fraction of the service time) to
    # comfortable drain (many service times).
    spacing = draw(st.floats(min_value=0.01, max_value=3.0)) * (work / rate)
    a0 = draw(st.floats(min_value=0.0, max_value=2.0))
    busy = draw(st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=6.0)))
    return a0, spacing, count, work, rate, busy


class TestFifoUniformRampsProperty:
    @given(_uniform_cases())
    @settings(max_examples=120, deadline=None)
    def test_ramps_match_general_recurrence(self, case):
        a0, spacing, count, work, rate, busy = case
        segments = fifo_uniform_ramps(a0, spacing, count, work, rate,
                                      busy_until=busy)
        assert 1 <= len(segments) <= 2
        assert sum(c for _, _, c in segments) == count
        responses = np.concatenate([
            first + step * np.arange(n, dtype=np.float64)
            for first, step, n in segments
        ])
        arrivals = a0 + spacing * np.arange(count, dtype=np.float64)
        reference = fifo_completions(
            arrivals, np.full(count, work), rate, busy_until=busy
        ) - arrivals
        assert np.all(np.abs(responses - reference)
                      <= _REL * np.maximum(1.0, np.abs(reference)))

    @given(_uniform_cases())
    @settings(max_examples=40, deadline=None)
    def test_ramps_match_discrete_server(self, case):
        a0, spacing, count, work, rate, busy = case
        count = min(count, 40)  # keep the scalar side cheap
        segments = fifo_uniform_ramps(a0, spacing, count, work, rate,
                                      busy_until=busy)
        responses = np.concatenate([
            first + step * np.arange(n, dtype=np.float64)
            for first, step, n in segments
        ])
        arrivals = (a0 + spacing * np.arange(count, dtype=np.float64)).tolist()
        discrete, _ = _discrete_completions(
            arrivals, [work] * count, rate, busy
        )
        _assert_close((np.asarray(arrivals) + responses).tolist(), discrete)


class TestFifoValidation:
    def test_rejects_decreasing_arrivals(self):
        with pytest.raises(ValueError):
            fifo_completions(np.array([1.0, 0.5]), np.array([1.0, 1.0]), 1.0)

    def test_rejects_nonpositive_rate_and_work(self):
        with pytest.raises(ValueError):
            fifo_completions(np.array([0.0]), np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            fifo_uniform_ramps(0.0, 1.0, 2, 0.0, 1.0)

    def test_empty_ramp_request(self):
        assert fifo_uniform_ramps(0.0, 1.0, 0, 1.0, 1.0) == []
