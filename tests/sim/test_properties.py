"""Property-based tests for the simulation kernel (hypothesis).

These pin the invariants DESIGN.md commits to:

* events always fire in nondecreasing time order, with same-time ties
  broken by creation order;
* the same seed yields an identical trace (determinism);
* RateServer conserves work across arbitrary rate-change schedules.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RateServer, Simulator, derive_seed


delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=30,
)


class TestEventOrderProperties:
    @given(delays)
    def test_events_fire_in_nondecreasing_time(self, delay_list):
        sim = Simulator()
        fired = []

        def proc(d):
            yield sim.timeout(d)
            fired.append(sim.now)

        for d in delay_list:
            sim.process(proc(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delay_list)

    @given(delays)
    def test_ties_break_by_creation_order(self, delay_list):
        sim = Simulator()
        fired = []

        def proc(idx, d):
            yield sim.timeout(d)
            fired.append((sim.now, idx))

        for idx, d in enumerate(delay_list):
            sim.process(proc(idx, d))
        sim.run()
        # Within each distinct time, creation indices must be increasing.
        assert fired == sorted(fired)


class TestDeterminismProperties:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=20))
    @settings(max_examples=25)
    def test_same_seed_same_trace(self, seed, njobs):
        def run_once():
            sim = Simulator()
            rng = random.Random(derive_seed(seed, "workload"))
            server = RateServer(sim, rate=1.0)
            completions = []

            def load():
                for __ in range(njobs):
                    yield sim.timeout(rng.expovariate(1.0))
                    done = server.submit(rng.uniform(0.1, 5.0))
                    done.callbacks.append(
                        lambda ev: completions.append((sim.now, ev.value.size))
                    )
                # Also jitter the rate from the same seeded stream.
                for __ in range(3):
                    yield sim.timeout(rng.expovariate(0.5))
                    server.set_rate(rng.uniform(0.5, 2.0))

            sim.process(load())
            sim.run()
            return completions

        assert run_once() == run_once()


class TestRateServerProperties:
    @given(
        st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0),  # gap before change
                st.floats(min_value=0.1, max_value=20.0),  # new rate
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=60)
    def test_work_conservation_under_rate_changes(self, size, changes):
        """Completion time equals the analytic piecewise integral."""
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        done = server.submit(size)

        # Apply rate changes at cumulative offsets.
        t = 0.0
        schedule = []
        for gap, rate in changes:
            t += gap
            schedule.append((t, rate))
            sim.schedule(t, server.set_rate, rate)

        stats = sim.run(until=done)

        # Analytic completion: integrate rate(t) until `size` work done.
        remaining = size
        now = 0.0
        rate = 1.0
        for when, new_rate in schedule:
            span = when - now
            served = rate * span
            if served >= remaining - 1e-9:
                break
            remaining -= served
            now = when
            rate = new_rate
        expected = now + remaining / rate
        assert abs(stats.completed_at - expected) < 1e-6

    @given(
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=15),
        st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=60)
    def test_fifo_total_time_is_sum_of_sizes_over_rate(self, sizes, rate):
        sim = Simulator()
        server = RateServer(sim, rate=rate)
        last = None
        for s in sizes:
            last = server.submit(s)
        stats = sim.run(until=last)
        assert abs(stats.completed_at - sum(sizes) / rate) < 1e-6
        assert server.jobs_completed == len(sizes)

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_completion_order_is_submission_order(self, sizes):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        order = []
        for idx, s in enumerate(sizes):
            ev = server.submit(s, tag=idx)
            ev.callbacks.append(lambda e: order.append(e.value.tag))
        sim.run()
        assert order == list(range(len(sizes)))
