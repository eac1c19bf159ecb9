"""Property tests for the kernel fast path (hypothesis).

The callback-timer rewrite of :class:`RateServer` and the lazy-deletion
cancellation in the engine must not weaken the two invariants every
experiment depends on:

* *work conservation*: across any storm of rate changes (each of which
  cancels and re-arms the completion timer, leaving defunct entries in
  the heap), a job finishes exactly when the piecewise rate integral
  says it should, and all submitted work completes;
* *determinism*: with defunct-entry skipping enabled, the same seed
  still yields an identical trace, and explicitly cancelled timers never
  perturb the order of the live events around them.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RateServer, Simulator, derive_seed

rate_schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=5.0),  # gap before the change
        st.floats(min_value=0.0, max_value=20.0),  # new rate (0 = stall)
    ),
    max_size=20,
)


class TestWorkConservationWithCancellation:
    @given(
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=8),
        rate_schedules,
    )
    @settings(max_examples=60)
    def test_all_work_completes_across_storm(self, sizes, changes):
        """Every submitted job completes and total work is conserved,

        no matter how many completion timers the storm cancels (including
        stalls at rate 0, provided the final rate is positive)."""
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        events = [server.submit(s) for s in sizes]

        t = 0.0
        for gap, rate in changes:
            t += gap
            sim.schedule(t, server.set_rate, rate)
        # Guarantee the server ends up running so everything can finish.
        sim.schedule(t + 0.01, server.set_rate, 1.0)

        sim.run()
        assert all(ev.triggered and ev.ok for ev in events)
        assert server.jobs_completed == len(sizes)
        assert abs(server.work_completed - sum(sizes)) < 1e-6

    @given(
        st.floats(min_value=0.5, max_value=20.0),
        rate_schedules,
    )
    @settings(max_examples=60)
    def test_completion_matches_piecewise_integral(self, size, changes):
        """One job's completion equals the analytic rate integral."""
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        done = server.submit(size)

        t = 0.0
        schedule = []
        for gap, rate in changes:
            t += gap
            schedule.append((t, rate))
            sim.schedule(t, server.set_rate, rate)
        end_t = t + 0.01
        schedule.append((end_t, 1.0))
        sim.schedule(end_t, server.set_rate, 1.0)

        stats = sim.run(until=done)

        remaining = size
        now = 0.0
        rate = 1.0
        for when, new_rate in schedule:
            served = rate * (when - now)
            if served >= remaining - 1e-9:
                break
            remaining -= served
            now = when
            rate = new_rate
        expected = now + remaining / rate
        assert abs(stats.completed_at - expected) < 1e-6


class TestDeterminismWithDefunctEntries:
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=25)
    def test_same_seed_same_trace_under_storm(self, seed, njobs):
        """Storms leave defunct heap entries; the trace must not care."""

        def run_once():
            sim = Simulator()
            rng = random.Random(derive_seed(seed, "storm"))
            server = RateServer(sim, rate=1.0)
            trace = []

            def load():
                for __ in range(njobs):
                    yield sim.timeout(rng.expovariate(1.0))
                    done = server.submit(rng.uniform(0.1, 4.0))
                    done.callbacks.append(
                        lambda ev: trace.append((sim.now, ev.value.size))
                    )
                    # A burst of rate changes per arrival: each cancels
                    # the armed completion timer, stacking defunct
                    # entries in the heap.
                    for __ in range(4):
                        server.set_rate(rng.uniform(0.2, 3.0))
                server.set_rate(1.0)

            sim.process(load())
            sim.run()
            return trace

        assert run_once() == run_once()

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_cancelled_timeouts_do_not_perturb_live_order(self, delays):
        """Interleaved cancelled timers leave the live firing order

        exactly as if they had never been scheduled."""

        def run_once(with_cancelled):
            sim = Simulator()
            fired = []
            cancelled = []
            for i, d in enumerate(delays):
                sim.call_later(d, fired.append, (d, i))
                if with_cancelled:
                    cancelled.append(sim.timeout(d / 2))
                    cancelled.append(sim.call_later(d, lambda: fired.append("BAD")))
            for timer in cancelled:
                timer.cancel()
            sim.run()
            return fired

        clean = run_once(with_cancelled=False)
        noisy = run_once(with_cancelled=True)
        assert clean == noisy
        assert clean == sorted(clean)


class _Boom(Exception):
    pass


@st.composite
def _series_cases(draw):
    """A call_series (or its call_at loop) among other timers."""
    count = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 30)))
    spacing = draw(st.one_of(
        st.just(0.0),
        st.sampled_from([0.1, 0.25, 1.0 / 3.0]),
        st.floats(min_value=0.01, max_value=2.0),
    ))
    # Timers on an arrival instant (k * spacing, the very float the
    # series computes) or anywhere; some get cancelled.
    when = st.one_of(st.integers(0, 35).map(lambda k: k * spacing),
                     st.floats(min_value=0.0, max_value=40.0))
    return dict(
        count=count,
        spacing=spacing,
        # A clock already past 0 when the series is created.
        start=draw(st.sampled_from([0.0, 0.0, 0.75])),
        before=draw(st.lists(when, max_size=6)),
        after=draw(st.lists(when, max_size=6)),
        cancel=draw(st.lists(st.integers(0, 11), max_size=4)),
        # Calls that raise, and calls that schedule more work: at their
        # own instant, or on the next arrival's.
        raise_at=draw(st.sets(st.integers(0, 30), max_size=3)),
        spawn=draw(st.lists(st.tuples(st.integers(0, 30),
                                      st.sampled_from(["now", "next"])),
                            max_size=6)),
    )


def _drive(case, series):
    """Run one case.

    Returns the log, the final clock, the most series entries the heap
    ever held at once, and the sequence counter.
    """
    from repro.sim.engine import SimulationError, _Series

    sim = Simulator()
    log = []
    most = 0

    def count_series():
        nonlocal most
        live = sum(isinstance(entry[3], _Series) for entry in sim._queue)
        most = max(most, live)

    def call(i):
        count_series()
        log.append(("call", i, sim.now))
        for index, where in case["spawn"]:
            if index == i:
                when = sim.now if where == "now" else (i + 1) * case["spacing"]
                sim.call_at(when, log.append, ("spawned", i, where))
        if i in case["raise_at"]:
            raise _Boom(i)

    if case["start"]:
        sim.run(until=case["start"])
    handles = [sim.call_at(case["start"] + t, log.append, ("before", k))
               for k, t in enumerate(case["before"])]
    try:
        if series:
            sim.call_series(case["count"], case["spacing"], call)
        else:
            for i in range(case["count"]):
                sim.call_at(i * case["spacing"], call, i)
    except SimulationError:
        log.append(("refused",))
    handles += [sim.call_at(case["start"] + t, log.append, ("after", k))
                for k, t in enumerate(case["after"])]
    for k in case["cancel"]:
        if handles:
            handles[k % len(handles)].cancel()
    while True:
        try:
            sim.run()
            break
        except _Boom as exc:
            log.append(("raised", exc.args[0], sim.now))
            count_series()
    return log, sim.now, most, sim._seq


class TestCallSeriesEqualsCallAtLoop:
    @given(_series_cases())
    @settings(max_examples=200, deadline=None)
    def test_same_log_same_clock_one_entry(self, case):
        """call_series runs exactly like its call_at loop, on one entry.

        Same calls in the same order at the same instants, interleaved
        identically with timers scheduled before and after it (ties
        included), with cancelled timers, with calls that raise, and
        with work the calls themselves schedule."""
        loop_log, loop_now, __, loop_seq = _drive(case, series=False)
        log, now, most, seq = _drive(case, series=True)
        assert log == loop_log
        assert now == loop_now
        assert seq == loop_seq
        assert most <= 1
        # A series created after t=0 is refused whole, like the loop.
        refused = case["start"] > 0 and case["count"] > 0
        assert (("refused",) in log) == refused
        calls = [entry[1] for entry in log if entry[0] == "call"]
        assert calls == ([] if refused else list(range(case["count"])))
