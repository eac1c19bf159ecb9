"""Unit tests for Resource, Store and RateServer."""

import pytest

from repro.sim import JobStats, RateServer, Resource, SimulationError, Simulator, Store


class TestResource:
    def test_immediate_grant_under_capacity(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        r1, r2 = res.request(), res.request()
        assert r1.triggered and r2.triggered
        assert res.in_use == 2

    def test_waiters_queue_fifo(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def user(label, hold):
            req = res.request()
            yield req
            order.append(("start", label, sim.now))
            yield sim.timeout(hold)
            res.release()
            order.append(("end", label, sim.now))

        sim.process(user("a", 2.0))
        sim.process(user("b", 1.0))
        sim.process(user("c", 1.0))
        sim.run()
        starts = [(label, t) for kind, label, t in order if kind == "start"]
        assert starts == [("a", 0.0), ("b", 2.0), ("c", 3.0)]

    def test_release_without_request_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(SimulationError):
            res.release()

    def test_queue_length_counts_waiters(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.request()
        res.request()
        res.request()
        assert res.queue_length == 2

    def test_bad_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        sim.process(getter())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append((sim.now, item))

        sim.process(getter())

        def putter():
            yield sim.timeout(5.0)
            store.put("late")

        sim.process(putter())
        sim.run()
        assert got == [(5.0, "late")]

    def test_fifo_item_order(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.put(i)
        got = []

        def getter():
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.process(getter())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_capacity_blocks_put(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        events = []

        def putter():
            yield store.put("a")
            events.append(("a", sim.now))
            yield store.put("b")
            events.append(("b", sim.now))

        sim.process(putter())

        def getter():
            yield sim.timeout(3.0)
            yield store.get()

        sim.process(getter())
        sim.run()
        assert events == [("a", 0.0), ("b", 3.0)]

    def test_len_tracks_items(self):
        sim = Simulator()
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.items == (1, 2)


class TestRateServer:
    def test_single_job_service_time(self):
        sim = Simulator()
        server = RateServer(sim, rate=10.0)
        done = server.submit(50.0)
        stats = sim.run(until=done)
        assert stats.service_time == pytest.approx(5.0)
        assert sim.now == pytest.approx(5.0)

    def test_fifo_queueing(self):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        first = server.submit(2.0, tag="first")
        second = server.submit(3.0, tag="second")
        stats2 = sim.run(until=second)
        stats1 = first.value
        assert stats1.completed_at == pytest.approx(2.0)
        assert stats2.started_at == pytest.approx(2.0)
        assert stats2.completed_at == pytest.approx(5.0)
        assert stats2.wait_time == pytest.approx(2.0)

    def test_rate_change_mid_service_conserves_work(self):
        sim = Simulator()
        server = RateServer(sim, rate=10.0)
        done = server.submit(100.0)  # would finish at t=10 untouched
        sim.schedule(5.0, server.set_rate, 5.0)  # half rate halfway through
        stats = sim.run(until=done)
        # 50 units at rate 10 (5s) + 50 units at rate 5 (10s) = 15s total.
        assert stats.completed_at == pytest.approx(15.0)

    def test_rate_increase_mid_service(self):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        done = server.submit(10.0)
        sim.schedule(2.0, server.set_rate, 8.0)
        stats = sim.run(until=done)
        # 2 units at rate 1 (2s) + 8 units at rate 8 (1s) = 3s.
        assert stats.completed_at == pytest.approx(3.0)

    def test_zero_rate_freezes_job(self):
        sim = Simulator()
        server = RateServer(sim, rate=10.0)
        done = server.submit(100.0)
        sim.schedule(2.0, server.set_rate, 0.0)  # stall with 80 units left
        sim.schedule(7.0, server.set_rate, 10.0)  # resume after 5s stall
        stats = sim.run(until=done)
        # 2s + 5s stall + 8s = 15s.
        assert stats.completed_at == pytest.approx(15.0)

    def test_start_at_zero_rate(self):
        sim = Simulator()
        server = RateServer(sim, rate=0.0)
        done = server.submit(10.0)
        sim.schedule(4.0, server.set_rate, 10.0)
        stats = sim.run(until=done)
        assert stats.completed_at == pytest.approx(5.0)

    def test_multiple_rate_changes_one_job(self):
        sim = Simulator()
        server = RateServer(sim, rate=4.0)
        done = server.submit(20.0)
        sim.schedule(1.0, server.set_rate, 2.0)  # 16 left
        sim.schedule(3.0, server.set_rate, 6.0)  # 12 left
        stats = sim.run(until=done)
        # 1s@4 + 2s@2 + 2s@6 = 4+4+12 = 20 units, done at t=5.
        assert stats.completed_at == pytest.approx(5.0)

    def test_rate_change_applies_to_queued_jobs_too(self):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        server.submit(1.0)
        second = server.submit(1.0)
        sim.schedule(1.0, server.set_rate, 0.5)
        stats = sim.run(until=second)
        # First done at t=1; second served at rate .5 entirely: 2s more.
        assert stats.completed_at == pytest.approx(3.0)

    def test_jobs_completed_and_work_counters(self):
        sim = Simulator()
        server = RateServer(sim, rate=2.0)
        for __ in range(3):
            server.submit(4.0)
        sim.run()
        assert server.jobs_completed == 3
        assert server.work_completed == pytest.approx(12.0)

    def test_queue_length_and_busy(self):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        assert not server.busy
        server.submit(5.0)
        server.submit(5.0)
        assert server.busy
        assert server.queue_length == 1

    def test_utilization_full_when_saturated(self):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        server.submit(10.0)
        sim.run()
        assert server.utilization() == pytest.approx(1.0)

    def test_utilization_half_when_idle_half(self):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        server.submit(5.0)

        def late():
            yield sim.timeout(10.0)

        sim.process(late())
        sim.run()
        assert server.utilization() == pytest.approx(0.5)

    def test_drain_fires_when_idle(self):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        server.submit(2.0)
        server.submit(3.0)
        drained = server.drain()
        sim.run(until=drained)
        assert sim.now == pytest.approx(5.0)

    def test_drain_immediate_when_already_idle(self):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        assert server.drain().triggered

    def test_drain_is_event_driven_not_polled(self):
        """Regression: the old drain() spun on zero-length timeouts in its
        "queued but not started" branch, looping unboundedly at one
        timestamp.  The event-driven version enqueues *nothing* at drain
        time, and waking the waiter costs O(1) events, not O(poll)."""
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        server.submit(2.0)
        server.submit(3.0)
        seq_before = sim._seq
        drained = server.drain()
        # A polling implementation spawns a watcher process (and then
        # timeout after timeout); the event-driven one enqueues nothing.
        assert sim._seq == seq_before
        sim.run(until=drained)
        assert sim.now == pytest.approx(5.0)

    def test_drain_survives_rate_zero_stall(self):
        """Drain across a full stall: no events may be burned while the
        server is frozen (the old polling loop could spin there)."""
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        server.submit(4.0)
        drained = server.drain()
        sim.schedule(1.0, server.set_rate, 0.0)  # stall with 3 left
        sim.schedule(6.0, server.set_rate, 1.0)  # resume after 5s
        events_processed = 0
        while not drained.processed:
            sim.step()
            events_processed += 1
        assert sim.now == pytest.approx(9.0)
        # 2 schedule timers + their 2 result events + stale/live completion
        # timers + job completion + drain waiter: a handful, bounded.
        assert events_processed < 12

    def test_drain_waiters_all_wake_once(self):
        sim = Simulator()
        server = RateServer(sim, rate=2.0)
        server.submit(4.0)
        waiters = [server.drain() for _ in range(3)]
        sim.run()
        assert all(w.processed and w.ok for w in waiters)
        assert sim.now == pytest.approx(2.0)

    def test_bad_job_size_rejected(self):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        with pytest.raises(SimulationError):
            server.submit(0)

    def test_negative_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            RateServer(sim, rate=-1.0)
        server = RateServer(sim, rate=1.0)
        with pytest.raises(SimulationError):
            server.set_rate(-2.0)

    def test_tag_round_trips(self):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        done = server.submit(1.0, tag={"block": 7})
        stats = sim.run(until=done)
        assert stats.tag == {"block": 7}


NAN, INF = float("nan"), float("inf")


class TestRateServerRejectsNonFinite:
    """A NaN or infinite size or rate is refused before anything changes.

    A NaN size used to pass the ``size <= 0`` check, become the job in
    service and then fail to arm its timer, leaving the server busy for
    good; a NaN ``set_rate`` left the rate NaN and no timer armed.
    """

    @pytest.mark.parametrize("size", [NAN, INF, -INF])
    def test_bad_size_on_an_idle_server(self, size):
        sim = Simulator()
        server = RateServer(sim, rate=2.0)
        with pytest.raises(SimulationError, match="finite"):
            server.submit(size)
        assert not server.busy and server.queue_length == 0
        stats = sim.run(until=server.submit(1.0))
        assert (stats.started_at, stats.completed_at) == (0.0, 0.5)
        assert server.jobs_completed == 1

    @pytest.mark.parametrize("size", [NAN, INF])
    def test_bad_size_behind_a_busy_server(self, size):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        first = server.submit(1.0)
        with pytest.raises(SimulationError, match="finite"):
            server.submit(size)
        assert server.queue_length == 0
        second = server.submit(1.0)
        sim.run()
        assert first.value.completed_at == 1.0
        assert second.value.completed_at == 2.0

    @pytest.mark.parametrize("rate", [NAN, INF])
    def test_bad_rate_mid_job_changes_nothing(self, rate):
        sim = Simulator()
        server = RateServer(sim, rate=1.0)
        done = server.submit(2.0)
        refused = []

        def poke():
            with pytest.raises(SimulationError, match="finite"):
                server.set_rate(rate)
            refused.append(sim.now)

        sim.call_at(1.0, poke)
        stats = sim.run(until=done)
        assert refused == [1.0]
        assert server.rate == 1.0
        assert stats.completed_at == 2.0

    @pytest.mark.parametrize("rate", [NAN, INF])
    def test_bad_initial_rate(self, rate):
        with pytest.raises(SimulationError, match="finite"):
            RateServer(Simulator(), rate)


class TestHotRecordSlots:
    """The per-request records are slotted: one is allocated per job, so
    a stray attribute write (which __dict__ would silently absorb) is a
    bug, and the memory savings are part of the perf budget."""

    def test_jobstats_has_no_dict(self):
        stats = JobStats(size=1.0, submitted_at=0.0)
        assert not hasattr(stats, "__dict__")
        with pytest.raises(AttributeError):
            stats.extra = 1

    def test_jobstats_still_pickles(self):
        import pickle

        stats = JobStats(size=2.0, submitted_at=1.0, tag=("read", 0, 1))
        assert pickle.loads(pickle.dumps(stats)) == stats
