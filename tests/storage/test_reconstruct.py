"""Unit tests for hot-spare reconstruction."""

import pytest

from repro.core.system import System
from repro.faults.model import ComponentStopped
from repro.sim import Simulator
from repro.storage import (
    Disk,
    DiskParams,
    Raid1Pair,
    Reconstructor,
    uniform_geometry,
)

PARAMS = DiskParams(rpm=5400, avg_seek=0.011, block_size_mb=0.5)


def setup_pair(sim, n_written=100):
    d1 = Disk(sim, "d1", uniform_geometry(100_000, 5.5), PARAMS)
    d2 = Disk(sim, "d2", uniform_geometry(100_000, 5.5), PARAMS)
    pair = Raid1Pair(sim, d1, d2)
    for lba in range(n_written):
        sim.run(until=pair.write(lba, 1, value=lba + 1000))
    spare = Disk(sim, "spare", uniform_geometry(100_000, 5.5), PARAMS)
    return pair, spare


class TestRebuild:
    def test_rebuild_copies_all_content(self):
        sim = Simulator()
        pair, spare = setup_pair(sim, n_written=50)
        pair.primary.stop()
        result = sim.run(until=Reconstructor(sim).rebuild(pair, spare, blocks=50))
        assert result.blocks_copied == 50
        for lba in range(50):
            assert spare.peek(lba) == lba + 1000

    def test_spare_replaces_dead_member(self):
        sim = Simulator()
        pair, spare = setup_pair(sim, n_written=10)
        pair.primary.stop()
        sim.run(until=Reconstructor(sim).rebuild(pair, spare, blocks=10))
        assert pair.primary is spare
        assert len(pair.live_disks) == 2
        # Redundancy restored: writes hit both members again.
        sim.run(until=pair.write(5, 1, value=77))
        assert pair.primary.peek(5) == 77
        assert pair.secondary.peek(5) == 77

    def test_secondary_failure_also_rebuildable(self):
        sim = Simulator()
        pair, spare = setup_pair(sim, n_written=10)
        pair.secondary.stop()
        sim.run(until=Reconstructor(sim).rebuild(pair, spare, blocks=10))
        assert pair.secondary is spare

    def test_rebuild_duration_tracks_bandwidth(self):
        sim = Simulator()
        pair, spare = setup_pair(sim, n_written=0)
        pair.primary.stop()
        start = sim.now
        result = sim.run(until=Reconstructor(sim, rebuild_chunk=64).rebuild(
            pair, spare, blocks=1100
        ))
        # 550 MB read + 550 MB written at 5.5 MB/s each, FIFO on separate
        # disks but sequential in the loop: ~200 s total.
        assert result.duration == pytest.approx(200.0, rel=0.05)

    def test_throttle_slows_rebuild(self):
        def duration(throttle):
            sim = Simulator()
            pair, spare = setup_pair(sim, n_written=0)
            pair.primary.stop()
            result = sim.run(
                until=Reconstructor(sim, throttle=throttle).rebuild(pair, spare, 220)
            )
            return result.duration

        assert duration(1.0) > 1.4 * duration(0.0)

    def test_unthrottled_rebuild_hurts_foreground_more(self):
        """The fail-stutter view: rebuild is a performance fault on the
        survivor; throttling trades exposure window for foreground QoS."""

        def foreground_latency(throttle):
            sim = Simulator()
            pair, spare = setup_pair(sim, n_written=0)
            pair.primary.stop()
            Reconstructor(sim, throttle=throttle).rebuild(pair, spare, 2200)
            latencies = []

            def client():
                for __ in range(20):
                    yield sim.timeout(1.0)
                    start = sim.now
                    yield pair.read(50_000, 1)
                    latencies.append(sim.now - start)

            sim.run(until=sim.process(client()))
            return sum(latencies) / len(latencies)

        assert foreground_latency(0.0) > 1.5 * foreground_latency(4.0)

    def test_validation(self):
        sim = Simulator()
        pair, spare = setup_pair(sim, n_written=1)
        with pytest.raises(ValueError):
            Reconstructor(sim, rebuild_chunk=0)
        with pytest.raises(ValueError):
            Reconstructor(sim, throttle=-1.0)
        with pytest.raises(ValueError):
            Reconstructor(sim).rebuild(pair, spare, blocks=10)  # both alive
        pair.primary.stop()
        with pytest.raises(ValueError):
            Reconstructor(sim).rebuild(pair, spare, blocks=0)
        spare.stop()
        with pytest.raises(ValueError):
            Reconstructor(sim).rebuild(pair, spare, blocks=10)
        pair.secondary.stop()
        spare2 = Disk(sim, "s2", uniform_geometry(1000, 5.5), PARAMS)
        with pytest.raises(ValueError):
            Reconstructor(sim).rebuild(pair, spare2, blocks=10)  # none alive


class TestFailStopMidRebuild:
    def test_survivor_failstop_fails_waiters_by_name(self):
        """Losing the survivor mid-rebuild is detectable, not a hang:
        every waiter queued on the dead member gets ComponentStopped
        carrying the component's registered name."""
        sim = System()
        disks = [
            Disk(sim, f"d{i}", uniform_geometry(100_000, 5.5), PARAMS)
            for i in range(4)
        ]
        pair = Raid1Pair(sim, disks[0], disks[1])
        other = Raid1Pair(sim, disks[2], disks[3])
        for lba in range(8):
            sim.run(until=pair.write(lba, 1, value=lba))
        pair.secondary.stop()  # d1 dies; d0 is the survivor being copied
        spare = Disk(sim, "spare", uniform_geometry(100_000, 5.5), PARAMS)

        failures = []

        def rebuild_waiter():
            try:
                yield Reconstructor(sim).rebuild(pair, spare, blocks=1100)
            except ComponentStopped as exc:
                failures.append(exc)

        def queued_reader():
            # Lands in d0's queue behind rebuild I/O before the stop.
            yield sim.timeout(4.0)
            try:
                yield pair.read(50_000, 1)
            except ComponentStopped as exc:
                failures.append(exc)

        sim.process(rebuild_waiter())
        sim.process(queued_reader())
        # Registry wiring: the mid-rebuild fail-stop addresses the
        # survivor purely by its registered name.
        sim.schedule(5.0, sim.components.get("d0").stop)
        sim.run()  # must drain -- nothing may wait forever on the dead disk
        assert len(failures) == 2
        assert all(exc.component == "d0" for exc in failures)
        assert all("d0" in str(exc) for exc in failures)
        # The other mirror pair is untouched by the local disaster.
        assert other.stopped is False
