"""Cross-module integration: substrates + core machinery together."""

import random

import pytest

from repro.core import (
    CorrectnessWatchdog,
    FailStutterSystem,
    NotificationPolicy,
    PerformanceStateRegistry,
    PullScheduler,
    ThresholdDetector,
    WeightedRouter,
)
from repro.faults import (
    ComponentState,
    ComponentStopped,
    Fixed,
    PerformanceSpec,
    TransientStutter,
)
from repro.network import Switch, SwitchConfig
from repro.sim import Simulator, derive_seed
from repro.storage import (
    AdaptiveStriping,
    Disk,
    DiskParams,
    Raid1Pair,
    ScsiBus,
    ErrorMix,
    uniform_geometry,
)

PARAMS = DiskParams(rpm=5400, avg_seek=0.011, block_size_mb=0.5)


def make_disk(sim, name="d0", rate=5.5):
    return Disk(sim, name, uniform_geometry(200_000, rate), PARAMS)


class TestWatchdogOverRealDisks:
    def test_wedged_disk_in_pair_promoted_and_survived(self):
        """The watchdog turns a wedged mirror member into a clean
        fail-stop, after which the pair serves from the survivor."""
        sim = Simulator()
        d1, d2 = make_disk(sim, "d1"), make_disk(sim, "d2")
        pair = Raid1Pair(sim, d1, d2)
        spec = PerformanceSpec(nominal_rate=1.0, correctness_timeout=5.0)
        watchdog = CorrectnessWatchdog(sim, spec)
        d1.set_slowdown("wedge", 0.0)

        guarded = watchdog.guard(d1, d1.read(0, 1))
        with pytest.raises((TimeoutError, ComponentStopped)):
            sim.run(until=guarded)
        assert d1.stopped

        # The pair remains available through the survivor.
        sim.run(until=pair.write(0, 1, value=9))
        assert d2.peek(0) == 9


class TestDetectorOverInjectedDisk:
    def test_threshold_detector_sees_injected_stutter(self):
        """End-to-end: injector degrades a disk; a detector fed from the
        disk's real completion stream flags it, then clears."""
        sim = Simulator()
        disk = make_disk(sim)
        spec = PerformanceSpec(nominal_rate=1.0, tolerance=0.2)
        detector = ThresholdDetector(spec, min_samples=3)
        injector = TransientStutter(Fixed(5.0), Fixed(5.0), Fixed(0.25))
        injector.attach(sim, disk, random.Random(0))

        verdicts = []

        def prober():
            while sim.now < 25.0:
                start = sim.now
                stats = yield disk.read(0, 11)  # ~1.02s nominal work
                detector.observe(stats.size, stats.service_time)
                verdicts.append((sim.now, detector.faulty))
                yield sim.timeout(0.2)

        sim.run(until=sim.process(prober()))
        flagged = [t for t, faulty in verdicts if faulty]
        clear = [t for t, faulty in verdicts if not faulty]
        assert flagged, "stutter episodes should trip the detector"
        assert clear, "healthy phases should clear it"
        # The first flag lands during/after the first episode at t=5.
        assert min(flagged) > 5.0


class TestRegistryOverScsiArray:
    def test_full_storage_stack_reports_states(self):
        """SCSI resets + a static skew flow from real hardware models
        through detectors into the registry."""
        sim = Simulator()
        disks = [make_disk(sim, f"d{i}") for i in range(4)]
        disks[2].set_slowdown("skew", 0.3)
        bus = ScsiBus(
            sim,
            disks,
            error_interarrival=Fixed(7.0),
            reset_duration=Fixed(1.0),
            mix=ErrorMix(timeout=1.0, parity=0.0, network=0.0, other=0.0),
            rng=random.Random(1),
        )
        bus.start()
        registry = PerformanceStateRegistry(sim, policy=NotificationPolicy.IMMEDIATE)
        spec = PerformanceSpec(nominal_rate=1.0, tolerance=0.3)
        detectors = {d.name: ThresholdDetector(spec, min_samples=3) for d in disks}

        def monitor(disk):
            while sim.now < 30.0:
                stats = yield disk.read(1000, 11)
                det = detectors[disk.name]
                det.observe(stats.size, stats.service_time)
                state = (
                    ComponentState.DEGRADED if det.faulty else ComponentState.OK
                )
                registry.report(disk.name, state)
                yield sim.timeout(0.5)

        for disk in disks:
            sim.process(monitor(disk))
        sim.run(until=35.0)
        assert "d2" in registry.degraded_components()
        assert registry.notifications_sent == 0  # nobody subscribed
        assert bus.reset_count >= 3


class TestSystemOverSwitchReceivers:
    def test_weighted_router_avoids_slow_switch_port(self):
        """FailStutterSystem fronting switch port engines -- the same
        routing machinery works over the network substrate."""
        sim = Simulator()
        switch = Switch(sim, SwitchConfig(n_ports=4, port_rate=10.0))
        spec = PerformanceSpec(nominal_rate=10.0, tolerance=0.2)
        system = FailStutterSystem(sim, switch.ports, spec, router=WeightedRouter())
        switch.ports[1].set_slowdown("congestion", 0.1)

        responses = []

        def one():
            rt = yield system.submit(1.0)
            responses.append(rt)

        def source():
            for __ in range(60):
                sim.process(one())
                yield sim.timeout(0.1)

        sim.process(source())
        sim.run(until=100.0)
        assert len(responses) == 60
        # The congested port serves almost nothing once estimated.
        assert switch.ports[1].jobs_completed < 10


class TestPullOverDisks:
    def test_pull_scheduler_balances_real_disk_io(self):
        sim = Simulator()
        disks = [make_disk(sim, f"d{i}") for i in range(4)]
        disks[0].set_slowdown("skew", 0.25)
        next_lba = [0] * 4

        def execute(worker, blocks):
            lba = next_lba[worker]
            next_lba[worker] += blocks
            return disks[worker].write(lba, blocks, value=1)

        result = sim.run(until=PullScheduler().run(sim, [8] * 40, 4, execute))
        counts = result.tasks_per_worker(4)
        assert counts[0] < min(counts[1:])
        assert sum(counts) == 40


class TestFullStackDeterminism:
    def test_same_seed_same_everything(self):
        """A seeded run mixing injectors, SCSI resets and adaptive
        striping reproduces its result exactly."""

        def run_once(seed):
            sim = Simulator()
            disks = [make_disk(sim, f"d{i}") for i in range(8)]
            pairs = [
                Raid1Pair(sim, disks[2 * i], disks[2 * i + 1]) for i in range(4)
            ]
            from repro.faults import Exponential, Uniform

            TransientStutter(
                Exponential(3.0), Uniform(0.5, 1.5), Uniform(0.2, 0.8)
            ).attach(sim, disks[0], random.Random(derive_seed(seed, "stutter")))
            bus = ScsiBus(
                sim,
                disks,
                error_interarrival=Exponential(9.0),
                reset_duration=Uniform(0.2, 1.0),
                mix=ErrorMix(timeout=1.0, parity=0.0, network=0.0, other=0.0),
                rng=random.Random(derive_seed(seed, "bus")),
            )
            bus.start()
            result = sim.run(
                until=AdaptiveStriping().run(sim, pairs, 200, block_value=1)
            )
            return (result.duration, tuple(result.blocks_per_pair),
                    tuple(sorted(result.block_map.items())))

        assert run_once(5) == run_once(5)
        assert run_once(5) != run_once(6)
