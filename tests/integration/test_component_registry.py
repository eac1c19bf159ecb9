"""Acceptance test for the unified Component protocol.

One System hosting every public component class of the storage, network
and cluster substrates: each must be reachable through
``System.components`` with a non-None spec, and both a fault injector
and a ThresholdDetector must attach to each purely by its registered
name -- no object references.  The processor substrate has no component
class: its cache, TLB and memory-bank models are plain cost models that
the processor experiments drive directly.
"""

from repro.cluster import Memory, Node, ReplicatedDht
from repro.core import System
from repro.faults import StaticSkew
from repro.network import Fabric, Link, Switch
from repro.storage import (
    Disk,
    DiskParams,
    Raid0,
    Raid1Pair,
    ScsiBus,
    uniform_geometry,
)

PARAMS = DiskParams(rpm=5400, avg_seek=0.011, block_size_mb=0.5)


def make_disk(sim, name):
    return Disk(sim, name, uniform_geometry(10_000, 5.5), PARAMS)


def build_full_system():
    """One instance of every public component class, one registry."""
    sim = System()

    # storage: Disk, ScsiBus, Raid0, Raid1Pair
    disks = [make_disk(sim, f"d{i}") for i in range(4)]
    Raid1Pair(sim, disks[0], disks[1])
    Raid1Pair(sim, disks[2], disks[3])
    Raid0(sim, [make_disk(sim, f"r0d{i}") for i in range(2)], name="raid0")
    ScsiBus(sim, [make_disk(sim, f"busd{i}") for i in range(2)], name="scsi0")

    # network: Link, Switch, Fabric
    Link(sim, "link0", bandwidth=100.0)
    Switch(sim, name="sw0")
    fabric = Fabric(sim, name="fabric")
    fabric.add_link("n1", "n2", bandwidth=50.0)

    # cluster: Memory, Node, ReplicatedDht
    Memory(256.0, sim, "mem0")
    Node(sim, "node0")
    ReplicatedDht(sim, n_pairs=2, name="dht0")

    expected_types = {
        "storage": {Disk, ScsiBus, Raid0, Raid1Pair},
        "network": {Link, Switch, Fabric},
        "cluster": {Memory, Node, ReplicatedDht},
    }
    return sim, expected_types


class TestEveryComponentRegisters:
    def test_every_public_class_reachable_with_spec(self):
        sim, expected_types = build_full_system()
        for substrate, types in expected_types.items():
            found = {
                type(c) for c in sim.components.by_substrate(substrate)
            }
            missing = {t.__name__ for t in types} - {t.__name__ for t in found}
            assert not missing, f"{substrate} classes not registered: {missing}"
        for component in sim.components:
            assert component.spec is not None, (
                f"{component.name} registered without a spec"
            )
            assert component.spec.nominal_rate > 0

    def test_injector_attaches_to_every_component_by_name(self):
        sim, __ = build_full_system()
        names = sim.components.names()
        handles = [sim.inject(name, StaticSkew(0.5)) for name in names]
        sim.run(until=1.0)
        # Every leaf rate actually moved: delivered capacity is below
        # nominal wherever the component reports a spec'd rate.
        degraded = [
            name
            for name in names
            if sim.components.get(name).delivered_rate()
            < sim.components.get(name).spec.nominal_rate
        ]
        assert len(degraded) >= len(names) * 0.8  # composites may mask exact math
        for handle in handles:
            handle.cancel()

    def test_detector_watches_every_component_by_name(self):
        sim, __ = build_full_system()
        bindings = {name: sim.watch(name) for name in sim.components.names()}
        assert all(not b.faulty for b in bindings.values())
        # Drive one substrate end-to-end to show the default detector
        # consumes real completion telemetry: slow a disk, do I/O.
        sim.inject("d0", StaticSkew(0.2))
        disk = sim.components.get("d0")

        def load():
            for lba in range(12):
                yield disk.read(lba, 1)

        sim.run(until=sim.process(load()))
        assert bindings["d0"].faulty
        assert bindings["d1"].faulty is False

    def test_registry_is_isolated_per_system(self):
        sim_a, __ = build_full_system()
        sim_b = System()
        assert len(sim_b.components) == 0
        assert len(sim_a.components) > 0
