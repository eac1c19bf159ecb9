"""The switch model, with the paper's three switch fault modes.

Section 2.1.3 documents three distinct misbehaviours of real switches,
all reproduced here on one model:

* **Unfairness** -- "if enough load is placed on a Myrinet switch,
  certain routes receive preference; the result is that the nodes behind
  disfavored links appear 'slower' to a sender, even though they are
  fully capable of receiving data at link rate."  Modeled in the core
  arbiter: under load (pending queue at or past a threshold) favored
  sources win arbitration; at low load service is FIFO.
* **Deadlock recovery** -- "by waiting too long between packets that form
  a logical 'message', the deadlock-detection hardware triggers and
  begins the deadlock recovery process, halting all switch traffic for
  two seconds."  Modeled by per-message gap tracking.
* **Flow control / buffer backpressure** -- the CM-5 result: "once a
  receiver falls behind the others, messages accumulate in the network
  and cause excessive network contention."  Modeled with a shared buffer
  pool: a packet holds a buffer slot from admission until its *receiver*
  consumes it, so one slow receiver fills the pool and stalls everyone.

The switch datapath per packet: admission (buffer slot) -> core arbiter
(crossbar bandwidth) -> output port engine (link bandwidth) -> receiver
drain (node's consumption rate) -> slot released.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..core.component import CompositeComponent
from ..faults.component import DegradableServer
from ..faults.spec import PerformanceSpec
from ..sim.engine import Event, Simulator

__all__ = ["SwitchConfig", "Switch"]


@dataclass(frozen=True)
class SwitchConfig:
    """Parameters of a :class:`Switch`.

    ``core_rate`` is the aggregate crossbar bandwidth (MB/s);
    ``port_rate`` each output link's bandwidth; ``receiver_rate`` the
    default drain rate of attached nodes; ``buffer_packets`` the shared
    pool size.  ``unfair_threshold`` is the pending-packet count at which
    a switch with favored ports starts arbitrating unfairly;
    ``deadlock_gap`` / ``deadlock_stall`` configure the
    deadlock-recovery fault (``deadlock_gap=None`` disables it).
    """

    n_ports: int = 16
    port_rate: float = 40.0
    core_rate: float = 320.0
    receiver_rate: float = 40.0
    buffer_packets: int = 64
    unfair_threshold: int = 8
    unfair_penalty: float = 0.05
    deadlock_gap: Optional[float] = None
    deadlock_stall: float = 2.0

    def __post_init__(self):
        if self.n_ports < 2:
            raise ValueError(f"n_ports must be >= 2, got {self.n_ports}")
        if min(self.port_rate, self.core_rate, self.receiver_rate) <= 0:
            raise ValueError("rates must be > 0")
        if self.buffer_packets < 1:
            raise ValueError(f"buffer_packets must be >= 1, got {self.buffer_packets}")
        if self.unfair_threshold < 0:
            raise ValueError("unfair_threshold must be >= 0")
        if self.unfair_penalty < 0:
            raise ValueError("unfair_penalty must be >= 0")
        if self.deadlock_gap is not None and self.deadlock_gap <= 0:
            raise ValueError("deadlock_gap must be > 0")
        if self.deadlock_stall <= 0:
            raise ValueError("deadlock_stall must be > 0")


@dataclass
class _Packet:
    seq: int
    src: int
    dst: int
    size: float
    favored: bool
    core_done: Event = None  # type: ignore[assignment]


class Switch(CompositeComponent):
    """An output-queued switch with a shared buffer pool.

    ``favored_ports`` marks source ports that win core arbitration when
    the switch is loaded (the unfairness fault); leave empty for a fair
    switch.  Fault injectors may target :attr:`core`, any of
    :attr:`ports` or :attr:`receivers` -- all are degradable servers
    (registered as ``{name}.core`` / ``{name}.port{i}`` / ``{name}.rx{i}``)
    -- or the switch itself by its registered ``name``.
    """

    substrate = "network"

    def __init__(
        self,
        sim: Simulator,
        config: SwitchConfig = SwitchConfig(),
        favored_ports: Optional[Set[int]] = None,
        name: str = "switch",
    ):
        self.sim = sim
        self.config = config
        self.favored_ports = set(favored_ports or ())
        if any(not 0 <= p < config.n_ports for p in self.favored_ports):
            raise ValueError("favored port out of range")
        self.core = DegradableServer(sim, f"{name}.core", config.core_rate)
        self.ports: List[DegradableServer] = [
            DegradableServer(sim, f"{name}.port{i}", config.port_rate)
            for i in range(config.n_ports)
        ]
        self.receivers: List[DegradableServer] = [
            DegradableServer(sim, f"{name}.rx{i}", config.receiver_rate)
            for i in range(config.n_ports)
        ]
        # The crossbar is the switch's aggregate capacity contract.
        self._init_component(
            sim,
            name,
            [self.core] + self.ports + self.receivers,
            PerformanceSpec(config.core_rate),
        )
        self._seq = itertools.count()
        self._free_slots = config.buffer_packets
        self._slot_waiters: List[Event] = []
        self._pending: List[_Packet] = []
        self._arrival: Optional[Event] = None
        self._message_last_seen: Dict[object, float] = {}
        self.deadlock_events = 0
        self.packets_switched = 0
        sim.process(self._arbiter())

    def delivered_rate(self) -> float:
        """The crossbar's delivered bandwidth (the spec's own units)."""
        return self.core.delivered_rate()

    # -- public surface ------------------------------------------------------------

    def send(self, src: int, dst: int, size: float, message_id: Optional[object] = None) -> Event:
        """Move ``size`` MB from port ``src`` to port ``dst``.

        Returns an event that fires when the *receiver* has consumed the
        packet.  ``message_id`` groups packets into a logical message for
        the deadlock-detection fault.
        """
        if not 0 <= src < self.config.n_ports:
            raise ValueError(f"src {src} out of range")
        if not 0 <= dst < self.config.n_ports:
            raise ValueError(f"dst {dst} out of range")
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        if message_id is not None:
            self._check_deadlock(message_id)
        packet = _Packet(
            seq=next(self._seq),
            src=src,
            dst=dst,
            size=size,
            favored=src in self.favored_ports,
        )
        return self.sim.process(self._datapath(packet))

    @property
    def buffered_packets(self) -> int:
        """Packets currently holding buffer slots."""
        return self.config.buffer_packets - self._free_slots

    @property
    def senders_blocked(self) -> int:
        """Senders waiting for a buffer slot (backpressure depth)."""
        return len(self._slot_waiters)

    # -- datapath ----------------------------------------------------------------

    def _datapath(self, packet: _Packet):
        yield self._acquire_slot()
        try:
            packet.core_done = self.sim.event()
            self._pending.append(packet)
            if self._arrival is not None and not self._arrival.triggered:
                self._arrival.succeed(None)
            yield packet.core_done
            yield self.ports[packet.dst].submit(packet.size, tag=packet.seq)
            yield self.receivers[packet.dst].submit(packet.size, tag=packet.seq)
            self.packets_switched += 1
        finally:
            self._release_slot()
        return None

    def _acquire_slot(self) -> Event:
        event = self.sim.event()
        if self._free_slots > 0:
            self._free_slots -= 1
            event.succeed(None)
        else:
            self._slot_waiters.append(event)
        return event

    def _release_slot(self) -> None:
        if self._slot_waiters:
            self._slot_waiters.pop(0).succeed(None)
        else:
            self._free_slots += 1

    def _arbiter(self):
        """Serves pending packets through the core, one at a time.

        FIFO at low load.  Once the switch is loaded (buffer occupancy at
        or past ``unfair_threshold``) a switch with favored ports serves
        favored packets first, and each disfavored packet additionally
        pays ``unfair_penalty`` of arbitration overhead -- wasted core
        time, which is what makes the disfavored routes appear "slower"
        while the rest of the switch has spare capacity.
        """
        while True:
            if not self._pending:
                self._arrival = self.sim.event()
                yield self._arrival
                self._arrival = None
            unfair = (
                self.favored_ports
                and self.buffered_packets >= self.config.unfair_threshold
            )
            if unfair:
                favored = [p for p in self._pending if p.favored]
                packet = favored[0] if favored else self._pending[0]
            else:
                packet = self._pending[0]
            self._pending.remove(packet)
            if unfair and not packet.favored and self.config.unfair_penalty > 0:
                yield self.sim.timeout(self.config.unfair_penalty)
            yield self.core.submit(packet.size, tag=packet.seq)
            packet.core_done.succeed(None)

    # -- deadlock-recovery fault -----------------------------------------------------

    def _check_deadlock(self, message_id: object) -> None:
        now = self.sim.now
        last = self._message_last_seen.get(message_id)
        self._message_last_seen[message_id] = now
        if self.config.deadlock_gap is None or last is None:
            return
        if now - last <= self.config.deadlock_gap:
            return
        # The detector fired: halt all switch traffic for the recovery.
        self.deadlock_events += 1
        source = f"deadlock#{self.deadlock_events}"
        targets = [self.core] + self.ports
        for target in targets:
            target.set_slowdown(source, 0.0)

        def recover():
            yield self.sim.timeout(self.config.deadlock_stall)
            for target in targets:
                target.clear_slowdown(source)

        self.sim.process(recover())

    def end_message(self, message_id: object) -> None:
        """Close a logical message (stops gap tracking for it)."""
        self._message_last_seen.pop(message_id, None)
