"""A degradable work server: the canonical injectable component.

Almost every simulated device in the library -- disk transfer engines,
network links, CPU cores -- is "a FIFO server whose rate faults can
push around".  :class:`DegradableServer` packages that once:
:class:`~repro.sim.resources.RateServer` for the queueing behaviour plus
:class:`~repro.faults.model.DegradableMixin` for the fault surface,
with submission guarded by the fail-stop check.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.engine import Event, Simulator
from ..sim.resources import RateServer
from .model import ComponentStopped, DegradableMixin, register_component
from .spec import PerformanceSpec

__all__ = ["DegradableServer"]


class DegradableServer(DegradableMixin):
    """A FIFO work server with the full fail-stutter fault surface.

    ``submit(size)`` behaves like :meth:`RateServer.submit` while the
    component is alive: it returns the job, an event that succeeds with
    the job's :class:`~repro.sim.resources.JobStats`.  After :meth:`stop`
    (fail-stop), submission raises :class:`ComponentStopped` immediately
    -- the detectable-halt semantics of Schneider's definition -- and the
    job in service and every queued job are failed with the same
    exception so waiters learn of the failure.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        nominal_rate: float,
        spec: Optional[PerformanceSpec] = None,
    ):
        self.sim = sim
        # The mixin validates the nominal rate first, so a bad one raises
        # the same ValueError whatever is wrong with it.
        self._init_degradable(name, nominal_rate)
        self._server = RateServer(sim, nominal_rate, name=name)
        self.attach_spec(spec if spec is not None else PerformanceSpec(nominal_rate))
        register_component(sim, self)

    # -- DegradableMixin hooks -------------------------------------------------

    def _apply_rate(self, rate: float) -> None:
        self._server.set_rate(rate)

    def _now(self) -> float:
        return self.sim.now

    # -- work surface -------------------------------------------------------------

    def submit(self, size: float, tag: Any = None) -> Event:
        """Enqueue ``size`` units of work; event fires with JobStats.

        Raises :class:`ComponentStopped` if the component has fail-stopped.
        """
        if self._stopped:
            raise ComponentStopped(self.name)
        job = self._server.submit(size, tag=tag)
        # Completion telemetry is pay-for-what-you-use: the callback is
        # only attached when a bus is bound AND someone listens to us.
        telemetry = self._telemetry
        if (
            telemetry is not None
            and telemetry.active
            and telemetry.wants(self.name)
        ):
            job.callbacks.append(self._report_completion)
        return job

    def _report_completion(self, event: Event) -> None:
        """Publish (work, duration) for one finished job on the bus."""
        if not event._ok:
            return
        stats = event._value
        self._telemetry.completion(self.name, stats.size, stats.service_time)

    def stop(self, cause: str = "fail-stop") -> None:
        """Fail-stop: halt, fail all in-flight work detectably.

        The wrapped server's unfinished jobs are its in-service job and
        its queue, so they are failed in that order: submission order.
        A job that completed at this instant is no longer among them.
        """
        already = self._stopped
        super().stop(cause)
        if already:
            return
        # Fail in-service/queued jobs so waiters detect the failure rather
        # than hanging forever on a rate-0 server.
        server = self._server
        unfinished = list(server._queue)
        if server._current is not None:
            unfinished.insert(0, server._current)
        for job in unfinished:
            if not job.triggered:
                job.fail(ComponentStopped(self.name))
                # Pre-defuse: waiters still receive the exception, but a
                # fire-and-forget write does not crash the simulation.
                job._defused = True

    def drain(self) -> Event:
        """Event firing when the server next goes idle."""
        return self._server.drain()

    # -- passthrough metrics -------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Jobs waiting behind the one in service."""
        return self._server.queue_length

    @property
    def busy(self) -> bool:
        """True while a job is in service."""
        return self._server.busy

    @property
    def backlog(self) -> int:
        """Jobs queued plus the one in service, read in one step.

        Routing reads this per candidate per pick, so it looks at the
        wrapped server's state directly instead of adding
        :attr:`queue_length` and :attr:`busy`.
        """
        server = self._server
        return len(server._queue) + (server._current is not None)

    def completion_eta(self) -> Optional[float]:
        """When the in-service job completes (None if idle or frozen)."""
        return self._server.completion_eta()

    @property
    def jobs_completed(self) -> int:
        """Total jobs served."""
        return self._server.jobs_completed

    @property
    def work_completed(self) -> float:
        """Total work units served."""
        return self._server.work_completed

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Busy fraction (see :meth:`RateServer.utilization`)."""
        return self._server.utilization(elapsed)

    def __repr__(self) -> str:
        return (
            f"<DegradableServer {self.name} rate={self.effective_rate:.3g}"
            f"/{self.nominal_rate:.3g} state={self.state.value}>"
        )
