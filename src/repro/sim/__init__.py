"""Discrete-event simulation substrate.

The kernel (:mod:`repro.sim.engine`), shared resources
(:mod:`repro.sim.resources`), deterministic randomness
(:mod:`repro.sim.random`), telemetry records (:mod:`repro.sim.trace`) and
metrics (:mod:`repro.sim.metrics`) on which every simulated component
is built, plus the closed-form FIFO response times
(:mod:`repro.sim.fluid`) behind the hybrid engine.
"""

from .engine import (
    AllOf,
    AnyOf,
    Callback,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .metrics import (
    AvailabilityMeter,
    ExactQuantile,
    LatencySummary,
    StreamingMoments,
)
from .fluid import fifo_uniform_ramps
from .random import derive_seed
from .resources import JobStats, RateServer, Store
from .trace import TraceRecord

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Callback",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "Store",
    "RateServer",
    "JobStats",
    "fifo_uniform_ramps",
    "derive_seed",
    "TraceRecord",
    "LatencySummary",
    "AvailabilityMeter",
    "StreamingMoments",
    "ExactQuantile",
]
