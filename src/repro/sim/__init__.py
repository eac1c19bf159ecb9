"""Discrete-event simulation substrate.

The kernel (:mod:`repro.sim.engine`), shared resources
(:mod:`repro.sim.resources`), deterministic randomness
(:mod:`repro.sim.random`), tracing (:mod:`repro.sim.trace`) and metrics
(:mod:`repro.sim.metrics`) on which every simulated component is built,
plus the fluid queue solver (:mod:`repro.sim.fluid`) behind the hybrid
engine.
"""

from .engine import (
    AllOf,
    AnyOf,
    Callback,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .metrics import (
    AvailabilityMeter,
    ExactQuantile,
    LatencyRecorder,
    LatencySummary,
    P2Quantile,
    StreamingMoments,
    ThroughputMeter,
    UtilizationMeter,
)
from .fluid import (
    FluidBlock,
    FluidRamp,
    FluidServer,
    fifo_completions,
    fifo_uniform_ramps,
)
from .random import RandomStreams, derive_seed
from .resources import JobStats, RateServer, Resource, Store
from .trace import Counter, TimeSeries, TraceRecord, Tracer

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Callback",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "Resource",
    "Store",
    "RateServer",
    "JobStats",
    "FluidServer",
    "FluidBlock",
    "FluidRamp",
    "fifo_completions",
    "fifo_uniform_ramps",
    "RandomStreams",
    "derive_seed",
    "Tracer",
    "TraceRecord",
    "TimeSeries",
    "Counter",
    "ThroughputMeter",
    "LatencyRecorder",
    "LatencySummary",
    "UtilizationMeter",
    "AvailabilityMeter",
    "StreamingMoments",
    "P2Quantile",
    "ExactQuantile",
]
