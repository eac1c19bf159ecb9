"""The paper's contribution: fail-stutter fault tolerance mechanisms.

* :mod:`repro.core.estimator` -- online service-rate estimation.
* :mod:`repro.core.detection` -- performance-fault detectors and the
  correctness watchdog (threshold *T*).
* :mod:`repro.core.registry` -- the performance-state export with
  notification policies.
* :mod:`repro.core.allocation` -- largest-remainder work apportioning.
* :mod:`repro.core.pull` -- pull-based (River-style) scheduling.
* :mod:`repro.core.hedging` -- Shasha & Turek slow-down tolerance via
  duplicated tasks.
* :mod:`repro.core.aimd` -- TCP-style rate adaptation.
* :mod:`repro.core.system` -- the assembled FailStutterSystem and
  routing policies, plus :class:`System` (simulator + component
  registry + telemetry bus).
* :mod:`repro.core.component` -- the unified Component protocol,
  ComponentRegistry, and TelemetryBus.
"""

from .aimd import AimdController, AimdResult, AimdSender
from .allocation import apportion
from .component import (
    SUBSTRATES,
    TELEMETRY_KINDS,
    Component,
    ComponentRegistry,
    CompositeComponent,
    DetectorBinding,
    TelemetryBus,
)
from .detection import (
    CorrectnessWatchdog,
    Detector,
    EwmaDetector,
    PeerComparisonDetector,
    ThresholdDetector,
)
from .estimator import EwmaRateEstimator, RateEstimator, WindowedRateEstimator
from .formal import (
    FailStutterAutomaton,
    FsEvent,
    FsState,
    Violation,
    check_trace,
    trace_of,
)
from .hedging import HedgeResult, HedgingScheduler
from .prediction import PredictionOutcome, StutterTrendPredictor, score_predictions
from .pull import PullScheduler, ScheduleResult
from .registry import NotificationPolicy, PerformanceStateRegistry, StateReport
from .river import DistributedQueue, DqResult
from .system import (
    FailStutterSystem,
    JsqRouter,
    RoundRobinRouter,
    Router,
    System,
    WeightedRouter,
)

# repro.core.hybrid sits above repro.faults.campaign, which needs
# repro.policy, which needs repro.core.estimator -- importing it eagerly
# here would close that loop whenever repro.policy is imported first.
_HYBRID_NAMES = (
    "HybridInfeasible",
    "HybridRunner",
    "run_scenario_hybrid",
    "scale_scenario",
    "scale_workload",
)


def __getattr__(name):
    if name in _HYBRID_NAMES:
        from . import hybrid

        value = getattr(hybrid, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SUBSTRATES",
    "TELEMETRY_KINDS",
    "Component",
    "ComponentRegistry",
    "CompositeComponent",
    "DetectorBinding",
    "TelemetryBus",
    "System",
    "RateEstimator",
    "WindowedRateEstimator",
    "EwmaRateEstimator",
    "Detector",
    "ThresholdDetector",
    "EwmaDetector",
    "PeerComparisonDetector",
    "CorrectnessWatchdog",
    "NotificationPolicy",
    "PerformanceStateRegistry",
    "StateReport",
    "apportion",
    "PullScheduler",
    "ScheduleResult",
    "DistributedQueue",
    "DqResult",
    "HedgingScheduler",
    "HedgeResult",
    "HybridInfeasible",
    "HybridRunner",
    "run_scenario_hybrid",
    "scale_scenario",
    "scale_workload",
    "StutterTrendPredictor",
    "PredictionOutcome",
    "score_predictions",
    "FailStutterAutomaton",
    "FsEvent",
    "FsState",
    "Violation",
    "check_trace",
    "trace_of",
    "AimdController",
    "AimdSender",
    "AimdResult",
    "Router",
    "RoundRobinRouter",
    "JsqRouter",
    "WeightedRouter",
    "FailStutterSystem",
]
