"""The fail-stutter fault model and fault injection.

* :mod:`repro.faults.model` -- fault taxonomy and the ``DegradableMixin``
  interface every injectable component implements.
* :mod:`repro.faults.spec` -- performance specifications (Section 3.1).
* :mod:`repro.faults.distributions` -- sampling laws for fault schedules.
* :mod:`repro.faults.injector` / :mod:`repro.faults.library` -- the
  injection framework and the concrete faults from the paper's survey.
* :mod:`repro.faults.campaign` -- seeded scenario families swept under
  the mitigation policies of :mod:`repro.policy`, with an invariant
  oracle (imported explicitly, not re-exported here, because it builds
  on :mod:`repro.core` which in turn builds on this package).
"""

from .distributions import Distribution, Exponential, Fixed, Uniform
from .component import DegradableServer
from .injector import FaultInjector, InjectorHandle
from .library import (
    IntermittentOffline,
    InterferenceLoad,
    PeriodicBackground,
    StaticSkew,
    TransientStutter,
)
from .model import (
    ComponentState,
    ComponentStopped,
    CorrectnessFault,
    DegradableMixin,
    FaultModel,
    PerformanceFault,
    register_component,
)
from .spec import BandedSpec, PerformanceSpec

__all__ = [
    "FaultModel",
    "ComponentState",
    "ComponentStopped",
    "CorrectnessFault",
    "PerformanceFault",
    "DegradableMixin",
    "DegradableServer",
    "register_component",
    "PerformanceSpec",
    "BandedSpec",
    "Distribution",
    "Fixed",
    "Uniform",
    "Exponential",
    "FaultInjector",
    "InjectorHandle",
    "StaticSkew",
    "TransientStutter",
    "PeriodicBackground",
    "IntermittentOffline",
    "InterferenceLoad",
]
