"""repro -- fail-stutter fault tolerance, reproduced.

A simulation-backed implementation of the fail-stutter fault model from
"Fail-Stutter Fault Tolerance" (Remzi H. Arpaci-Dusseau and Andrea C.
Arpaci-Dusseau, HotOS VIII, 2001), together with the storage, network,
processor and cluster substrates needed to reproduce every quantitative
claim in the paper.

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel, resources, metrics.
``repro.faults``
    The fault model (fail-stop vs. fail-stutter) and fault injectors.
``repro.storage``
    Disks, SCSI buses, RAID levels and striping policies.
``repro.network``
    Links, switches (with unfairness / deadlock / flow-control faults).
``repro.processor``
    Trace-driven cache, TLB, next-field predictor, page-coloring and
    memory-bank models.
``repro.cluster``
    Nodes, parallel sort, replicated DHT, interactive workloads.
``repro.core``
    The paper's contribution: detectors, the performance-state registry,
    pull / hedging / AIMD / River adaptation, and the hybrid
    fluid/discrete engine.
``repro.policy``
    Mitigation policies the fault campaign scores against each other.
``repro.scenario``
    Scenarios as data: spec loading, compilation and generative sweeps.
``repro.telemetry``
    Streaming trace export, replay and verification.
``repro.analysis``
    Table rendering.
``repro.experiments``
    One module per experiment in DESIGN.md (E1..E29, A1..A7).
"""

__version__ = "0.1.0"

# Convenience re-exports: the names a downstream user reaches for first.
from .faults.component import DegradableServer
from .faults.model import ComponentState, ComponentStopped, FaultModel
from .faults.spec import PerformanceSpec
from .sim.engine import Simulator

__all__ = [
    "__version__",
    "Simulator",
    "FaultModel",
    "ComponentState",
    "ComponentStopped",
    "DegradableServer",
    "PerformanceSpec",
]
