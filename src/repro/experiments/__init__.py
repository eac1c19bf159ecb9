"""Experiment runners: one module per row of DESIGN.md's index.

Every module exposes ``run(**params) -> repro.analysis.Table`` with
defaults sized for quick regeneration.  ``ALL_EXPERIMENTS`` maps the
experiment id to its runner.
"""

import inspect
import sys
from typing import Callable, Dict

from ..analysis.report import Table
from ..core.component import SUBSTRATES
from . import (
    a1_notification,
    a2_threshold,
    a3_detectors,
    a4_bookkeeping,
    a5_spec,
    a6_rebuild,
    a7_hedging,
    e01_raid10,
    e02_striping,
    e03_badblocks,
    e04_scsi,
    e05_zones,
    e06_variance,
    e07_unfair,
    e08_transpose,
    e09_deadlock,
    e10_memhog,
    e11_cpuhog,
    e12_dht,
    e13_layout,
    e14_availability,
    e15_cachemask,
    e16_nondeterminism,
    e17_pagecolor,
    e18_membank,
    e19_prediction,
    e20_tlb,
    e21_growth,
    e22_river,
    e23_workload,
    e24_video,
    e25_observer,
    e26_campaign,
    e27_hybrid_scale,
    e28_generative,
    e29_soak,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "experiment_substrates",
]

ALL_EXPERIMENTS: Dict[str, Callable[..., Table]] = {
    "e01": e01_raid10.run,
    "e02": e02_striping.run,
    "e03": e03_badblocks.run,
    "e04": e04_scsi.run,
    "e05": e05_zones.run,
    "e06": e06_variance.run,
    "e07": e07_unfair.run,
    "e08": e08_transpose.run,
    "e09": e09_deadlock.run,
    "e10": e10_memhog.run,
    "e11": e11_cpuhog.run,
    "e12": e12_dht.run,
    "e13": e13_layout.run,
    "e14": e14_availability.run,
    "e15": e15_cachemask.run,
    "e16": e16_nondeterminism.run,
    "e17": e17_pagecolor.run,
    "e18": e18_membank.run,
    "e19": e19_prediction.run,
    "e20": e20_tlb.run,
    "e21": e21_growth.run,
    "e22": e22_river.run,
    "e23": e23_workload.run,
    "e24": e24_video.run,
    "e25": e25_observer.run,
    "e26": e26_campaign.run,
    "e27": e27_hybrid_scale.run,
    "e28": e28_generative.run,
    "e29": e29_soak.run,
    "a1": a1_notification.run,
    "a2": a2_threshold.run,
    "a3": a3_detectors.run,
    "a4": a4_bookkeeping.run,
    "a5": a5_spec.run,
    "a6": a6_rebuild.run,
    "a7": a7_hedging.run,
}


def experiment_substrates() -> Dict[str, str]:
    """Map experiment id -> substrate tag ("storage", "cluster", ...).

    Derived from registry metadata: every component class carries a
    ``substrate`` class attribute (the same field
    :meth:`~repro.core.component.ComponentRegistry.by_substrate` groups
    by), so an experiment's tag is the union of the substrates of the
    component classes its module references.  Experiments exercising
    only the generic machinery tag as ``core``.
    """
    tags: Dict[str, str] = {}
    for key, runner in ALL_EXPERIMENTS.items():
        module = sys.modules[runner.__module__]
        found = set()
        for obj in vars(module).values():
            if not inspect.isclass(obj):
                continue
            substrate = getattr(obj, "substrate", None)
            if substrate in SUBSTRATES and substrate != "core":
                found.add(substrate)
        tags[key] = "+".join(sorted(found)) if found else "core"
    return tags
