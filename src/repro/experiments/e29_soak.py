"""E29: soak campaign -- rolling-window detection of a mid-soak stutter.

Section 5's research agenda asks how operators *notice* performance
faults in deployed systems: "environmental conditions are difficult to
control" and a fault can arrive hours into an otherwise healthy run.
This experiment drives the production-observability loop end to end: a
long-horizon soak campaign (:func:`repro.faults.campaign.run_soak`) on
the hybrid engine at a million clients per window, a *quiet* baseline
(no random injectors), and one designated correlated stutter planted
mid-soak on mirror pair ``d0``/``d1`` under the ``no-mitigation``
policy -- the fail-oblivious strawman, so the fault shows up in the
latency tail instead of being routed around.

What the table shows: the per-window and rolling scorecards (exact
numpy folds of each window's samples and of the trailing windows'
samples together, as a production dashboard would roll them) stay flat
through the quiet windows, then flag the onset window -- the
``flagged`` column is driven purely by the rolling SLO-violation count
crossing zero.  The note reports the **detection latency**: the gap
between the stutter's global onset time and the end of the first
flagged window, i.e. how long a window-granularity rolling monitor
takes to surface a stutter embedded in ~50 virtual hours of healthy
traffic.  Memory stays O(rolling x window size) no matter the horizon;
``tests/faults/test_outcome_columnar.py`` pins the flatness claim.
"""

from __future__ import annotations

from dataclasses import replace

from ..analysis.report import Table
from ..faults.campaign import WORKLOADS, FaultEvent, run_soak

__all__ = ["run"]


def run(
    seed: int = 7,
    n_windows: int = 6,
    onset_window: int = 3,
    n_requests: int = 1_000_000,
    rolling: int = 3,
    stutter_factor: float = 0.05,
    engine: str = "hybrid",
) -> Table:
    """Regenerate the E29 soak-detection table."""
    if not 0 <= onset_window < n_windows:
        raise ValueError(
            f"onset_window {onset_window} outside soak windows 0..{n_windows - 1}"
        )
    workload = replace(WORKLOADS["raid10"], n_requests=n_requests)
    span = workload.horizon
    # Mid-window onset, deep correlated stutter on one whole mirror pair:
    # with both replicas slowed to stutter_factor of nominal, service
    # time blows past the 12x SLO and no routing choice can hide it.
    onset_local = 0.5 * workload.span
    duration = 60.0 * workload.expected_service
    stutter = [
        (onset_window, FaultEvent(member, "stutter", onset=onset_local,
                                  duration=duration, factor=stutter_factor))
        for member in ("d0", "d1")
    ]
    result = run_soak(
        seed=seed,
        workload=workload,
        family="magnitude",
        policy="no-mitigation",
        n_windows=n_windows,
        injectors_per_window=0,  # quiet baseline: only the planted stutter
        engine=engine,
        rolling=rolling,
        extra_events=stutter,
        retain_windows=True,
    )
    onset_global = onset_window * span + onset_local
    flagged = next(
        (w for w in result.windows if w.rolling_slo_violations > 0), None
    )
    table = Table(
        f"E29: mid-soak stutter onset vs rolling-window detection "
        f"({result.engine}, seed {seed}, {n_requests} clients/window, "
        f"{result.horizon / 3600.0:.0f}h virtual)",
        [
            "window", "start_h", "requests", "injectors", "mean_s",
            "roll_p99_s", "roll_slo_viol", "flagged", "oracle",
        ],
    )
    for w in result.windows:
        table.add_row(
            w.index,
            w.start / 3600.0,
            w.requests,
            w.injectors,
            w.moments.mean if w.moments.count else 0.0,
            w.rolling_p99,
            w.rolling_slo_violations,
            ("ONSET" if flagged is not None and w.index == flagged.index
             else ""),
            "ok" if not w.violations else f"VIOLATED({len(w.violations)})",
        )
    if flagged is not None:
        latency = flagged.end - onset_global
        detection = (
            f"stutter onset at t={onset_global:.0f}s (window {onset_window}, "
            f"{onset_global / 3600.0:.1f}h in); first flagged rolling "
            f"scorecard is window {flagged.index}, giving a detection "
            f"latency of {latency:.0f}s ({latency / 3600.0:.2f}h) at "
            "window granularity"
        )
    else:
        detection = (
            f"stutter onset at t={onset_global:.0f}s was NOT flagged by the "
            "rolling scorecard -- detection failed"
        )
    table.note = (
        "Quiet soak baseline (no random injectors) with one correlated "
        f"stutter planted on mirror pair d0/d1 (factor {stutter_factor}, "
        f"{duration:.1f}s) under the no-mitigation policy.  roll_* columns "
        f"cover the trailing {rolling} windows' samples together; every "
        f"latency column is exact (mean and np.quantile over the "
        f"retained samples).  {detection}."
    )
    return table
