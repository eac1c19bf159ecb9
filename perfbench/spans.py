"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: :func:`instrument` swaps each layer's
public functions and methods for thin wrappers that open a span on entry
and close it on exit, and the returned undo callable puts the originals
back.  Spans are folded into per-layer totals as they close instead of
being kept one by one, because the hot layers (policy hooks, engine
attempts) close ~10^6 spans per pass.

A layer's *self* time is its span duration minus the part its child
spans cover, so the self times of every layer plus the root's own self
time (time no layer claimed) add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "root"


class Tracer:
    """Nested spans, folded into per-layer self time, wall time and calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[list] = []  # [layer, start, time covered by children]
        self._depth: Dict[str, int] = defaultdict(int)
        self._outside = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Wall time per layer, counting only its outermost spans, so a
        #: layer that re-enters itself is not counted twice.
        self.wall_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Work counted at layer boundaries (requests, samples, bytes...).
        self.counts: Dict[str, float] = defaultdict(float)

    def enter(self, layer: str) -> None:
        if not self._stack and layer != ROOT:
            # Outside every root span (the benchmark's own output checks
            # call into the program too): not part of what is measured.
            self._outside += 1
            return
        self._depth[layer] += 1
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        if self._outside:
            self._outside -= 1
            return 0.0
        layer, start, covered = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - covered
        self.calls[layer] += 1
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.wall_s[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def reconcile(self) -> Tuple[float, float]:
        """(sum of every self time, total root duration).

        The two agree to float rounding whenever every span closed inside
        a root span; a gap means a span was left open or closed twice.
        """
        return sum(self.self_s.values()), self.wall_s[ROOT]


# -- instrumentation ------------------------------------------------------------

Observe = Callable[[Tracer, tuple, dict, object], None]


def _wrap(fn, layer: str, tracer: Tracer, observe: Optional[Observe] = None,
          count_raise: Optional[Tuple[type, str]] = None):
    enter, leave = tracer.enter, tracer.exit
    if observe is None and count_raise is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return traced

    @functools.wraps(fn)
    def traced_observed(*args, **kwargs):
        enter(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if count_raise is not None and isinstance(exc, count_raise[0]):
                tracer.counts[count_raise[1]] += 1
            raise
        finally:
            leave()
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result
    return traced_observed


def _count(name: str, amount: Callable[[tuple, object], float] = lambda a, r: 1):
    def observe(tracer, args, kwargs, result):
        tracer.counts[name] += amount(args, result)
    return observe


def _scenario_runs(engine_of: Callable[[object], object]):
    """Count discrete and total requests of one finished scenario run."""
    def observe(tracer, args, kwargs, outcome):
        tracer.counts["discrete_requests"] += len(engine_of(args[0]).requests)
        tracer.counts["requests"] += outcome.n_requests
    return observe


#: Public MitigationPolicy hooks, wrapped on every roster class that
#: defines them itself (inherited ones are already wrapped on the base).
POLICY_HOOKS = ("bind", "start", "pick", "hybrid_action_delay",
                "hybrid_fast_forward", "on_attempt_completed",
                "on_attempt_failed", "retry_elsewhere")

SINK_METHODS = ("write_header", "write_run_start", "write_run_end",
                "write_window", "write_end", "on_record", "flush", "close")


def _targets():
    """(owner, attribute, layer, observe, count_raise) for every span site."""
    from repro.analysis import report
    from repro.core import hybrid
    from repro.faults import campaign
    from repro.policy import POLICIES, MitigationPolicy
    from repro.scenario import compile as compile_mod
    from repro.scenario import generate, sweep
    from repro.sim import engine
    from repro.telemetry import reader, record, replay, sink

    targets = [
        (engine.Simulator, "run", "sim.run", None, None),
        (campaign.CampaignEngine, "attempt", "faults.attempt",
         _count("attempts", lambda a, ok: 1 if ok else 0), None),
        (campaign.CampaignEngine, "preseed_request", "faults.attempt",
         _count("preseeds"), None),
        (campaign.CampaignEngine, "run", "faults.scenario",
         _scenario_runs(lambda e: e), None),
        (campaign, "run_scenario", "faults.scenario", None, None),
        (campaign.CampaignWorkload, "build", "faults.build", None, None),
        (campaign, "generate_scenario", "faults.build", None, None),
        (campaign, "generate_scenarios", "faults.build", None, None),
        (hybrid, "scale_workload", "faults.build", None, None),
        (hybrid, "scale_scenario", "faults.build", None, None),
        (campaign.InvariantOracle, "check", "faults.oracle", None, None),
        (campaign.InvariantOracle, "check_determinism", "faults.oracle", None, None),
        (campaign.ScenarioOutcome, "digest", "faults.digest",
         _count("digest_samples", lambda a, r: len(a[0].latencies)), None),
        (campaign, "run_soak", "faults.fold",
         _count("fold_samples", lambda a, result: result.moments.count), None),
        (campaign, "run_campaign", "faults.score", None, None),
        (hybrid, "run_scenario_hybrid", "core.hybrid", _count("hybrid_runs"),
         (hybrid.HybridInfeasible, "fallbacks")),
        (hybrid.HybridRunner, "run", "core.hybrid",
         _scenario_runs(lambda runner: runner.engine), None),
        (record, "record_soak", "telemetry.sink", None, None),
        (replay, "replay_trace", "telemetry.replay", None, None),
        (reader, "read_trace", "telemetry.replay", None, None),
        (generate, "generate_spec", "scenario.generate", None, None),
        (compile_mod, "compile_spec", "scenario.compile", None, None),
        (sweep, "run_sweep", "scenario.sweep", None, None),
        (report.Table, "render", "analysis.render", None, None),
    ]
    for name in SINK_METHODS:
        observe = _count("records") if name == "on_record" else None
        targets.append((sink.StreamingTraceSink, name, "telemetry.sink", observe, None))
    for cls in (MitigationPolicy, *POLICIES.values()):
        for name in POLICY_HOOKS:
            if name in vars(cls):
                targets.append((cls, name, "policy", None, None))
    return targets


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every span site; returns the callable that unwraps them.

    A module-level function is replaced in its own module *and* in every
    loaded ``repro`` module that imported it by name, so callers that
    bound it with ``from ... import`` are traced too.
    """
    undo: List[Tuple[object, str, object]] = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "repro" or name.startswith("repro."))]
    for owner, name, layer, observe, count_raise in _targets():
        original = vars(owner).get(name)
        if original is None:
            raise LookupError(f"span site {owner.__name__}.{name} no longer "
                              "exists; update perfbench/spans.py")
        wrapped = _wrap(original, layer, tracer, observe, count_raise)
        if isinstance(owner, type):
            undo.append((owner, name, original))
            setattr(owner, name, wrapped)
            continue
        for module in modules:
            if vars(module).get(name) is original:
                undo.append((module, name, original))
                setattr(module, name, wrapped)

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore
