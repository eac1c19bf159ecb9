"""One workload in one fresh process: set up, run passes, report JSON.

``run.py`` starts this once per set-up sample and once per measurement;
it is not meant to be run by hand.  The last line of standard output is
one JSON object with what the process measured.

Modes:

* ``setup``: build the workload's inputs and report the set-up time only.
* ``measure``: then run untraced passes until ``--seconds`` have gone
  (at least ``MIN_PASSES``), reporting the process's peak RSS and each
  pass's program time as host-speed intervals (see ``hostspeed.py``).
* ``trace``: alternate untraced and traced passes until ``--seconds``
  have gone, and report per-layer times and counts per traced pass,
  the tracing overhead and the span self-check.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import hostspeed
import spans

ROOT = Path(__file__).resolve().parent.parent

#: The ROADMAP's reconciliation rule: spans must cover 95% of a pass.
MAX_UNATTRIBUTED_SHARE = 0.05
#: Untraced passes a measuring run makes however long they take, so the
#: median has something to choose from.  A traced run makes at least one
#: untraced and one traced pass.
MIN_PASSES = 3


class Context:
    """What a workload pass sees: timed sections, layer spans, counters."""

    def __init__(self, tracer=None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler
        self.wall = 0.0

    @contextmanager
    def section(self):
        tracer, sampler = self.tracer, self.sampler
        if tracer is not None:
            tracer.enter(spans.ROOT)
        if sampler is not None:
            sampler.open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - start
            if sampler is not None:
                sampler.close()
            if tracer is not None:
                tracer.exit()

    def span(self, layer: str):
        return nullcontext() if self.tracer is None else self._span(layer)

    @contextmanager
    def _span(self, layer: str):
        self.tracer.enter(layer)
        try:
            yield
        finally:
            self.tracer.exit()

    def count(self, name: str, amount: float) -> None:
        if self.tracer is not None:
            self.tracer.counts[name] += amount


def layer_metrics(tracer, n_passes: int, substrates) -> dict:
    """Per-layer figures, averaged over ``n_passes`` traced passes."""
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    discrete = counts["discrete_requests"]
    requests = counts["requests"]
    metrics = {
        "sim.run_self_s": self_s["sim.run"],
        "sim.run_calls": calls["sim.run"],
        "policy.self_s": self_s["policy"],
        "policy.calls": calls["policy"],
        "faults.attempt_self_s": self_s["faults.attempt"],
        "faults.attempts": counts["attempts"],
        "faults.preseeds": counts["preseeds"],
        "faults.discrete_requests": discrete,
        "faults.requests": requests,
        "faults.build_s": self_s["faults.build"],
        "faults.scenario_self_s": self_s["faults.scenario"],
        "faults.oracle_s": self_s["faults.oracle"],
        "faults.digest_s": self_s["faults.digest"],
        "faults.digest_calls": calls["faults.digest"],
        "faults.digest_samples": counts["digest_samples"],
        "faults.fold_s": self_s["faults.fold"],
        "faults.fold_samples": counts["fold_samples"],
        "faults.score_s": self_s["faults.score"],
        "core.hybrid_self_s": self_s["core.hybrid"],
        "core.hybrid_runs": counts["hybrid_runs"],
        "core.fallbacks": counts["fallbacks"],
        "telemetry.sink_s": self_s["telemetry.sink"],
        "telemetry.records": counts["records"],
        "telemetry.trace_bytes": counts["trace_bytes"],
        "telemetry.replay_s": self_s["telemetry.replay"],
        "scenario.generate_s": self_s["scenario.generate"],
        "scenario.compile_s": self_s["scenario.compile"],
        "scenario.sweep_self_s": self_s["scenario.sweep"],
        "analysis.render_s": self_s["analysis.render"],
        "trace.root_s": tracer.wall_s[spans.ROOT],
        "trace.unattributed_s": self_s[spans.ROOT],
    }
    for substrate in substrates:
        layer = "experiments." + substrate
        metrics[layer + "_s"] = tracer.wall_s[layer]
    metrics = {name: value / n_passes for name, value in metrics.items()}
    # Ratios of per-pass figures are ratios of the totals.
    metrics["faults.fluid_share"] = 1.0 - discrete / requests if requests else 0.0
    metrics["faults.attempts_per_request"] = (
        (counts["attempts"] + counts["preseeds"]) / discrete if discrete else 0.0
    )
    return metrics


def span_problems(tracer) -> list:
    """The self-check: self times must add up to the root, which they cover."""
    problems = []
    if tracer.open_spans:
        problems.append(f"{tracer.open_spans} spans left open")
    covered, root = tracer.reconcile()
    if abs(covered - root) > 1e-6 * root + 1e-9:
        problems.append(f"self times sum to {covered!r}s, root spans to {root!r}s")
    share = tracer.self_s[spans.ROOT] / root if root else 1.0
    if share > MAX_UNATTRIBUTED_SHARE:
        problems.append(f"{share:.1%} of traced time is in no layer span")
    return problems


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.time() just before starting this process")
    args = parser.parse_args()

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no program source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    # Set-up is timed from the parent's spawn: the interpreter's own start
    # as plain seconds, everything after it sampled like a pass.
    sampler = hostspeed.Sampler() if args.mode != "trace" else None
    setup_start = time.time()
    if sampler is not None:
        sampler.start()
        sampler.open()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, Path(args.scratch))
    setup = {"start_s": setup_start - args.spawned_at,
             "plain_s": time.time() - args.spawned_at}
    if sampler is not None:
        sampler.close()
        setup["intervals"] = sampler.take()
    if args.mode == "setup":
        sampler.stop()
        emit({"setup": setup})
        return 0

    tracer = spans.Tracer() if args.mode == "trace" else None
    walls, traced_walls, passes = [], [], []
    attempted = failed = sim_requests = ops_per_pass = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        ctx = Context(sampler=sampler)
        tally = workload.run_pass(ctx)
        walls.append(ctx.wall)
        if sampler is not None:
            passes.append(sampler.take())
        attempted += tally.attempted
        failed += tally.failed
        sim_requests = tally.sim_requests
        ops_per_pass = tally.attempted
        if tracer is not None:
            ctx = Context(tracer)
            restore = spans.instrument(tracer)
            try:
                tally = workload.run_pass(ctx)
            finally:
                restore()
            traced_walls.append(ctx.wall)
            attempted += tally.attempted
            failed += tally.failed
        if time.perf_counter() >= deadline and (tracer is not None
                                                or len(walls) >= MIN_PASSES):
            break
    if sampler is not None:
        sampler.stop()

    result = {
        "setup": setup,
        "walls": walls,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "sim_requests": sim_requests,
        "ops_per_pass": ops_per_pass,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, len(traced_walls), workloads.SUBSTRATES)
        layers["trace.overhead"] = (statistics.median(traced_walls)
                                    / statistics.median(walls))
        layers["p99_rel_err"] = (workload.p99_rel_err()
                                 if hasattr(workload, "p99_rel_err") else 0.0)
        result["traced_walls"] = traced_walls
        result["layers"] = layers
        result["span_problems"] = span_problems(tracer)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
