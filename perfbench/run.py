"""Run one benchmark workload, or all of them, and print the metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced

Workloads: ``campaign``, ``scale``, ``soak`` and ``tables`` (see
``perfbench/README.md``).  Every measurement runs in its own fresh,
single-threaded child process (``perfbench/child.py``), one at a time.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median over several fresh processes) and ``peak_rss_mb``.
Both times are quiet-host seconds: other tenants' share of the host is
taken out of them with ``perfbench/hostspeed.py``.
``--trace 1`` reports the per-layer metrics of a traced run instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it say the same for a reader.  The metric names and units are the ones
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "scale", "soak", "tables")

#: Fresh processes that only set up, on top of the measuring one.
SETUP_SAMPLES = 5
#: Every child of one run must have ended this long after the run began.
RUN_BUDGET_S = 170


class ChildFailed(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, seconds: float, scratch: Path,
          deadline: float) -> dict:
    """Run one child process to completion by ``deadline``; its JSON report."""
    timeout = max(1.0, deadline - time.monotonic())
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
               "--scratch", str(scratch), "--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode} child ran past {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} {mode} child exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload} {mode} child printed no report")
    return json.loads(lines[-1])


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in manifest[kind]}
            for kind in ("end_to_end", "per_layer")}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: {correct, attempted, failed, metrics, notes}."""
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if trace:
            child = spawn("trace", workload, seed, seconds, scratch, deadline)
            values = child["layers"]
            problems = child["span_problems"]
        else:
            setups = [spawn("setup", workload, seed, seconds, scratch,
                            deadline)["setup"]
                      for __ in range(SETUP_SAMPLES)]
            child = spawn("measure", workload, seed, seconds, scratch, deadline)
            setups.append(child["setup"])
            values = {
                "wall_s": statistics.median(hostspeed.quiet_time(p)
                                            for p in child["passes"]),
                "setup_s": statistics.median(
                    s["start_s"] + hostspeed.quiet_time(s["intervals"])
                    for s in setups),
                "peak_rss_mb": child["peak_rss_mb"],
            }
            plain = (statistics.median(hostspeed.raw_time(p) for p in child["passes"]),
                     statistics.median(s["plain_s"] for s in setups))
            problems = []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = declared_metrics()["per_layer" if trace else "end_to_end"]
    if set(values) != set(units):
        raise ChildFailed(f"metrics {sorted(set(values) ^ set(units))} are not "
                          "both measured and declared in BENCHMARK.json")
    notes = [
        f"workload {workload}, seed {seed}, "
        f"{'traced' if trace else 'untraced'}: {len(child['walls'])} untraced passes"
        + (f" + {len(child['traced_walls'])} traced" if trace else "")
        + f", {child['ops_per_pass']} operations"
        + (f" and {child['sim_requests']} simulated requests" if child["sim_requests"] else "")
        + " per pass",
        f"failed_frac {child['failed'] / child['attempted']:.6g} "
        f"({child['failed']} of {child['attempted']} operations)",
    ] + ([] if trace else [
        f"plain seconds, host noise left in: pass {plain[0]:.4g} s, "
        f"set-up {plain[1]:.4g} s"
    ]) + [f"SPAN CHECK FAILED: {p}" for p in problems]
    return {
        "correct": child["failed"] == 0 and not problems,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "notes": notes,
    }


def show(result: dict) -> None:
    for note in result["notes"]:
        print(note)
    for name, metric in result["metrics"].items():
        print(f"  {name:30s} {metric['value']:14.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            for workload in WORKLOADS:
                for trace in (False, True):
                    show(measure(workload, args.seed, args.seconds, trace))
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ChildFailed, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    show(result)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
