"""The four benchmark workloads: inputs, measured section, output checks.

Each workload builds its inputs from the seed in ``__init__`` (that is
the set-up ``setup_s`` times), then runs passes.  A pass calls into the
program only inside ``ctx.section()``: those blocks are what ``wall_s``
times and what a traced pass roots its spans in.  Output checks run
outside them, so they cost neither wall time nor trace coverage.

An *operation* is one scenario run (campaign), one 10^6-client row
(scale), one soak window (soak) or one table (tables).  It fails on an
exception, an oracle violation, a rerun-digest mismatch or an output
that differs from the committed ``EXPERIMENTS.md``.  Only seed 7 has
committed output; at any other seed the checks fall back to
self-consistency (oracle clean, rerun digests equal, replay totals equal
to the live run).
"""

from __future__ import annotations

import os
import re
import statistics
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import experiments
from repro import telemetry
from repro.analysis.report import Table
from repro.core import hybrid
from repro.faults import campaign

#: The seed the committed EXPERIMENTS.md tables were generated with.
COMMITTED_SEED = 7


def committed_sections(root: Path) -> Dict[str, str]:
    """Experiment id (``E01``...) -> the table text committed for it."""
    text = (root / "EXPERIMENTS.md").read_text(encoding="utf-8")
    return dict(re.findall(r"^## (\w+)\n.*?\n```\n(.*?)\n```", text, re.S | re.M))


def _report(what: str) -> None:
    print(f"FAILED {what}", file=sys.stderr)


def _report_exception(what: str) -> None:
    _report(what)
    traceback.print_exc(file=sys.stderr)


class Pass:
    """One pass's tally: operations attempted and failed, simulated work."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.sim_requests = 0

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            _report(what)


class Campaign:
    """E26's standard sweep on the discrete engine, determinism reruns on.

    Stresses the discrete kernel and the policy callbacks; latency lists
    are short, so it is the bypass workload for outcome-layer changes.
    """

    name = "campaign"
    n_runs = 90  # 2 workloads x 3 families x 3 scenarios x 5 policies

    def __init__(self, seed: int, root: Path, scratch: Path):
        self.seed = seed
        self.expected = None
        if seed == COMMITTED_SEED:
            self.expected = committed_sections(root)["E26"]

    def run_pass(self, ctx) -> Pass:
        tally = Pass()
        try:
            with ctx.section():
                result = campaign.run_campaign(seed=self.seed)
                rendered = result.table().render()
        except Exception:
            _report_exception("campaign pass")
            for __ in range(self.n_runs + 1):
                tally.op(False, "campaign: pass raised")
            return tally
        for outcome in result.outcomes:
            tally.op(not outcome.violations,
                     f"campaign {outcome.workload}/{outcome.family}"
                     f"[{outcome.scenario_index}]/{outcome.policy}: "
                     f"{outcome.violations}")
            tally.sim_requests += 2 * outcome.n_requests  # primary + rerun
        tally.op(len(result.outcomes) == self.n_runs and
                 (self.expected is None or rendered == self.expected),
                 "campaign: scorecard differs from the committed E26 table")
        return tally


#: E27's 10^6-client rows: (workload, policy).
SCALE_ROWS = [
    (workload, policy)
    for workload in ("raid10", "dht")
    for policy in ("fixed-timeout", "adaptive-timeout", "retry-backoff",
                   "hedged", "stutter-aware")
] + [("surge", "no-mitigation"), ("surge", "stutter-aware")]
SCALE_CLIENTS = 1_000_000
E27_COLUMNS = ["workload", "policy", "clients", "engine", "mean_s", "p99_s",
               "slo_viol_pct", "waste_pct", "check", "oracle"]


def e27_row(workload: str, policy: str, outcome, replay_ok: bool) -> list:
    """The E27 table row for one 10^6-client run (same cells E27 prints)."""
    latencies = outcome.latencies
    n = outcome.n_requests
    mean = statistics.fmean(latencies) if len(latencies) else 0.0
    p99 = 0.0
    if len(latencies):
        arr = np.asarray(latencies)
        k = int(0.99 * (arr.size - 1))
        p99 = float(np.partition(arr, k)[k])
    issued = outcome.issued_work
    return [
        workload, policy, n, "hybrid", round(mean, 6), round(p99, 6),
        round(100.0 * outcome.slo_violations / n, 4) if n else 0.0,
        round(100.0 * outcome.wasted_work / issued, 4) if issued else 0.0,
        "replay-ok" if replay_ok else "REPLAY-DIFF",
        "ok" if not outcome.violations else "VIOLATION",
    ]


def row_tokens(rows: List[list]) -> List[List[str]]:
    """Rows as the whitespace-split cells ``Table.render`` prints."""
    table = Table("rows", E27_COLUMNS)
    for row in rows:
        table.add_row(*row)
    return [line.split() for line in table.render().splitlines()[4:]]


class Scale:
    """E27's 12 million-client rows on the hybrid engine.

    ~99.9% of requests run fluid and ``ScenarioOutcome.digest`` dominates:
    the workload for columnar outcomes and cheaper digests.  A pass runs
    and digests each row once; every later pass is the row's determinism
    rerun, its digest compared with the first pass's (a run makes at
    least two passes).
    """

    name = "scale"

    def __init__(self, seed: int, root: Path, scratch: Path):
        self.seed = seed
        self.inputs = []
        for workload_name, policy in SCALE_ROWS:
            workload = hybrid.scale_workload(campaign.WORKLOADS[workload_name],
                                             SCALE_CLIENTS)
            scenario = hybrid.scale_scenario(workload, "magnitude", seed, 0)
            self.inputs.append((workload_name, policy, workload, scenario))
        self.first_digests: Dict[int, str] = {}
        self.expected: Optional[List[List[str]]] = None
        if seed == COMMITTED_SEED:
            committed = committed_sections(root)["E27"].splitlines()
            self.expected = [line.split() for line in committed
                             if line.split()[2:4] == [str(SCALE_CLIENTS), "hybrid"]]

    def run_pass(self, ctx) -> Pass:
        tally = Pass()
        rows, oks = [], []
        for k, (workload_name, policy, workload, scenario) in enumerate(self.inputs):
            try:
                with ctx.section():
                    outcome = hybrid.run_scenario_hybrid(workload, scenario, policy)
                    digest = outcome.digest()
                replay_ok = self.first_digests.setdefault(k, digest) == digest
                rows.append(e27_row(workload_name, policy, outcome, replay_ok))
                oks.append(replay_ok and not outcome.violations)
                tally.sim_requests += outcome.n_requests
                del outcome
            except Exception:
                _report_exception(f"scale {workload_name}/{policy}")
                rows.append(None)
                oks.append(False)
        printed = iter(row_tokens([r for r in rows if r is not None]))
        for k, (row, ok) in enumerate(zip(rows, oks)):
            tokens = next(printed) if row is not None else None
            if ok and self.expected is not None:
                ok = tokens == self.expected[k]
            tally.op(ok, f"scale row {SCALE_ROWS[k]}: {tokens}")
        return tally


class Soak:
    """A recorded hybrid soak campaign, then a replay of its trace.

    About half the requests run discrete inside fault windows; it is the
    only workload that writes and reads the trace and folds every sample
    through the streaming statistics.
    """

    name = "soak"
    params = dict(workload="raid10", family="magnitude", policy="stutter-aware",
                  n_windows=10, injectors_per_window=2, n_requests=20_000,
                  engine="hybrid", rolling=4)

    def __init__(self, seed: int, root: Path, scratch: Path):
        self.seed = seed
        self.trace_path = scratch / "soak.jsonl"

    def run_pass(self, ctx) -> Pass:
        tally = Pass()
        n_windows = self.params["n_windows"]
        try:
            with ctx.section():
                live = telemetry.record_soak(self.trace_path, seed=self.seed,
                                             **self.params)
                replayed = telemetry.replay_trace(self.trace_path)
            ctx.count("trace_bytes", os.path.getsize(self.trace_path))
        except Exception:
            _report_exception("soak pass")
            for __ in range(n_windows):
                tally.op(False, "soak: pass raised")
            return tally
        finally:
            if self.trace_path.exists():
                self.trace_path.unlink()
        windows = replayed.windows
        whole = [
            (replayed.consistent, "replay is inconsistent"),
            (replayed.read.clean_close, "trace did not close cleanly"),
            (len(windows) == n_windows, f"{len(windows)} windows replayed"),
            (sum(w.requests for w in windows) == live.requests,
             "replayed requests differ from the live run"),
            (sum(w.slo_violations for w in windows) == live.slo_violations,
             "replayed SLO violations differ from the live run"),
            (sum(w.failed_requests for w in windows) == live.failed_requests,
             "replayed failed requests differ from the live run"),
        ]
        problems = [what for ok, what in whole if not ok]
        for k in range(n_windows):
            tag = f"window[{k}]:"
            window_ok = (not problems and not windows[k].violations
                         and not any(v.startswith(tag) for v in live.violations))
            tally.op(window_ok, f"soak window {k}: {problems or live.violations}")
        tally.sim_requests = live.requests
        return tally

    def p99_rel_err(self) -> float:
        """Largest relative error of any window or rolling p99 the soak reports.

        Runs the soak once more with each window's latencies captured at
        the ``run_scenario`` boundary, and measures every per-window and
        rolling p99 against ``np.quantile(..., 0.99)`` over the same
        samples.  The retained copies would distort the timed passes, so
        this is its own pass.
        """
        captured: List[np.ndarray] = []
        original = campaign.run_scenario

        def capture(*args, **kwargs):
            outcome = original(*args, **kwargs)
            captured.append(np.asarray(outcome.latencies, dtype=np.float64))
            return outcome

        rolling = self.params["rolling"]
        campaign.run_scenario = capture
        try:
            result = campaign.run_soak(seed=self.seed, retain_windows=True,
                                       **self.params)
        finally:
            campaign.run_scenario = original
        worst = 0.0
        for k, window in enumerate(result.windows):
            pairs = [(window.p99.value(), captured[k]),
                     (window.rolling_p99,
                      np.concatenate(captured[max(0, k - rolling + 1):k + 1]))]
            for estimate, samples in pairs:
                exact = float(np.quantile(samples, 0.99))
                worst = max(worst, abs(estimate - exact) / exact)
        return worst


#: Report tables the other workloads stand in for: e26 (campaign), e27
#: (scale) and e29 (soak runs the same fold, plus the discrete share and
#: the sink).
TABLES_SKIPPED = ("e26", "e27", "e29")
SUBSTRATES = ("storage", "network", "processor", "cluster", "core")


class Tables:
    """Cold, serial, uncached regeneration of the other 33 report tables.

    The only workload that exercises the component models and the
    scenario generator/compiler (e28's generative sweep).
    """

    name = "tables"

    def __init__(self, seed: int, root: Path, scratch: Path):
        self.seed = seed
        substrates = experiments.experiment_substrates()
        self.keys = [k for k in experiments.ALL_EXPERIMENTS
                     if k not in TABLES_SKIPPED]
        self.layer = {}
        for key in self.keys:
            if substrates[key] not in SUBSTRATES:
                raise ValueError(f"{key}: unexpected substrate {substrates[key]!r}")
            self.layer[key] = "experiments." + substrates[key]
        sections = committed_sections(root)
        # Only e28 takes the seed; every other table is seed-free.
        self.expected = {
            key: sections[key.upper()] for key in self.keys
            if key != "e28" or seed == COMMITTED_SEED
        }

    def run_pass(self, ctx) -> Pass:
        tally = Pass()
        for key in self.keys:
            runner = experiments.ALL_EXPERIMENTS[key]
            kwargs = {"seed": self.seed} if key == "e28" else {}
            try:
                with ctx.section(), ctx.span(self.layer[key]):
                    rendered = runner(**kwargs).render()
            except Exception:
                _report_exception(f"table {key}")
                tally.op(False, f"table {key} raised")
                continue
            expected = self.expected.get(key)
            ok = rendered == expected if expected is not None else (
                "VIOLAT" not in rendered)
            tally.op(ok, f"table {key} differs from EXPERIMENTS.md")
        return tally


WORKLOADS = {w.name: w for w in (Campaign, Scale, Soak, Tables)}


