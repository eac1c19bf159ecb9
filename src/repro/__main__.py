"""Command-line entry point.

Usage::

    python -m repro list                 # experiment ids + bundled scenarios
    python -m repro run e01 e14          # regenerate specific experiments
    python -m repro run all              # regenerate everything
    python -m repro report               # full EXPERIMENTS.md content
    python -m repro report --workers 4   # ...regenerated on a 4-process pool
    python -m repro campaign --seed 7    # fault-campaign policy scorecard
    python -m repro campaign --trace t.jsonl      # ...streamed to a trace file
    python -m repro campaign --soak --windows 12  # long-horizon soak campaign
    python -m repro sweep --count 100    # generative sweep vs. the oracle
    python -m repro replay t.jsonl       # reconstruct scorecard from a trace
    python -m repro replay t.jsonl --verify  # re-run + byte-for-byte diff
"""

from __future__ import annotations

import argparse
import sys

from .experiments import ALL_EXPERIMENTS, experiment_substrates
from .experiments.report import CLAIMS, add_report_arguments, print_report


def _cmd_list() -> int:
    substrates = experiment_substrates()
    width = max(len(tag) for tag in substrates.values())
    for key in ALL_EXPERIMENTS:
        claim = CLAIMS.get(key, "")
        first_sentence = claim.split(". ")[0][:90]
        print(f"{key:<5} {substrates[key]:<{width}}  {first_sentence}")
    from .scenario import bundle

    print()
    print("bundled scenarios (src/repro/scenarios/):")
    for name, compiled in bundle.scenarios().items():
        spec = compiled.spec
        shape = (
            f"{spec.groups.count}x{spec.groups.size} {spec.groups.prefix}*"
        )
        verdicts = compiled.eligibility()
        engines = []
        for engine_name in ("discrete", "hybrid"):
            eligible, reason = verdicts[engine_name]
            if not eligible:
                continue
            qualifier = "*" if "only" in reason else ""
            engines.append(engine_name + qualifier)
        print(
            f"{name:<10} {spec.groups.substrate:<8} {shape:<12} "
            f"engines: {', '.join(engines)}"
        )
    print(
        "  (* = timer-free policies only; see "
        "`repro.scenario.CompiledScenario.eligibility`)"
    )
    return 0


def _cmd_run(ids) -> int:
    if ids == ["all"]:
        ids = list(ALL_EXPERIMENTS)
    unknown = [key for key in ids if key not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    for key in ids:
        print(ALL_EXPERIMENTS[key]().render())
        print()
    return 0


def _report_violations(violations) -> int:
    """Print the oracle's violations to stderr; the exit status (0 or 1)."""
    if not violations:
        return 0
    print(f"{len(violations)} oracle violations:", file=sys.stderr)
    for violation in violations:
        print(f"  {violation}", file=sys.stderr)
    return 1


def _cmd_campaign(args) -> int:
    from .faults.campaign import FAMILIES, WORKLOADS, run_campaign
    from .policy import policy_names

    known_policies = policy_names()
    unknown = [f for f in args.families if f not in FAMILIES]
    unknown += [w for w in args.workloads if w not in WORKLOADS]
    unknown += [p for p in args.policies if p not in known_policies]
    if unknown:
        print(f"unknown campaign names: {', '.join(unknown)}", file=sys.stderr)
        print(
            f"families: {', '.join(FAMILIES)}; workloads: "
            f"{', '.join(WORKLOADS)}; policies: {', '.join(known_policies)}",
            file=sys.stderr,
        )
        return 2
    if args.trace_csv is not None:
        from .telemetry.sink import same_file

        if args.trace is None:
            print("error: --trace-csv needs --trace: the CSV is written "
                  "beside a trace", file=sys.stderr)
            return 2
        if same_file(args.trace, args.trace_csv):
            print(f"error: --trace-csv and --trace both name {args.trace}; "
                  "the CSV would overwrite the trace", file=sys.stderr)
            return 2
    # --engine defaults by mode: soak campaigns exist for long horizons,
    # where the hybrid engine is the only affordable path.
    engine = args.engine or ("hybrid" if args.soak else "discrete")
    if args.soak:
        return _cmd_soak(args, engine)
    run_args = dict(
        seed=args.seed,
        workloads=tuple(args.workloads),
        families=tuple(args.families),
        policies=tuple(args.policies),
        scenarios_per_family=args.scenarios,
        n_requests=args.requests,
        verify_determinism=not args.no_verify,
        engine=engine,
    )
    if args.trace:
        from .telemetry import record_campaign

        result = record_campaign(args.trace, csv_path=args.trace_csv, **run_args)
    else:
        result = run_campaign(**run_args)
    table = result.table()
    print(table.render())
    print()
    print(f"scorecard digest: {table.digest()}")
    if args.trace:
        print(f"trace: {args.trace}")
    return _report_violations(result.violations)


def _cmd_soak(args, engine: str) -> int:
    """The --soak arm of the campaign subcommand."""
    from .faults.campaign import run_soak
    from .telemetry import record_soak

    # Soak drives ONE (workload, family, policy) cell for a long time;
    # when the sweep-shaped defaults are still in place, narrow to the
    # soak defaults rather than guessing among several.
    workload = args.workloads[0] if len(args.workloads) == 1 else "raid10"
    family = args.families[0] if len(args.families) == 1 else "magnitude"
    policy = args.policies[0] if len(args.policies) == 1 else "stutter-aware"
    run_args = dict(
        seed=args.seed,
        workload=workload,
        family=family,
        policy=policy,
        n_windows=args.windows,
        injectors_per_window=args.injectors,
        n_requests=args.requests,
        engine=engine,
        rolling=args.rolling,
    )
    if args.trace:
        result = record_soak(args.trace, csv_path=args.trace_csv,
                             retain_windows=False, **run_args)
        hours = result.horizon / 3600.0
        print(
            f"soak: {result.workload} x {result.family} x {result.policy} "
            f"({result.engine}, seed {result.seed}): {result.n_windows} "
            f"windows, {hours:.2f}h virtual, {result.requests} requests, "
            f"{result.injectors} injector events"
        )
        print(
            f"  slo violations {result.slo_violations} "
            f"({100.0 * result.slo_fraction:.3f}%), final rolling mean "
            f"{result.final_rolling_mean:.4f}s / p99 "
            f"{result.final_rolling_p99:.4f}s"
        )
        print(f"  per-window scorecards streamed to {args.trace} "
              f"(replay with: python -m repro replay {args.trace})")
    else:
        result = run_soak(retain_windows=True, **run_args)
        print(result.table().render())
    return _report_violations(result.violations)


def _cmd_replay(args) -> int:
    from .telemetry import TraceError, replay_trace, verify_trace

    try:
        replay = replay_trace(args.trace)
    except (TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(replay.render())
    status = 0
    if replay.read.truncated or not replay.consistent:
        status = 1
    if args.verify:
        result = verify_trace(args.trace,
                              keep_regenerated=args.keep_regenerated)
        print()
        print(result.render())
        if not result.ok:
            status = 1
    return status


def _cmd_sweep(args) -> int:
    from .scenario import run_sweep

    result = run_sweep(
        seed=args.seed,
        count=args.count,
        engine=args.engine,
        verify_determinism=not args.no_verify,
    )
    print(result.table().render())
    print()
    print(f"sweep digest: {result.digest()}")
    if result.fallbacks:
        print(f"{len(result.fallbacks)} hybrid-infeasible scenarios ran discrete:")
        for name, reason in result.fallbacks:
            print(f"  {name}: {reason}")
    return _report_violations(result.violations)


def _int_at_least(minimum: int, kind: str):
    """An argparse type: an integer of at least ``minimum``.

    Anything else is a usage error that names the flag (exit 2).
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected a {kind} integer, got {text!r}"
            )
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fail-stutter fault tolerance reproduction: experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "list", help="enumerate experiment ids, claims and bundled scenarios"
    )
    run_parser = sub.add_parser("run", help="regenerate experiments by id")
    run_parser.add_argument("ids", nargs="+", help="experiment ids (or 'all')")
    add_report_arguments(
        sub.add_parser("report", help="print the full EXPERIMENTS.md content")
    )
    campaign_parser = sub.add_parser(
        "campaign",
        help="run the fault campaign and print the policy scorecard",
    )
    campaign_parser.add_argument(
        "--seed", type=int, default=7, help="campaign seed (default: 7)"
    )
    campaign_parser.add_argument(
        "--scenarios", type=_positive_int, default=3, metavar="N",
        help="scenarios drawn per family (default: 3)",
    )
    # Choice lists come from the live registries (bundled spec files and
    # the policy roster), so spec-defined entries appear automatically.
    from .faults.campaign import FAMILIES, WORKLOADS
    from .policy import policy_names

    campaign_parser.add_argument(
        "--families", nargs="+", default=["magnitude", "correlated", "failstop"],
        metavar="FAMILY",
        help=f"scenario families to sweep ({', '.join(FAMILIES)})",
    )
    campaign_parser.add_argument(
        "--workloads", nargs="+", default=["raid10", "dht"],
        metavar="WORKLOAD",
        help=f"workloads to drive ({', '.join(WORKLOADS)})",
    )
    campaign_parser.add_argument(
        "--policies", nargs="+",
        default=list(policy_names()[:-1]),
        metavar="POLICY",
        help=f"mitigation policies to score ({', '.join(policy_names())})",
    )
    campaign_parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the oracle's same-seed rerun (halves runtime)",
    )
    campaign_parser.add_argument(
        "--engine", choices=["discrete", "hybrid"], default=None,
        help="execution engine: exact event simulation, or fluid "
             "fast-forwarding between fault windows (default: discrete; "
             "hybrid with --soak)",
    )
    campaign_parser.add_argument(
        "--requests", type=_positive_int, default=None, metavar="N",
        help="override every workload's request count (soak: per window)",
    )
    campaign_parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="stream every run's telemetry to a schema-versioned JSONL "
             "trace (replayable with `python -m repro replay`)",
    )
    campaign_parser.add_argument(
        "--trace-csv", default=None, metavar="PATH",
        help="also write the raw record stream as CSV (needs --trace)",
    )
    campaign_parser.add_argument(
        "--soak", action="store_true",
        help="soak mode: one (workload, family, policy) cell driven for "
             "--windows windows of overlapping injectors, rolling-window "
             "scorecards; defaults to raid10/magnitude/stutter-aware "
             "unless exactly one of each is named",
    )
    campaign_parser.add_argument(
        "--windows", type=_positive_int, default=6, metavar="N",
        help="soak windows to drive (default: 6)",
    )
    campaign_parser.add_argument(
        "--injectors", type=_non_negative_int, default=2, metavar="N",
        help="independent fault draws merged per soak window (default: 2)",
    )
    campaign_parser.add_argument(
        "--rolling", type=_positive_int, default=4, metavar="N",
        help="trailing windows in the rolling scorecard (default: 4)",
    )
    sweep_parser = sub.add_parser(
        "sweep",
        help="run machine-generated scenarios against the invariant oracle",
    )
    sweep_parser.add_argument(
        "--seed", type=int, default=7, help="generator seed (default: 7)"
    )
    sweep_parser.add_argument(
        "--count", type=_positive_int, default=25, metavar="N",
        help="number of generated scenarios (default: 25)",
    )
    sweep_parser.add_argument(
        "--engine", choices=["discrete", "hybrid"], default="discrete",
        help="execution engine; hybrid-infeasible scenarios fall back to "
             "discrete by name (default: discrete)",
    )
    sweep_parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the oracle's same-seed rerun (halves runtime)",
    )
    replay_parser = sub.add_parser(
        "replay",
        help="reconstruct timelines and scorecards from a trace file",
    )
    replay_parser.add_argument("trace", help="path to a repro-trace JSONL file")
    replay_parser.add_argument(
        "--verify", action="store_true",
        help="re-run the scenario embedded in the trace header and demand "
             "a byte-for-byte identical regenerated trace",
    )
    replay_parser.add_argument(
        "--keep-regenerated", default=None, metavar="PATH",
        help="with --verify, keep the regenerated trace at PATH for diffing",
    )
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.ids)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "replay":
        return _cmd_replay(args)
    return print_report(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(0)
