"""The ``repro`` command line: train, simulate, inspect, reproduce.

Invoke as ``python -m repro <command>``:

========== ==========================================================
list-adls  the registered ADLs with their steps, tools and sensors
train      learn a routine offline, print the curve, optionally save
           the policy to JSON
simulate   run live guided episodes against a simulated resident and
           print the caregiver report
scenario   replay the paper's Figure 1 tea-making scenario
report     regenerate every paper table/figure (evalx runner)
fleet      simulate a fleet of resident-homes (repro.fleet)
========== ==========================================================
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, TextIO

from repro.adls.library import default_registry
from repro.core.config import CoReDAConfig
from repro.core.config_io import load_config
from repro.core.errors import ConfigurationError, RoutineError, UnknownADLError
from repro.core.adl import Routine
from repro.core.system import CoReDA
from repro.evalx.parallel import timed
from repro.evalx.tables import ascii_curve, format_table
from repro.planning.store import save_predictor
from repro.reporting.caregiver import CaregiverReport
from repro.resident.dementia import DementiaProfile

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CoReDA: context-aware ADL reminding (ICDCS 2007 "
        "reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list-adls", help="list the registered ADLs")

    train = commands.add_parser("train", help="learn a routine offline")
    train.add_argument("adl", help="ADL name (see list-adls)")
    train.add_argument("--episodes", type=int, default=120)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--config", help="JSON configuration file")
    train.add_argument("--routine", help="comma-separated StepIDs, e.g. 1,3,2,4")
    train.add_argument("--save", help="write the trained policy to this JSON file")
    train.add_argument("--plot", action="store_true",
                       help="print the ASCII learning curve")

    simulate = commands.add_parser(
        "simulate", help="run live guided episodes and report"
    )
    simulate.add_argument("adl", help="ADL name (see list-adls)")
    simulate.add_argument("--episodes", type=int, default=5)
    simulate.add_argument("--severity", type=float, default=0.4,
                          help="dementia severity in [0, 1]")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--config", help="JSON configuration file")
    simulate.add_argument("--adapt", action="store_true",
                          help="enable online adaptation")
    simulate.add_argument("--timeline", action="store_true",
                          help="print the full event timeline")

    commands.add_parser("scenario", help="replay the paper's Figure 1")

    report = commands.add_parser(
        "report", help="regenerate every paper table and figure"
    )
    report.add_argument("--fast", action="store_true")
    report.add_argument("--no-ablations", action="store_true",
                        help="skip the ablation sweeps")
    report.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (output is byte-identical "
                        "for every N)")
    report.add_argument("--cache", metavar="DIR",
                        help="trained-policy cache directory")
    report.add_argument("--timing", action="store_true",
                        help="print per-section timings to stderr")
    report.add_argument("--output", help="also write the report to a file")

    fleet = commands.add_parser(
        "fleet",
        help="simulate a fleet of resident-homes and aggregate metrics",
        description="Expand a synthetic cohort into per-home simulation "
        "cells, shard them over worker processes, share trained policies "
        "through the content-addressed cache, and stream caregiver "
        "metrics.  Output is byte-identical at any --jobs.",
    )
    fleet.add_argument("--adl", default="tea-making",
                       help="ADL name (see list-adls)")
    fleet.add_argument("--homes", type=int, default=100, metavar="N",
                       help="number of resident-homes (default 100)")
    fleet.add_argument("--episodes", type=int, default=1, metavar="K",
                       help="guided episodes per home (default 1)")
    fleet.add_argument("--train-episodes", type=int, default=120,
                       metavar="K", help="training episodes per distinct "
                       "routine (default 120)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--seed-classes", type=int, default=4, metavar="N",
                       help="training seed pool size: homes sharing a "
                       "routine and seed class share one trained policy")
    fleet.add_argument("--shard-size", type=int, default=25, metavar="N",
                       help="homes per worker shard (default 25; never "
                       "affects the output bytes)")
    fleet.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (output is byte-identical "
                       "for every N)")
    fleet.add_argument("--cache", metavar="DIR",
                       help="trained-policy cache directory (default: a "
                       "private per-run directory)")
    fleet.add_argument("--json", action="store_true",
                       help="emit the aggregate metrics as JSON")
    fleet.add_argument("--timing", action="store_true",
                       help="print wall-clock and homes/sec to stderr")

    return parser


def _cmd_list_adls() -> int:
    registry = default_registry()
    rows = []
    for name in registry.names():
        definition = registry.get(name)
        for index, step in enumerate(definition.adl.steps):
            rows.append(
                (
                    name if index == 0 else "",
                    step.step_id,
                    step.name,
                    f"{step.tool.sensor.value} on {step.tool.name}",
                )
            )
    print(format_table(["ADL", "StepID", "Step", "Sensor & tool"], rows))
    return 0


def _definition(parser: argparse.ArgumentParser, name: str):
    """The registered ADL ``name``, or exit with a usage error."""
    try:
        return default_registry().get(name)
    except UnknownADLError as exc:
        parser.error(exc.args[0])


def _resolve_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> CoReDAConfig:
    if args.config:
        try:
            config = load_config(args.config)
        except (OSError, ConfigurationError) as exc:
            parser.error(f"--config: {args.config}: {exc}")
        return config.with_seed(args.seed)
    return CoReDAConfig(seed=args.seed)


def _parse_routine(
    parser: argparse.ArgumentParser, definition, spec: str
) -> Routine:
    """Parse ``--routine 1,3,2,4`` or exit with a readable error."""
    step_ids = []
    for part in spec.split(","):
        part = part.strip()
        try:
            step_ids.append(int(part))
        except ValueError:
            parser.error(
                f"--routine: {part!r} is not a StepID; expected "
                f"comma-separated integers, e.g. 1,3,2,4"
            )
    known = {step.step_id for step in definition.adl.steps}
    unknown = [step_id for step_id in step_ids if step_id not in known]
    if unknown:
        parser.error(
            f"--routine: no step {unknown[0]} in "
            f"{definition.adl.name} (StepIDs: "
            f"{', '.join(str(s) for s in sorted(known))})"
        )
    try:
        return Routine(definition.adl, step_ids)
    except RoutineError as exc:
        parser.error(f"--routine: {exc}")


def _not_converged(
    parser: argparse.ArgumentParser, result, consequence: str
) -> int:
    """Report a training that missed its first criterion; exit code 1."""
    sys.stderr.write(
        f"{parser.prog}: error: training did not reach the "
        f"{min(result.convergence):.0%} criterion in "
        f"{len(result.curve.behaviour_accuracy)} episodes; {consequence}\n"
    )
    return 1


def _cmd_train(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    definition = _definition(parser, args.adl)
    _check_count(parser, "--episodes", args.episodes)
    system = CoReDA.build(definition, _resolve_config(args, parser))
    routine = None
    if args.routine:
        routine = _parse_routine(parser, definition, args.routine)
    result = system.train_offline(
        routine=routine, episodes=args.episodes, require_converged=False
    )
    print(f"trained {args.adl} on {args.episodes} episodes "
          f"(routine {list(result.routine.step_ids)})")
    for criterion, iteration in sorted(result.convergence.items()):
        status = iteration if iteration is not None else "not reached"
        print(f"  {criterion:.0%} criterion: iteration {status}")
    print(f"  final greedy accuracy: {result.curve.greedy_accuracy[-1]:.0%}")
    if args.plot:
        print(ascii_curve(result.curve.smoothed_accuracy,
                          title="smoothed behaviour accuracy"))
    if not system.predictor.converged:
        return _not_converged(parser, result, "no policy saved")
    if args.save:
        save_predictor(system.predictor, args.save, definition.adl.name)
        print(f"policy saved to {args.save}")
    return 0


def _cmd_simulate(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    definition = _definition(parser, args.adl)
    _check_count(parser, "--episodes", args.episodes)
    if not 0.0 <= args.severity <= 1.0:
        parser.error(f"--severity: must be in [0, 1], got {args.severity}")
    system = CoReDA.build(definition, _resolve_config(args, parser))
    result = system.train_offline(require_converged=False)
    if not system.predictor.converged:
        return _not_converged(parser, result, "nothing simulated")
    if args.adapt:
        system.enable_online_adaptation()
    reliable = {
        step.step_id: max(step.handling_duration, 5.0)
        for step in definition.adl.steps
    }
    completed = 0
    for index in range(args.episodes):
        resident = system.create_resident(
            dementia=DementiaProfile.from_severity(args.severity),
            handling_overrides=reliable,
            name=f"cli-{index}",
        )
        outcome = system.run_episode(resident, horizon=3600.0)
        completed += int(outcome.completed)
    print(f"ran {args.episodes} episodes, {completed} completed\n")
    if args.timeline:
        from repro.evalx.timeline import render_timeline

        print(render_timeline(system.trace, definition.adl,
                              title="Event timeline"))
        print()
    report = CaregiverReport.from_session(
        system.session,
        definition.adl,
        caregiver_alerts=system.reminding.caregiver_alerts,
    )
    print(report.to_text())
    return 0


def _cmd_scenario() -> int:
    from repro.evalx.scenario import run_tea_scenario

    result = run_tea_scenario()
    print(result.to_table())
    print()
    print(f"structure check: {'PASS' if result.structure_ok() else 'FAIL'}")
    return 0 if result.structure_ok() else 1


def _check_cache_dir(parser: argparse.ArgumentParser, cache: str) -> None:
    """Exit with a readable error when ``--cache`` cannot be a directory."""
    if os.path.exists(cache) and not os.path.isdir(cache):
        parser.error(f"--cache: {cache!r} exists and is not a directory")


def _check_count(
    parser: argparse.ArgumentParser, option: str, value: int
) -> None:
    """Exit with a readable error when a count option is below 1."""
    if value < 1:
        parser.error(f"{option}: must be at least 1, got {value}")


def _print_timings(
    timings: Dict[str, float], total_seconds: float, stream: TextIO
) -> None:
    """Per-section timing table (stderr by default: never in the report)."""
    width = max(len(name) for name in timings) if timings else 0
    stream.write("section timings (cell seconds):\n")
    for name, seconds in timings.items():
        stream.write(f"  {name:<{width}}  {seconds:8.2f}s\n")
    stream.write(
        f"  {'total wall-clock':<{width}}  {total_seconds:8.2f}s\n"
    )


def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.evalx.runner import run_all, write_report

    _check_count(parser, "--jobs", args.jobs)
    if args.cache:
        _check_cache_dir(parser, args.cache)
    timings = {}
    text, elapsed = timed(
        run_all,
        fast=args.fast,
        include_ablations=not args.no_ablations,
        jobs=args.jobs,
        cache_dir=args.cache,
        timings=timings,
    )
    write_report(text, output=args.output)
    if args.timing:
        _print_timings(timings, elapsed, sys.stderr)
    return 0


def _cmd_fleet(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.fleet import FleetSpec, run_fleet

    _definition(parser, args.adl)
    _check_count(parser, "--jobs", args.jobs)
    if args.cache:
        _check_cache_dir(parser, args.cache)
    try:
        spec = FleetSpec(
            adl_name=args.adl,
            homes=args.homes,
            seed=args.seed,
            episodes_per_home=args.episodes,
            training_episodes=args.train_episodes,
            seed_classes=args.seed_classes,
            shard_size=args.shard_size,
        )
    except ConfigurationError as exc:
        parser.error(str(exc))
    result, elapsed = timed(
        run_fleet, spec, jobs=args.jobs, cache_dir=args.cache
    )
    print(result.to_json() if args.json else result.to_text())
    if args.timing:
        rate = args.homes / elapsed if elapsed > 0 else float("inf")
        sys.stderr.write(
            f"fleet wall-clock: {elapsed:.2f}s ({rate:.1f} homes/sec, "
            f"jobs={args.jobs})\n"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-adls":
        return _cmd_list_adls()
    if args.command == "train":
        return _cmd_train(args, parser)
    if args.command == "simulate":
        return _cmd_simulate(args, parser)
    if args.command == "scenario":
        return _cmd_scenario()
    if args.command == "report":
        return _cmd_report(args, parser)
    if args.command == "fleet":
        return _cmd_fleet(args, parser)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
