"""``python -m bench {run,compare,pin}`` -- see ``bench/README.md``."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench import DIGESTS_PATH, OUT, use_source_tree
from bench.compare import compare_files, quartiles
from bench.run import (
    NO_PROGRAM,
    ProgramMissing,
    config,
    environment,
    run_workloads,
    spawn_block,
)
from bench.worker import REFERENCE_S
from bench.workloads import WORKLOADS

#: A single-workload run must end within 180 s.
RUN_DEADLINE_S = 170.0

#: The seeds whose output digests ``bench/digests.json`` pins.
PINNED_SEEDS = (0, 1)


def _print_workload(name: str, result: Dict, end_to_end: List[Dict]) -> None:
    workload = WORKLOADS[name]
    blocks = [block for block in result["blocks"] if "jobs" in block]
    traced = result.get("traced_block", {})
    jobs = (blocks or [traced])[0].get("jobs", "?")
    episodes = (blocks or [traced])[0].get("episodes_per_home", 1)
    shape = (
        f"{workload.homes} homes x {episodes} episode{'s' * (episodes != 1)}"
        if workload.homes
        else "one fast report"
    )
    print(f"\n== {name} ({shape}, jobs {jobs}) ==")
    print(f"  {'metric':<14}{'unit':<9}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    for metric in end_to_end:
        values = result["samples"].get(metric["name"])
        if values:
            q1, median, q3 = quartiles(values)
            print(
                f"  {metric['name']:<14}{metric['unit']:<9}"
                f"{median:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(values):>4}"
            )
    print(
        f"  {'error_rate':<14}{'ratio':<9}{result['error_rate']:>12.4f}"
        f"   ({result['failed']} of {result['attempted']} repeats failed)"
    )
    raw, kernel = result["samples"]["raw_wall_s"], result["samples"]["calibration_s"]
    if raw and kernel:
        print(
            f"  unscaled: wall median {quartiles(raw)[1]:.4f} s; calibration "
            f"kernel median {quartiles(kernel)[1] * 1000:.2f} ms against "
            f"{REFERENCE_S * 1000:g} ms"
        )
    digest = result["digest"]
    against = "the pinned digest" if digest["pinned"] else "each other (no pin)"
    print(
        f"  outputs: {digest['matching']} of {result['attempted']} repeats "
        f"match {against}; traced {digest['traced_matching']} of "
        f"{digest['traced']}"
    )
    if blocks:
        print(f"  noisy blocks: {result['noisy_blocks']} of {len(blocks)}")
    layers = result.get("layers")
    if layers:
        sources = result.get("layer_sources", {})
        print("  -- traced run, per layer --")
        for metric, value in sorted(layers.items()):
            note = f"  [{sources[metric]}]" if metric in sources else ""
            shown = f"{value:.0f}" if float(value).is_integer() else f"{value:.6g}"
            print(f"  {metric:<50}{shown:>14}{note}")
        if "trace_file" in traced:
            print(f"  spans: {traced['trace_file']}")


def _result_line(result: Dict, metrics: List[Dict], layered: bool) -> Dict:
    values = {}
    for metric in metrics:
        name = metric["name"]
        if layered:
            value = result.get("layers", {}).get(name)
        else:
            samples = result["samples"].get(name)
            value = quartiles(samples)[1] if samples else None
        if value is None:
            raise SystemExit(f"bench: no measurement of {name}")
        values[name] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": values,
    }


def cmd_run(args: argparse.Namespace) -> int:
    start = time.monotonic()
    settings = config()
    if args.seconds is None:
        args.seconds = float(settings["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = None if args.trace is None else bool(args.trace)
    env = environment()
    print(
        f"bench: seed {args.seed}, {args.seconds:g} s per workload, "
        f"cpus {env['cpu_count']}, python {env['python']}, "
        f"numpy {env['numpy']}, git {env['git_sha'] or 'unknown'}"
    )
    deadline = start + RUN_DEADLINE_S if args.workload else None
    try:
        results = run_workloads(names, args.seed, args.seconds, trace, deadline)
    except ProgramMissing as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    for name, result in results.items():
        _print_workload(name, result, settings["end_to_end"])
    out = Path(args.out) if args.out else OUT / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        if args.workload
        else f"run-seed{args.seed}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {"env": env, "seed": args.seed, "seconds": args.seconds,
             "workloads": results},
            indent=1,
        ),
        encoding="utf-8",
    )
    print(f"\nresult: {out}")
    if args.workload and trace is not None:
        metrics = settings["per_layer" if trace else "end_to_end"]
        print(json.dumps(_result_line(results[args.workload], metrics, trace)))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    lines, regressions = compare_files(
        Path(args.a), Path(args.b), config()["end_to_end"]
    )
    print("\n".join(lines))
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def cmd_pin(args: argparse.Namespace) -> int:
    """Record each workload's output digest at the pinned seeds."""
    pinned: Dict[str, Dict[str, str]] = {}
    for name in WORKLOADS:
        for seed in PINNED_SEEDS:
            block = spawn_block(name, seed, 0.0, False)
            digests = {repeat.get("digest") for repeat in block.get("repeats", [])}
            if len(digests) != 1 or None in digests:
                print(f"bench: {name} seed {seed} failed: {block}", file=sys.stderr)
                return 1
            pinned.setdefault(name, {})[str(seed)] = digests.pop()
            print(f"{name} seed {seed}: {pinned[name][str(seed)]}")
    DIGESTS_PATH.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    use_source_tree()
    try:
        import repro  # noqa: F401 - fail fast, and distinctly, without it
    except ImportError as error:
        print(f"bench worker: {error}", file=sys.stderr)
        return NO_PROGRAM
    from bench.worker import run_block

    record = run_block(
        args.workload, args.seed, args.budget, bool(args.trace), args.spawned,
        Path(args.scratch),
        Path(args.trace_file) if args.trace_file else None,
    )
    print(json.dumps(record))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure and check the workloads")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workload", choices=sorted(WORKLOADS),
                     help="one workload, printing one JSON result line last")
    run.add_argument("--seconds", type=float,
                     help="measuring time per workload "
                     "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="0: untraced blocks only; 1: traced block only; "
                     "default both")
    run.add_argument("--out", help="result file (default under bench/out/)")
    run.set_defaults(handler=cmd_run)

    compare = commands.add_parser("compare", help="hold result B against A")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=cmd_compare)

    pin = commands.add_parser("pin", help="rewrite bench/digests.json")
    pin.set_defaults(handler=cmd_pin)

    worker = commands.add_parser("worker")
    worker.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--budget", type=float, required=True)
    worker.add_argument("--trace", type=int, choices=(0, 1), required=True)
    worker.add_argument("--spawned", type=float, required=True)
    worker.add_argument("--scratch", required=True)
    worker.add_argument("--trace-file")
    worker.set_defaults(handler=cmd_worker)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
