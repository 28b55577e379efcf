"""The four workloads, and how a worker process sets one up and runs it.

Every workload is a closed-loop batch job: the worker issues the next
repeat when the previous one returns.  Inputs come from ``--seed``
only; ``run_fleet`` and ``run_all`` receive nothing but the generated
spec, so a repeat's output is a pure function of (workload, seed) and
its sha256 digest checks correctness.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

__all__ = ["WORKLOADS", "Workload", "available_cpus", "digest", "prepare"]


def available_cpus() -> int:
    """CPUs this process may run on (``nproc``), not the host's count."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    #: Homes per repeat; 0 for the paper report, whose unit of work is
    #: one whole report (``homes_per_s`` then reads reports/s).
    homes: int
    #: ``FleetSpec`` fields besides the seed (fleet workloads only).
    spec: Dict[str, object] = field(default_factory=dict)
    #: Worker processes wanted; always capped at :func:`available_cpus`.
    jobs: int = 1
    #: Fill the policy cache during set-up, so repeats train nothing.
    warm_cache: bool = False

    @property
    def units(self) -> int:
        return self.homes or 1

    def jobs_here(self) -> int:
        return max(1, min(self.jobs, available_cpus()))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Every paper table: ~41% RL training, ~50% sensing-heavy
        # sections; no fleet, no policy store.
        Workload("paper-report", homes=0),
        # Sensing and kernel: the timed phase trains nothing and the
        # store only reads.
        Workload(
            "fleet-warm",
            homes=1000,
            spec={"homes": 1000, "shard_size": 50, "seed_classes": 4},
            warm_cache=True,
        ),
        # Training wave and the store's write side (~103 trainings),
        # in a private cache as the CLI does by default.
        Workload(
            "fleet-cold-diverse",
            homes=200,
            spec={"homes": 200, "seed_classes": 64},
        ),
        # The only cross-process workload: worker fork, shared-memory
        # arena, FleetMetrics pickling; five episodes per home shift
        # weight to planning and reminding.
        Workload(
            "fleet-episodes-jobs2",
            homes=200,
            spec={
                "homes": 200,
                "episodes_per_home": 5,
                "max_severity": 1.0,
                "shard_size": 25,
                "seed_classes": 4,
            },
            jobs=2,
            warm_cache=True,
        ),
    )
}


def digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


#: ``run(jobs, timings) -> output text``
Runner = Callable[[int, Optional[Dict[str, float]]], str]


def prepare(workload: Workload, seed: int, scratch: Path) -> Tuple[Runner, int]:
    """Import, build the inputs, fill the cache, warm up; return the runner.

    Everything here counts as set-up time.  The warm-up is one untimed
    run: the first run in a fresh process pays for lazy imports,
    allocator growth and cold code paths, up to 40% extra on
    fleet-cold-diverse.  Returns the runner and the episodes each home
    runs.
    """
    if not workload.homes:
        from repro.evalx.runner import run_all

        def run_report(jobs: int, timings: Optional[Dict[str, float]]) -> str:
            return run_all(fast=True, jobs=jobs, timings=timings)

        run_report(workload.jobs_here(), None)
        return run_report, 1

    from repro.adls.library import default_registry
    from repro.core.config import CoReDAConfig
    from repro.fleet import FleetSpec, distinct_trainings, run_fleet
    from repro.fleet.home import train_home_policy
    from repro.planning.store import PolicyCache

    spec = FleetSpec(seed=seed, **workload.spec)
    definition = default_registry().get(spec.adl_name)
    homes = spec.expand(definition)
    cache_dir: Optional[str] = None
    if workload.warm_cache:
        cache_dir = str(scratch / "policy-cache")
        cache = PolicyCache(cache_dir)
        # The config run_fleet builds when given none.
        config = CoReDAConfig(seed=spec.seed)
        for home in distinct_trainings(homes):
            train_home_policy(
                definition, home, config, spec.training_episodes, cache
            )

    def run_spec(jobs: int, timings: Optional[Dict[str, float]]) -> str:
        return run_fleet(spec, jobs=jobs, cache_dir=cache_dir).to_json()

    # Two shards' worth of homes, on a private cache: the measured
    # cache stays exactly as the loop above filled it.
    small = replace(spec, homes=min(spec.homes, 2 * spec.shard_size))
    run_fleet(small, jobs=workload.jobs_here())
    return run_spec, spec.episodes_per_home
