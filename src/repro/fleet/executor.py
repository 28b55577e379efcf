"""The sharded fleet executor: thousands of homes, one care platform.

Execution happens in two waves over one persistent
:class:`~repro.evalx.parallel.WorkerPool`:

1. **Train** -- one cell per *distinct* training (ADL, routine, seed
   class), populating the content-addressed
   :class:`~repro.planning.store.PolicyCache` on disk.  A 10k-home
   fleet with seven routines and four seed classes trains 28
   policies, not 10k.
2. **Simulate** -- one cell per shard of ``shard_size`` homes, all
   on one shared event kernel (:mod:`repro.fleet.shard`).  Every home
   resolves its policy with a cache hit, runs its guided episodes,
   and folds into the shard's streaming
   :class:`~repro.fleet.metrics.FleetMetrics` accumulator; only that
   accumulator (plus the worker-side cache hit/miss counters) crosses
   back to the parent.

Both waves go through :func:`repro.evalx.parallel.run_cells`, so they
inherit its ordered-merge contract and bounded-window submission: the
fleet result is byte-identical at any ``--jobs``, and the parent
holds O(shards) futures and O(1) metrics, never O(homes) reports.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.adls.library import ADLDefinition, default_registry
from repro.core.config import CoReDAConfig
from repro.core.errors import CoReDAError
from repro.evalx.parallel import Cell, WorkerPool, run_cells
from repro.fleet.home import HomeRuntime, restore_memo, train_home_policy
from repro.fleet.metrics import FleetMetrics
from repro.fleet.shard import simulate_shard
from repro.fleet.spec import FleetSpec, HomeSpec, distinct_trainings
from repro.planning.action import action_space
from repro.planning.binary import pack_policy_artifact, read_policy_artifact
from repro.planning.shm import (
    PolicyArena,
    activate_local_arena,
    deactivate_local_arena,
    install_worker_registry,
)
from repro.planning.store import (
    ARTIFACT_SUFFIX,
    PolicyCache,
    training_cache_key,
)

__all__ = ["FleetResult", "run_fleet"]

#: Distinguishes concurrent fleet runs within one parent process --
#: arena segment names derive from (pid, run sequence, cache key).
_ARENA_SEQUENCE = itertools.count()


@dataclass
class FleetResult:
    """One fleet run's aggregate outcome."""

    spec: FleetSpec
    metrics: FleetMetrics
    shards: int
    distinct_trainings: int

    def to_dict(self) -> dict:
        """JSON-ready; byte-equal dicts certify byte-equal fleets."""
        return {
            "adl": self.spec.adl_name,
            "homes": self.spec.homes,
            "seed": self.spec.seed,
            "episodes_per_home": self.spec.episodes_per_home,
            "seed_classes": self.spec.seed_classes,
            "shards": self.shards,
            "distinct_trainings": self.distinct_trainings,
            "metrics": self.metrics.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        header = (
            f"Fleet — {self.spec.adl_name}, seed {self.spec.seed}: "
            f"{self.spec.homes} homes in {self.shards} shards, "
            f"{self.distinct_trainings} distinct trainings"
        )
        return header + "\n\n" + self.metrics.to_text()


def _train_cell(
    adl_name: str,
    home: HomeSpec,
    config: CoReDAConfig,
    training_episodes: int,
    cache_dir: str,
    cache_key: str,
) -> Tuple[int, int]:
    """Wave-1 worker: train one distinct routine into the cache."""
    definition = default_registry().get(adl_name)
    cache = PolicyCache(cache_dir)
    train_home_policy(
        definition, home, config, training_episodes, cache, key=cache_key
    )
    return cache.stats()


def _shard_cell(
    adl_name: str,
    homes: Tuple[HomeSpec, ...],
    config: CoReDAConfig,
    episodes: int,
    training_episodes: int,
    cache_dir: str,
    cache_keys: Dict[tuple, str],
) -> Tuple[FleetMetrics, int, int]:
    """Wave-2 worker: simulate one shard of homes.

    Returns the shard's streaming accumulator **and** the worker-side
    cache counters -- the counters are per-process, so without this
    the parent would report zero hits for every parallel run.

    The shard's :class:`~repro.fleet.home.HomeRuntime` resolves
    policies through the shared-memory arena installed by the pool
    initializer, falling back to the mmap'd sidecar, then JSON.
    ``cache_keys`` maps each training key of the fleet to its cache
    key, computed once in the parent.
    """
    definition = default_registry().get(adl_name)
    cache = PolicyCache(cache_dir)
    runtime = HomeRuntime(
        definition, config, training_episodes, cache, cache_keys=cache_keys
    )
    metrics = FleetMetrics()
    for report in simulate_shard(
        definition, homes, config, episodes, training_episodes, cache,
        runtime=runtime,
    ):
        metrics.add_home(report)
    hits, misses = cache.stats()
    return metrics, hits, misses


def _fleet_cache_keys(
    definition: ADLDefinition,
    representatives: Iterable[HomeSpec],
    config: CoReDAConfig,
    training_episodes: int,
) -> List[str]:
    """The content-addressed cache key of every distinct training."""
    return [
        training_cache_key(
            definition.adl.name,
            list(home.routine_ids),
            config.planning,
            home.train_seed,
            training_episodes,
        )
        for home in representatives
    ]


def _publish_policies(
    arena: PolicyArena,
    cache_root: str,
    keys: Iterable[str],
    definition: ADLDefinition,
) -> None:
    """Publish each trained policy's packed artifact into the arena.

    Prefers the binary sidecar wave 1 wrote (validated before
    publishing); a missing or undecodable sidecar is re-packed from
    the canonical JSON document.  A key that cannot be packed at all
    is simply not published -- the workers fall back to JSON for it,
    trading speed, never correctness.
    """
    root = Path(cache_root)
    for key in keys:
        payload: Optional[bytes] = None
        try:
            payload = (root / f"{key}{ARTIFACT_SUFFIX}").read_bytes()
            read_policy_artifact(payload)
        except (OSError, CoReDAError):
            payload = None
        if payload is None:
            try:
                document = json.loads(
                    (root / f"{key}.json").read_text(encoding="utf-8")
                )
                payload = pack_policy_artifact(
                    document, action_space(definition.adl)
                )
            except (OSError, ValueError, CoReDAError):
                continue
        arena.publish(key, payload)


def run_fleet(
    spec: FleetSpec,
    jobs: int = 1,
    config: Optional[CoReDAConfig] = None,
    cache_dir: Optional[str] = None,
    window: Optional[int] = None,
) -> FleetResult:
    """Run a whole fleet; byte-identical result at any ``jobs``.

    ``cache_dir`` shares trained policies across runs (and with the
    ``repro report`` cache); without it a private cache directory is
    created for the run and removed afterwards -- policy sharing
    *within* the fleet works either way.

    Between the waves each distinct training's binary artifact is
    published into a shared-memory arena once, and every wave-2
    worker serves it zero-copy.  Metrics and cache accounting are
    byte-identical to restoring every policy from its JSON document
    (``tests/oracles/fleet.py`` keeps that path, and the tests pin
    the two against each other).  Each process restores a distinct
    training once per run (:func:`~repro.fleet.home.restore_memo`).
    """
    definition = default_registry().get(spec.adl_name)
    if config is None:
        config = CoReDAConfig(seed=spec.seed)
    homes = spec.expand(definition)
    shards = spec.shards(homes)
    representatives = distinct_trainings(homes)
    own_cache = cache_dir is None
    if own_cache:
        cache_dir = tempfile.mkdtemp(prefix="repro-fleet-cache-")
    else:
        # The run's one sweep for temps of writers that died mid-put;
        # cells never sweep.
        PolicyCache(cache_dir).sweep_stale_temps()
    metrics = FleetMetrics()
    cache_keys = _fleet_cache_keys(
        definition, representatives, config, spec.training_episodes
    )
    keys_by_training = {
        home.training_key: key
        for home, key in zip(representatives, cache_keys)
    }
    arena = PolicyArena(tag=f"{os.getpid()}.{next(_ARENA_SEQUENCE)}")
    # Segment names are deterministic in the cache keys, so the worker
    # registry exists before wave 1 trains anything and rides in the
    # pool initializer -- cell payloads stay scalar.
    registry = {key: arena.segment_name(key) for key in cache_keys}
    try:
        # The memo opens before the pool forks, so each worker process
        # fills its own copy for this run.
        with restore_memo(), WorkerPool(
            jobs, initializer=install_worker_registry, initargs=(registry,)
        ) as pool:
            train_cells = [
                Cell(
                    _train_cell,
                    (
                        spec.adl_name,
                        home,
                        config,
                        spec.training_episodes,
                        cache_dir,
                        key,
                    ),
                    label=f"fleet.train[{index}]",
                )
                for index, (home, key) in enumerate(
                    zip(representatives, cache_keys)
                )
            ]
            train_stats, _ = run_cells(
                train_cells, jobs=jobs, window=window, pool=pool
            )
            _publish_policies(arena, cache_dir, cache_keys, definition)
            activate_local_arena(arena)
            shard_cells = [
                Cell(
                    _shard_cell,
                    (
                        spec.adl_name,
                        shard,
                        config,
                        spec.episodes_per_home,
                        spec.training_episodes,
                        cache_dir,
                        keys_by_training,
                    ),
                    label=f"fleet.shard[{index}]",
                )
                for index, shard in enumerate(shards)
            ]
            shard_results, _ = run_cells(
                shard_cells, jobs=jobs, window=window, pool=pool
            )
    finally:
        deactivate_local_arena(arena)
        arena.close()
        if own_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)
    for hits, misses in train_stats:
        metrics.add_cache_stats(hits, misses)
    for shard_metrics, hits, misses in shard_results:
        metrics.merge(shard_metrics)
        metrics.add_cache_stats(hits, misses)
    return FleetResult(
        spec=spec,
        metrics=metrics,
        shards=len(shards),
        distinct_trainings=len(representatives),
    )
