"""The shared-memory policy arena and its lifecycle guarantees.

The arena owns every published segment in the fleet parent; the tests
pin the contract the executor relies on: publish/attach round trips,
deterministic segment naming (registry computable before artifacts
exist), zero-copy worker attachment through the pool initializer, and
-- most load-bearing -- that ``/dev/shm`` holds no arena segment after
a run ends, whether the run succeeded, failed mid-wave, or was closed
twice.
"""

from __future__ import annotations

import glob
from multiprocessing import shared_memory

import pytest

from repro.core.config import PlanningConfig
from repro.evalx.parallel import Cell, WorkerPool, run_cells
from repro.fleet.spec import FleetSpec
from repro.planning.action import action_space
from repro.planning.shm import (
    PolicyArena,
    activate_local_arena,
    arena_artifact,
    deactivate_local_arena,
    install_worker_registry,
    installed_registry,
)
from repro.planning.store import (
    PolicyCache,
    train_routine_cached,
    training_cache_key,
)

SMALL_SPEC = FleetSpec(
    adl_name="tea-making",
    homes=6,
    seed=0,
    episodes_per_home=1,
    training_episodes=30,
    seed_classes=2,
    shard_size=3,
)


def _leaked_segments():
    return sorted(glob.glob("/dev/shm/rpp*"))


@pytest.fixture
def packed_policy(tmp_path, tea_adl):
    """(cache key, packed artifact bytes) for one small training."""
    cache = PolicyCache(tmp_path / "cache")
    config = PlanningConfig()
    ids = list(tea_adl.canonical_routine().step_ids)
    train_routine_cached(tea_adl, ids, config, 0, 30, cache=cache)
    key = training_cache_key(tea_adl.name, ids, config, 0, 30)
    return key, cache.artifact_path_for(key).read_bytes()


class TestPolicyArena:
    def test_publish_and_decode_round_trip(self, packed_policy, tea_adl):
        key, blob = packed_policy
        with PolicyArena(tag="t1") as arena:
            arena.publish(key, blob)
            artifact = arena.artifact(key)
            assert artifact is not None
            assert artifact.matches(tea_adl)
            assert arena.registry() == {key: arena.segment_name(key)}
            # The contract close() documents: views die before the
            # mappings unmap.
            del artifact
        assert _leaked_segments() == []

    def test_segment_names_deterministic_and_short(self, packed_policy):
        key, _ = packed_policy
        first = PolicyArena(tag="t2")
        second = PolicyArena(tag="t2")
        assert first.segment_name(key) == second.segment_name(key)
        assert PolicyArena(tag="other").segment_name(key) != (
            first.segment_name(key)
        )
        # shm_open portability: at most 31 chars including the
        # implementation's leading slash.
        assert len(first.segment_name(key)) <= 30
        for arena in (first, second):
            arena.close()

    def test_close_unlinks_and_is_idempotent(self, packed_policy):
        key, blob = packed_policy
        arena = PolicyArena(tag="t3")
        arena.publish(key, blob)
        name = arena.segment_name(key)
        arena.close()
        arena.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        with pytest.raises(ValueError):
            arena.publish(key, blob)
        assert _leaked_segments() == []

    def test_publish_reclaims_stale_segment(self, packed_policy):
        key, blob = packed_policy
        arena = PolicyArena(tag="t4")
        # A killed earlier run left a same-named segment behind.
        stale = shared_memory.SharedMemory(
            name=arena.segment_name(key), create=True, size=8
        )
        stale.close()
        arena.publish(key, blob)
        assert arena.artifact(key) is not None
        arena.close()
        assert _leaked_segments() == []


class TestWorkerResolution:
    def test_local_arena_serves_inline_lookups(self, packed_policy, tea_adl):
        key, blob = packed_policy
        arena = PolicyArena(tag="t5")
        arena.publish(key, blob)
        activate_local_arena(arena)
        try:
            artifact = arena_artifact(key)
            assert artifact is not None and artifact.matches(tea_adl)
            del artifact
        finally:
            deactivate_local_arena(arena)
            arena.close()
        assert _leaked_segments() == []

    def test_registry_attach_serves_and_memoizes(
        self, packed_policy, tea_adl
    ):
        key, blob = packed_policy
        arena = PolicyArena(tag="t6")
        arena.publish(key, blob)
        install_worker_registry(arena.registry())
        try:
            first = arena_artifact(key)
            assert first is not None and first.matches(tea_adl)
            assert arena_artifact(key) is first  # per-process memo
        finally:
            install_worker_registry({})
            arena.close()
        assert _leaked_segments() == []

    def test_unknown_key_and_missing_segment_fall_through(self):
        install_worker_registry({"known": "rpp0000000000000000000000"})
        try:
            assert arena_artifact("unknown") is None
            assert arena_artifact("known") is None  # never published
        finally:
            install_worker_registry({})

    def test_install_replaces_previous_registry(self):
        install_worker_registry({"a": "x"})
        install_worker_registry({"b": "y"})
        try:
            assert installed_registry() == {"b": "y"}
        finally:
            install_worker_registry({})


class TestPoolInitializer:
    def test_initializer_runs_in_every_worker(self):
        registry = {"key": "rppdeadbeefdeadbeefdeadbe"}
        with WorkerPool(
            2, initializer=install_worker_registry, initargs=(registry,)
        ) as pool:
            cells = [Cell(installed_registry) for _ in range(4)]
            results, _ = run_cells(cells, jobs=2, pool=pool)
        assert results == [registry] * 4

    def test_jobs_1_pool_never_forks(self):
        pool = WorkerPool(1, initializer=install_worker_registry,
                          initargs=({},))
        assert pool._executor is None
        pool.close()


def _boom_cell(*args, **kwargs):
    raise RuntimeError("boom")


class TestFleetLeakHygiene:
    def test_no_segments_after_successful_runs(self):
        from repro.fleet.executor import run_fleet

        for jobs in (1, 2):
            run_fleet(SMALL_SPEC, jobs=jobs)
            assert _leaked_segments() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_segments_after_failed_run(self, monkeypatch, jobs):
        # A shard cell blowing up mid-wave-2 must still tear the
        # arena down: run_fleet's finally owns the unlink.
        from repro.fleet import executor

        monkeypatch.setattr(executor, "_shard_cell", _boom_cell)
        with pytest.raises(RuntimeError, match="boom"):
            executor.run_fleet(SMALL_SPEC, jobs=jobs)
        assert _leaked_segments() == []
