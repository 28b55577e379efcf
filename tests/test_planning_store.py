"""Unit tests for policy persistence."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.adls.tooth_brushing import make_tooth_brushing
from repro.core.config import PlanningConfig
from repro.core.errors import CoReDAError
from repro.planning.predictor import NextStepPredictor
from repro.planning.state import episode_states
from repro.planning.store import (
    FORMAT_VERSION,
    PolicyCache,
    load_predictor,
    save_predictor,
    train_routine_cached,
    training_cache_key,
)
from repro.planning.trainer import RoutineTrainer


#: Keys each stress writer puts (every writer puts all of them).
_STRESS_KEYS = 40


def _stress_document(index):
    return {"format": 1, "index": index, "payload": [index] * 500}


def _put_many(root, writer):
    cache = PolicyCache(root)
    for step in range(_STRESS_KEYS):
        index = (step + writer * 7) % _STRESS_KEYS
        cache.put(f"key{index}", _stress_document(index))


def _sweep_many(root):
    cache = PolicyCache(root)
    for _ in range(200):
        cache.sweep_stale_temps()


def _dead_pid():
    """The pid of a process that has exited and been reaped."""
    process = subprocess.Popen([sys.executable, "-c", "pass"])
    process.wait()
    return process.pid


@pytest.fixture
def predictor(tea_adl):
    trainer = RoutineTrainer(tea_adl, rng=np.random.default_rng(0))
    routine = tea_adl.canonical_routine()
    result = trainer.train([list(routine.step_ids)] * 120, routine=routine)
    return NextStepPredictor.from_training(result)


class TestRoundTrip:
    def test_predictions_survive_roundtrip(self, tmp_path, tea_adl, predictor):
        path = tmp_path / "policy.json"
        save_predictor(predictor, path, tea_adl.name)
        restored = load_predictor(path, tea_adl)
        states = episode_states(tea_adl.step_ids)
        for index in range(len(states) - 1):
            assert restored.predict(states[index]) == predictor.predict(
                states[index]
            )
        assert restored.converged == predictor.converged

    def test_q_values_preserved(self, tmp_path, tea_adl, predictor):
        path = tmp_path / "policy.json"
        save_predictor(predictor, path, tea_adl.name)
        restored = load_predictor(path, tea_adl)
        assert restored.q.max_abs_difference(predictor.q) == pytest.approx(0.0)

    def test_file_is_plain_json(self, tmp_path, tea_adl, predictor):
        path = tmp_path / "policy.json"
        save_predictor(predictor, path, tea_adl.name)
        document = json.loads(path.read_text())
        assert document["format"] == FORMAT_VERSION
        assert document["adl"] == "tea-making"
        assert document["entries"]


class TestValidation:
    def test_wrong_adl_rejected(self, tmp_path, tea_adl, predictor):
        path = tmp_path / "policy.json"
        save_predictor(predictor, path, tea_adl.name)
        with pytest.raises(CoReDAError):
            load_predictor(path, make_tooth_brushing())

    def test_wrong_format_rejected(self, tmp_path, tea_adl, predictor):
        path = tmp_path / "policy.json"
        save_predictor(predictor, path, tea_adl.name)
        document = json.loads(path.read_text())
        document["format"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(CoReDAError):
            load_predictor(path, tea_adl)

    def test_unknown_tool_rejected(self, tmp_path, tea_adl, predictor):
        path = tmp_path / "policy.json"
        save_predictor(predictor, path, tea_adl.name)
        document = json.loads(path.read_text())
        document["entries"][0]["tool_id"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(CoReDAError):
            load_predictor(path, tea_adl)


class TestTrainingCacheKey:
    def test_stable_across_calls(self, tea_adl):
        config = PlanningConfig()
        first = training_cache_key(tea_adl.name, (1, 2, 3, 4), config, 0, 120)
        second = training_cache_key(tea_adl.name, [1, 2, 3, 4], config, 0, 120)
        assert first == second

    def test_every_component_matters(self, tea_adl):
        config = PlanningConfig()
        base = training_cache_key(tea_adl.name, (1, 2, 3, 4), config, 0, 120)
        assert base != training_cache_key("other", (1, 2, 3, 4), config, 0, 120)
        assert base != training_cache_key(
            tea_adl.name, (1, 3, 2, 4), config, 0, 120
        )
        assert base != training_cache_key(
            tea_adl.name, (1, 2, 3, 4), PlanningConfig(learning_rate=0.3),
            0, 120,
        )
        assert base != training_cache_key(
            tea_adl.name, (1, 2, 3, 4), config, 1, 120
        )
        assert base != training_cache_key(
            tea_adl.name, (1, 2, 3, 4), config, 0, 121
        )
        assert base != training_cache_key(
            tea_adl.name, (1, 2, 3, 4), config, 0, 120,
            learner=("dyna-q", 5),
        )

    def test_key_is_pinned(self):
        # The key existing --cache directories were written under; a
        # change here silently orphans every cached training.
        assert training_cache_key(
            "tea-making", (1, 2, 3, 4), PlanningConfig(), 0, 120
        ) == "2fa4059e2cb92da253a7deb8fe448bbc73850875e9721425dbb9de4234dee134"


class TestPolicyCache:
    def test_miss_then_hit(self, tmp_path, tea_adl):
        cache = PolicyCache(tmp_path / "cache")
        config = PlanningConfig()
        ids = list(tea_adl.canonical_routine().step_ids)
        cold = train_routine_cached(tea_adl, ids, config, 0, 60, cache=cache)
        warm = train_routine_cached(tea_adl, ids, config, 0, 60, cache=cache)
        assert not cold.cache_hit
        assert warm.cache_hit
        assert cache.misses == 1
        assert cache.hits == 1
        assert len(cache) == 1

    def test_hit_reproduces_miss_exactly(self, tmp_path, tea_adl):
        cache = PolicyCache(tmp_path / "cache")
        config = PlanningConfig()
        ids = list(tea_adl.canonical_routine().step_ids)
        cold = train_routine_cached(tea_adl, ids, config, 3, 60, cache=cache)
        warm = train_routine_cached(tea_adl, ids, config, 3, 60, cache=cache)
        assert warm.curve.behaviour_accuracy == cold.curve.behaviour_accuracy
        assert warm.curve.greedy_accuracy == cold.curve.greedy_accuracy
        assert warm.convergence == cold.convergence
        states = episode_states(ids)
        cold_predictor = cold.predictor(tea_adl)
        warm_predictor = warm.predictor(tea_adl)
        for index in range(len(states) - 1):
            assert warm_predictor.predict(states[index]) == cold_predictor.predict(
                states[index]
            )

    def test_different_seeds_are_different_entries(self, tmp_path, tea_adl):
        cache = PolicyCache(tmp_path / "cache")
        config = PlanningConfig()
        ids = list(tea_adl.canonical_routine().step_ids)
        train_routine_cached(tea_adl, ids, config, 0, 60, cache=cache)
        train_routine_cached(tea_adl, ids, config, 1, 60, cache=cache)
        assert len(cache) == 2
        assert cache.hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path, tea_adl):
        cache = PolicyCache(tmp_path / "cache")
        config = PlanningConfig()
        ids = list(tea_adl.canonical_routine().step_ids)
        train_routine_cached(tea_adl, ids, config, 0, 60, cache=cache)
        key = training_cache_key(tea_adl.name, ids, config, 0, 60)
        cache.path_for(key).write_text("not json")
        again = train_routine_cached(tea_adl, ids, config, 0, 60, cache=cache)
        assert not again.cache_hit

    def test_len_ignores_crashed_writer_temp_files(self, tmp_path):
        """Regression: ``*.json`` globs match dotted temp leftovers.

        ``pathlib`` globbing matches a leading dot, so a crashed
        writer's ``.tmp-x.json`` used to inflate ``len(cache)``
        forever.
        """
        cache = PolicyCache(tmp_path / "cache")
        cache.put("real", {"format": 1})
        (cache.root / ".tmp-x.json").write_text("{}", encoding="utf-8")
        assert len(cache) == 1

    def test_sweep_removes_stale_temp_files(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        dead = _dead_pid()
        (root / ".tmp-old.part").write_text("{}", encoding="utf-8")
        (root / ".tmp-old.json").write_text("{}", encoding="utf-8")
        (root / f".tmp-{dead}-x.part").write_text("{}", encoding="utf-8")
        live = root / f".tmp-{os.getpid()}-x.part"
        live.write_text("{}", encoding="utf-8")
        (root / "keep.json").write_text('{"format": 1}', encoding="utf-8")
        cache = PolicyCache(root)
        # Construction never sweeps: only a run's parent does, once.
        assert len(list(root.glob(".tmp-*"))) == 4
        cache.sweep_stale_temps()
        assert sorted(p.name for p in root.iterdir()) == [
            live.name, "keep.json"
        ]
        assert len(cache) == 1

    def test_put_survives_repeated_sweeps_of_its_temp(self, tmp_path, monkeypatch):
        """Regression: a sweep between a writer's temp write and its
        rename used to delete the live temp, and ``put`` raised
        FileNotFoundError (a flaky ``--jobs 2`` report).  A sweep now
        keeps every temp whose writer is alive."""
        import repro.planning.store as store

        cache = PolicyCache(tmp_path / "cache")
        replace = store.os.replace
        swept = []

        def replace_after_sweeps(src, dst):
            if len(swept) < 3:
                swept.append(src)
                cache.sweep_stale_temps()  # a racing sweep
            return replace(src, dst)

        monkeypatch.setattr(store.os, "replace", replace_after_sweeps)
        cache.put("key", {"format": 1})
        monkeypatch.undo()
        assert len(swept) == 1  # one write, one rename: no retry
        assert cache.get("key") == {"format": 1}
        assert [p.name for p in cache.root.iterdir()] == ["key.json"]

    def test_concurrent_puts_lose_and_tear_nothing(self, tmp_path):
        # Several processes put overlapping keys into one directory
        # while another sweeps it over and over.
        import multiprocessing

        root = str(tmp_path / "cache")
        PolicyCache(root)
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_put_many, args=(root, writer))
            for writer in range(3)
        ]
        sweeper = context.Process(target=_sweep_many, args=(root,))
        for process in writers + [sweeper]:
            process.start()
        for process in writers + [sweeper]:
            process.join(60)
            assert process.exitcode == 0
        cache = PolicyCache(root)
        for index in range(_STRESS_KEYS):
            assert cache.get(f"key{index}") == _stress_document(index)
        assert len(cache) == _STRESS_KEYS
        assert list(cache.root.glob(".tmp-*")) == []

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = PolicyCache(tmp_path / "cache")
        for index in range(3):
            cache.put(f"key{index}", {"format": 1, "index": index})
        leftovers = [p.name for p in cache.root.iterdir()
                     if p.name.startswith(".")]
        assert leftovers == []
        assert len(cache) == 3

    def test_stats_tracks_hits_and_misses(self, tmp_path):
        cache = PolicyCache(tmp_path / "cache")
        assert cache.stats() == (0, 0)
        assert cache.get("absent") is None
        cache.put("present", {"format": 1})
        assert cache.get("present") == {"format": 1}
        assert cache.stats() == (1, 1)
