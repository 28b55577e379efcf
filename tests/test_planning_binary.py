"""The binary policy artifact and the cache paths that serve it.

The packed sidecar (``.qbin``) is a pure serving optimization of the
canonical JSON document: the tests pin byte-identity between the two
restore paths (same greedy predictions, same Q values, same curve and
convergence), copy-on-write semantics of the frozen tables, clean
JSON fallback on any corruption, and the decode-once memo of
``PolicyCache.get``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import PlanningConfig
from repro.core.errors import CoReDAError
from repro.planning.action import action_space
from repro.planning.binary import (
    MAGIC,
    PolicyArtifactError,
    pack_policy_artifact,
    read_policy_artifact,
)
from repro.planning.state import episode_states
from repro.planning.store import (
    PolicyCache,
    train_routine_cached,
    training_cache_key,
    training_from_artifact,
)


@pytest.fixture
def trained_cache(tmp_path, tea_adl):
    """A cache holding one training; returns (cache, key, warm)."""
    cache = PolicyCache(tmp_path / "cache")
    config = PlanningConfig()
    ids = list(tea_adl.canonical_routine().step_ids)
    train_routine_cached(tea_adl, ids, config, 0, 60, cache=cache)
    warm = train_routine_cached(tea_adl, ids, config, 0, 60, cache=cache)
    key = training_cache_key(tea_adl.name, ids, config, 0, 60)
    return cache, key, warm


class TestArtifactRoundTrip:
    def test_sidecar_written_next_to_json(self, trained_cache):
        cache, key, _ = trained_cache
        sidecar = cache.artifact_path_for(key)
        assert sidecar.is_file()
        assert sidecar.read_bytes()[: len(MAGIC)] == MAGIC
        assert cache.path_for(key).is_file()

    def test_binary_predictor_matches_json_predictor(
        self, trained_cache, tea_adl
    ):
        cache, key, warm = trained_cache
        artifact = cache.get_artifact(key, tea_adl)
        assert artifact is not None
        binary = training_from_artifact(artifact, PlanningConfig())
        json_predictor = warm.predictor(tea_adl)
        bin_predictor = binary.predictor(tea_adl)
        states = episode_states(tea_adl.step_ids)
        for index in range(len(states) - 1):
            assert bin_predictor.predict(states[index]) == (
                json_predictor.predict(states[index])
            )
        assert bin_predictor.converged == json_predictor.converged
        assert bin_predictor.q.max_abs_difference(
            json_predictor.q
        ) == pytest.approx(0.0)

    def test_curve_and_convergence_round_trip_exactly(self, trained_cache):
        cache, key, warm = trained_cache
        artifact = cache.get_artifact(key)
        binary = training_from_artifact(artifact, PlanningConfig())
        assert binary.curve.behaviour_accuracy == warm.curve.behaviour_accuracy
        assert binary.curve.smoothed_accuracy == warm.curve.smoothed_accuracy
        assert binary.curve.greedy_accuracy == warm.curve.greedy_accuracy
        assert binary.convergence == warm.convergence

    def test_pack_read_round_trip_from_document(self, trained_cache, tea_adl):
        cache, key, _ = trained_cache
        document = cache.get(key)
        blob = pack_policy_artifact(document, action_space(tea_adl))
        artifact = read_policy_artifact(blob)
        assert artifact.adl_name == tea_adl.name
        assert artifact.matches(tea_adl)
        assert artifact.n_actions == len(action_space(tea_adl))

    def test_wrong_adl_rejected(self, trained_cache):
        from repro.adls.tooth_brushing import make_tooth_brushing

        cache, key, _ = trained_cache
        other = make_tooth_brushing()
        assert cache.get_artifact(key, other) is None
        artifact = cache.get_artifact(key)
        with pytest.raises(CoReDAError):
            artifact.predictor(other, converged=True)


class TestFrozenCopyOnWrite:
    def test_restored_table_is_frozen_and_readable(
        self, trained_cache, tea_adl
    ):
        cache, key, _ = trained_cache
        artifact = cache.get_artifact(key, tea_adl)
        q = artifact.qtable()
        assert q._frozen
        state, action = next(iter(q.known_pairs()))
        assert isinstance(q.value(state, action), float)

    def test_write_thaws_without_touching_the_artifact(
        self, trained_cache, tea_adl
    ):
        cache, key, _ = trained_cache
        artifact = cache.get_artifact(key, tea_adl)
        q = artifact.qtable()
        state, action = next(iter(q.known_pairs()))
        before = q.value(state, action)
        q.add(state, action, 0.5)
        assert not q._frozen
        assert q.value(state, action) == pytest.approx(before + 0.5)
        # A second restore still sees the original value: the write
        # went to a private thawed copy, never the shared buffer.
        assert artifact.qtable().value(state, action) == before

    def test_set_thaws_too(self, trained_cache, tea_adl):
        cache, key, _ = trained_cache
        q = cache.get_artifact(key, tea_adl).qtable()
        state, action = next(iter(q.known_pairs()))
        q.set(state, action, 9.0)
        assert not q._frozen
        assert q.value(state, action) == 9.0

    def test_artifact_buffers_are_read_only_views(
        self, trained_cache, tea_adl
    ):
        cache, key, _ = trained_cache
        artifact = cache.get_artifact(key, tea_adl)
        with pytest.raises((ValueError, TypeError)):
            artifact.q[0, 0] = 1.0
        assert isinstance(artifact.q, np.ndarray)
        assert not artifact.q.flags.writeable


class TestCorruptionFallsBackToJson:
    def test_truncated_sidecar_returns_none_without_counting(
        self, trained_cache
    ):
        cache, key, _ = trained_cache
        sidecar = cache.artifact_path_for(key)
        blob = sidecar.read_bytes()
        sidecar.write_bytes(blob[: len(blob) // 2])
        hits, misses = cache.stats()
        assert cache.get_artifact(key) is None
        assert cache.stats() == (hits, misses)

    def test_bit_flip_fails_crc(self, trained_cache):
        cache, key, _ = trained_cache
        sidecar = cache.artifact_path_for(key)
        blob = bytearray(sidecar.read_bytes())
        blob[-1] ^= 0xFF
        with pytest.raises(PolicyArtifactError):
            read_policy_artifact(bytes(blob))

    def test_bad_magic_rejected(self, trained_cache):
        cache, key, _ = trained_cache
        blob = bytearray(cache.artifact_path_for(key).read_bytes())
        blob[:4] = b"XXXX"
        with pytest.raises(PolicyArtifactError):
            read_policy_artifact(bytes(blob))

    def test_missing_sidecar_is_silent(self, trained_cache):
        cache, key, _ = trained_cache
        cache.artifact_path_for(key).unlink()
        assert cache.get_artifact(key) is None

    def test_json_path_still_serves_after_corruption(
        self, trained_cache, tea_adl
    ):
        cache, key, warm = trained_cache
        cache.artifact_path_for(key).write_bytes(b"garbage")
        assert cache.get_artifact(key, tea_adl) is None
        document = cache.get(key)
        assert document is not None
        assert document["adl"] == tea_adl.name


class TestMemoizedGet:
    def test_repeat_gets_decode_once(self, tmp_path):
        cache = PolicyCache(tmp_path / "cache")
        cache.put("k", {"format": 1, "n": 1})
        first = cache.get("k")
        second = cache.get("k")
        assert first == second == {"format": 1, "n": 1}
        assert cache.stats() == (2, 0)

    def test_put_invalidates_the_memo(self, tmp_path):
        cache = PolicyCache(tmp_path / "cache")
        cache.put("k", {"format": 1, "n": 1})
        cache.get("k")
        cache.put("k", {"format": 1, "n": 2})
        assert cache.get("k")["n"] == 2

    def test_external_rewrite_invalidates_the_memo(self, tmp_path):
        cache = PolicyCache(tmp_path / "cache")
        cache.put("k", {"format": 1, "n": 1})
        cache.get("k")
        cache.path_for("k").write_text(
            json.dumps({"format": 1, "n": 22222}), encoding="utf-8"
        )
        assert cache.get("k")["n"] == 22222

    def test_deleted_entry_drops_the_memo(self, tmp_path):
        cache = PolicyCache(tmp_path / "cache")
        cache.put("k", {"format": 1})
        cache.get("k")
        cache.path_for("k").unlink()
        assert cache.get("k") is None
        assert cache.stats() == (1, 1)
