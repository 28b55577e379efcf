"""The binary policy artifact, the cache's packer and the cache layout.

The packed artifact is the form of the canonical JSON document that
the fleet's shared-memory arena serves: the tests pin byte-identity
between the two restore paths (same greedy predictions, same Q values,
same curve and convergence), restored tables that own their storage,
a reader that refuses any corrupt buffer, and a cache that keeps one
``<key>.json`` file per training and counts every ``get``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.config import PlanningConfig
from repro.core.errors import CoReDAError
from repro.planning.action import action_space
from repro.planning.binary import (
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


def _artifact(cache, key, adl):
    return read_policy_artifact(cache.get_artifact(key, adl))


class TestArtifactRoundTrip:
    def test_binary_predictor_matches_json_predictor(
        self, trained_cache, tea_adl
    ):
        cache, key, warm = trained_cache
        binary = training_from_artifact(
            _artifact(cache, key, tea_adl), PlanningConfig()
        )
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

    def test_curve_and_convergence_round_trip_exactly(
        self, trained_cache, tea_adl
    ):
        cache, key, warm = trained_cache
        binary = training_from_artifact(
            _artifact(cache, key, tea_adl), PlanningConfig()
        )
        assert binary.curve.behaviour_accuracy == warm.curve.behaviour_accuracy
        assert binary.curve.smoothed_accuracy == warm.curve.smoothed_accuracy
        assert binary.curve.greedy_accuracy == warm.curve.greedy_accuracy
        assert binary.convergence == warm.convergence

    def test_pack_read_round_trip_from_document(self, trained_cache, tea_adl):
        cache, key, _ = trained_cache
        document = cache.get(key)
        blob = pack_policy_artifact(document, action_space(tea_adl))
        assert cache.get_artifact(key, tea_adl) == blob
        artifact = read_policy_artifact(blob)
        assert artifact.adl_name == tea_adl.name
        assert artifact.matches(tea_adl)
        assert artifact.q.shape[1] == len(action_space(tea_adl))

    def test_wrong_adl_rejected(self, trained_cache, tea_adl):
        from repro.adls.tooth_brushing import make_tooth_brushing

        cache, key, _ = trained_cache
        other = make_tooth_brushing()
        assert cache.get_artifact(key, other) is None
        artifact = _artifact(cache, key, tea_adl)
        with pytest.raises(CoReDAError):
            artifact.predictor(other, converged=True)

    def test_packing_is_not_a_lookup(self, trained_cache, tea_adl):
        cache, key, _ = trained_cache
        stats = cache.stats()
        assert cache.get_artifact(key, tea_adl) is not None
        assert cache.get_artifact("missing", tea_adl) is None
        assert cache.stats() == stats

    def test_unpackable_entry_packs_to_none(self, trained_cache, tea_adl):
        cache, key, _ = trained_cache
        document = cache.get(key)
        document["entries"][0]["tool_id"] = 99
        cache.put(key, document)
        assert cache.get_artifact(key, tea_adl) is None
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get_artifact(key, tea_adl) is None


class TestRestoredTableOwnsStorage:
    """A restored table copies the artifact's read-only arrays once:
    it reads the artifact's values, and its writes never reach them."""

    def test_restored_table_reads_the_artifact(self, trained_cache, tea_adl):
        cache, key, _ = trained_cache
        artifact = _artifact(cache, key, tea_adl)
        q = artifact.qtable()
        assert q.as_array().tolist() == artifact.q.tolist()
        state, action = next(iter(q.known_pairs()))
        assert isinstance(q.value(state, action), float)

    def test_add_never_touches_the_artifact(self, trained_cache, tea_adl):
        cache, key, _ = trained_cache
        artifact = _artifact(cache, key, tea_adl)
        q = artifact.qtable()
        state, action = next(iter(q.known_pairs()))
        before = q.value(state, action)
        version = q.version
        q.add(state, action, 0.5)
        assert q.version > version
        assert q.value(state, action) == pytest.approx(before + 0.5)
        # A second restore still sees the original value: the write
        # went to the table's own copy, never the shared buffer.
        assert artifact.qtable().value(state, action) == before

    def test_set_never_touches_the_artifact(self, trained_cache, tea_adl):
        cache, key, _ = trained_cache
        artifact = _artifact(cache, key, tea_adl)
        q = artifact.qtable()
        state, action = next(iter(q.known_pairs()))
        before = q.value(state, action)
        version = q.version
        q.set(state, action, 9.0)
        assert q.version > version
        assert q.value(state, action) == 9.0
        assert artifact.qtable().value(state, action) == before

    def test_artifact_buffers_are_read_only_views(
        self, trained_cache, tea_adl
    ):
        cache, key, _ = trained_cache
        artifact = _artifact(cache, key, tea_adl)
        with pytest.raises((ValueError, TypeError)):
            artifact.q[0, 0] = 1.0
        assert isinstance(artifact.q, np.ndarray)
        assert not artifact.q.flags.writeable


class TestCorruptionFallsBackToJson:
    """The arena reader refuses a damaged buffer, so the home restores
    from the JSON document instead."""

    def test_truncated_artifact_rejected(self, trained_cache, tea_adl):
        cache, key, _ = trained_cache
        blob = cache.get_artifact(key, tea_adl)
        for length in (0, 11, len(blob) // 2, len(blob) - 1):
            with pytest.raises(PolicyArtifactError):
                read_policy_artifact(blob[:length])

    def test_bit_flip_fails_crc(self, trained_cache, tea_adl):
        cache, key, _ = trained_cache
        blob = bytearray(cache.get_artifact(key, tea_adl))
        blob[-1] ^= 0xFF
        with pytest.raises(PolicyArtifactError):
            read_policy_artifact(bytes(blob))

    def test_bad_magic_rejected(self, trained_cache, tea_adl):
        cache, key, _ = trained_cache
        blob = bytearray(cache.get_artifact(key, tea_adl))
        blob[:4] = b"XXXX"
        with pytest.raises(PolicyArtifactError):
            read_policy_artifact(bytes(blob))


class TestGetAndPut:
    def test_repeat_gets_count_each_hit(self, tmp_path):
        cache = PolicyCache(tmp_path / "cache")
        cache.put("k", {"format": 1, "n": 1})
        first = cache.get("k")
        second = cache.get("k")
        assert first == second == {"format": 1, "n": 1}
        assert cache.stats() == (2, 0)

    def test_put_overwrites(self, tmp_path):
        cache = PolicyCache(tmp_path / "cache")
        cache.put("k", {"format": 1, "n": 1})
        cache.get("k")
        cache.put("k", {"format": 1, "n": 2})
        assert cache.get("k")["n"] == 2

    def test_get_reads_an_external_rewrite(self, tmp_path):
        cache = PolicyCache(tmp_path / "cache")
        cache.put("k", {"format": 1, "n": 1})
        cache.get("k")
        cache.path_for("k").write_text(
            json.dumps({"format": 1, "n": 22222}), encoding="utf-8"
        )
        assert cache.get("k")["n"] == 22222

    def test_deleted_entry_is_a_miss(self, tmp_path):
        cache = PolicyCache(tmp_path / "cache")
        cache.put("k", {"format": 1})
        cache.get("k")
        cache.path_for("k").unlink()
        assert cache.get("k") is None
        assert cache.stats() == (1, 1)


class TestOneFilePerEntry:
    def test_put_leaves_one_json_file(self, trained_cache):
        cache, key, _ = trained_cache
        assert sorted(os.listdir(cache.root)) == [f"{key}.json"]
        assert len(cache) == 1
