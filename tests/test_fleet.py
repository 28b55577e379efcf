"""The fleet layer: spec expansion, streaming reducers, executor.

The fleet inherits the repo's central invariant -- byte-identical
output at any ``--jobs`` -- and adds two of its own: per-home seeds
never move when the shard layout changes, and policy sharing trains
exactly the distinct (routine, seed class) combinations, not one
policy per home.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import statistics
import weakref

import pytest

from oracles.fleet import json_restore, per_home_shards, simulate_home
from oracles.inference import ScalarPredictor
from repro.cli import main
from repro.core.config import CoReDAConfig
from repro.core.errors import CoReDAError
from repro.fleet import (
    FleetMetrics,
    FleetSpec,
    HomeReport,
    Welford,
    distinct_trainings,
    run_fleet,
    simulate_shard,
)
import repro.fleet.executor as executor_module
import repro.fleet.home as home_module
import repro.fleet.shard as shard_module
import repro.planning.store as store_module
from repro.fleet.home import HomeRuntime, train_home_policy
from repro.planning.store import PolicyCache
from repro.sensors.pavenet import PavenetNode
from repro.sensors.signals import SignalSource
from repro.sim.random import StreamBatch, seeded_generator

#: Small but non-trivial: several shards, several seed classes, and
#: enough homes that routines repeat (so policy sharing is exercised).
SPEC = FleetSpec(
    adl_name="tea-making",
    homes=10,
    seed=0,
    episodes_per_home=1,
    training_episodes=40,
    seed_classes=2,
    shard_size=3,
)


@pytest.fixture(scope="module")
def tea_fleet_definition():
    from repro.adls.library import default_registry

    return default_registry().get("tea-making")


@pytest.fixture(scope="module")
def serial_result():
    return run_fleet(SPEC, jobs=1)


class TestFleetSpec:
    def test_expand_is_deterministic(self, tea_fleet_definition):
        first = SPEC.expand(tea_fleet_definition)
        second = SPEC.expand(tea_fleet_definition)
        assert first == second

    def test_home_seeds_are_distinct(self, tea_fleet_definition):
        homes = SPEC.expand(tea_fleet_definition)
        assert len({home.seed for home in homes}) == len(homes)

    def test_home_seeds_stable_under_shard_count_changes(
        self, tea_fleet_definition
    ):
        resharded = FleetSpec(
            adl_name=SPEC.adl_name,
            homes=SPEC.homes,
            seed=SPEC.seed,
            episodes_per_home=SPEC.episodes_per_home,
            training_episodes=SPEC.training_episodes,
            seed_classes=SPEC.seed_classes,
            shard_size=1,
        )
        assert resharded.expand(tea_fleet_definition) == SPEC.expand(
            tea_fleet_definition
        )

    def test_shards_flatten_back_to_expand(self, tea_fleet_definition):
        homes = SPEC.expand(tea_fleet_definition)
        shards = SPEC.shards(homes)
        assert [home for shard in shards for home in shard] == homes
        assert all(len(shard) <= SPEC.shard_size for shard in shards)

    def test_seed_classes_bound_training_seeds(self, tea_fleet_definition):
        homes = SPEC.expand(tea_fleet_definition)
        assert len({home.train_seed for home in homes}) <= SPEC.seed_classes

    def test_thousand_homes_train_at_most_eight_routines_per_class(
        self, tea_fleet_definition
    ):
        # A 1000-home fleet trains its distinct routines, not one
        # policy per home.
        spec = FleetSpec(
            adl_name="tea-making",
            homes=1000,
            seed=0,
            episodes_per_home=1,
            training_episodes=120,
            seed_classes=4,
            shard_size=50,
        )
        distinct = len(distinct_trainings(spec.expand(tea_fleet_definition)))
        assert distinct <= spec.seed_classes * 8

    def test_distinct_trainings_dedupe_and_preserve_order(
        self, tea_fleet_definition
    ):
        homes = SPEC.expand(tea_fleet_definition)
        representatives = distinct_trainings(homes)
        keys = [home.training_key for home in representatives]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {home.training_key for home in homes}
        ids = [home.home_id for home in representatives]
        assert ids == sorted(ids)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"homes": 0},
            {"episodes_per_home": 0},
            {"training_episodes": -1},
            {"seed_classes": 0},
            {"shard_size": 0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FleetSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_severity": math.nan}, r"max_severity must be in \[0\.1, 1\.0\], got nan"),
            ({"max_severity": 2.0}, r"max_severity must be in \[0\.1, 1\.0\], got 2\.0"),
            ({"max_severity": -0.5}, r"max_severity must be in \[0\.1, 1\.0\], got -0\.5"),
            ({"min_age": 90, "max_age": 70}, r"min_age \(90\) must not exceed max_age \(70\)"),
        ],
    )
    def test_cohort_bounds_rejected_at_construction(self, kwargs, message):
        # The same messages generate_population raises, but before
        # run_fleet trains or simulates anything.
        with pytest.raises(ValueError, match=message):
            FleetSpec(**kwargs)


class TestWelford:
    def test_matches_naive_aggregation(self):
        rng = seeded_generator(7)
        values = [float(v) for v in rng.normal(3.0, 2.0, size=200)]
        welford = Welford()
        for value in values:
            welford.add(value)
        assert welford.count == len(values)
        assert math.isclose(welford.mean, statistics.fmean(values))
        assert math.isclose(welford.sd, statistics.stdev(values))

    def test_sharded_merge_matches_single_stream(self):
        rng = seeded_generator(11)
        values = [float(v) for v in rng.uniform(0.0, 5.0, size=100)]
        single = Welford()
        for value in values:
            single.add(value)
        merged = Welford()
        for start in range(0, len(values), 7):
            shard = Welford()
            for value in values[start:start + 7]:
                shard.add(value)
            merged.merge(shard)
        assert merged.count == single.count
        assert math.isclose(merged.mean, single.mean)
        assert math.isclose(merged.sd, single.sd)

    def test_sd_needs_two_observations(self):
        welford = Welford()
        assert welford.sd is None
        welford.add(1.0)
        assert welford.sd is None
        welford.add(2.0)
        assert welford.sd is not None


def _report(home_id, reminders=2, episodes=1, seen=2, followed=1):
    return HomeReport(
        home_id=home_id,
        severity=0.4,
        episodes=episodes,
        completed=episodes,
        reminders=reminders,
        minimal_reminders=reminders,
        specific_reminders=0,
        praises=1,
        caregiver_alerts=0,
        errors=reminders,
        self_recoveries=0,
        reminders_seen=seen,
        reminders_followed=followed,
    )


class TestFleetMetrics:
    def test_counts_exact_vs_naive_per_home_aggregation(self):
        reports = [_report(i, reminders=i % 3, seen=i % 3, followed=i % 3)
                   for i in range(20)]
        streamed = FleetMetrics()
        for report in reports:
            streamed.add_home(report)
        assert streamed.homes == 20
        assert streamed.reminders == sum(r.reminders for r in reports)
        assert streamed.episodes == sum(r.episodes for r in reports)
        rates = [r.reminders / r.episodes for r in reports]
        assert math.isclose(
            streamed.reminders_per_episode.mean, statistics.fmean(rates)
        )
        assert math.isclose(
            streamed.reminders_per_episode.sd, statistics.stdev(rates)
        )

    def test_compliance_skips_homes_without_reminders(self):
        metrics = FleetMetrics()
        metrics.add_home(_report(0, reminders=0, seen=0, followed=0))
        metrics.add_home(_report(1, reminders=2, seen=2, followed=1))
        assert metrics.compliance.count == 1
        assert math.isclose(metrics.compliance.mean, 0.5)

    def test_merge_equals_single_accumulator(self):
        reports = [_report(i, reminders=1 + i % 2) for i in range(9)]
        single = FleetMetrics()
        for report in reports:
            single.add_home(report)
        left, right = FleetMetrics(), FleetMetrics()
        for report in reports[:4]:
            left.add_home(report)
        for report in reports[4:]:
            right.add_home(report)
        left.merge(right)
        assert left.to_dict() == single.to_dict()


class TestFleetDeterminism:
    def test_byte_identical_at_jobs_1_2_4(self, serial_result):
        serial = serial_result.to_json()
        assert run_fleet(SPEC, jobs=2).to_json() == serial
        assert run_fleet(SPEC, jobs=4).to_json() == serial

    def test_every_home_counted(self, serial_result):
        assert serial_result.metrics.homes == SPEC.homes
        assert serial_result.metrics.episodes == (
            SPEC.homes * SPEC.episodes_per_home
        )

    def test_policy_sharing_trains_only_distinct_routines(
        self, serial_result, tea_fleet_definition
    ):
        distinct = len(distinct_trainings(SPEC.expand(tea_fleet_definition)))
        assert serial_result.distinct_trainings == distinct
        assert distinct < SPEC.homes
        # Wave 1 misses once per distinct training; every home then
        # resolves its policy with a cache hit.
        assert serial_result.metrics.cache_misses == distinct
        assert serial_result.metrics.cache_hits == SPEC.homes

    def test_parallel_run_reports_worker_side_cache_stats(self):
        parallel = run_fleet(SPEC, jobs=2)
        assert parallel.metrics.cache_hits == SPEC.homes
        assert parallel.metrics.cache_misses == (
            parallel.distinct_trainings
        )

    def test_shared_cache_dir_warm_second_run(self, tmp_path, serial_result):
        cache = str(tmp_path / "fleet-cache")
        cold = run_fleet(SPEC, jobs=1, cache_dir=cache)
        warm = run_fleet(SPEC, jobs=1, cache_dir=cache)
        assert cold.metrics.to_dict()["severity"] == (
            warm.metrics.to_dict()["severity"]
        )
        assert warm.metrics.cache_misses == 0
        assert warm.metrics.cache_hits == (
            SPEC.homes + warm.distinct_trainings
        )
        # A private-cache run produces the same simulation metrics.
        cold_dict = cold.to_dict()
        serial_dict = serial_result.to_dict()
        cold_dict["metrics"].pop("cache")
        serial_dict["metrics"].pop("cache")
        assert cold_dict == serial_dict


class TestShardModes:
    """Shared-kernel shards vs the private-kernel-per-home oracle."""

    @staticmethod
    def _report_fields(report):
        return [
            (slot, getattr(report, slot)) for slot in HomeReport.__slots__
        ]

    def test_simulate_shard_matches_per_home_reports(
        self, tea_fleet_definition, tmp_path
    ):
        homes = SPEC.expand(tea_fleet_definition)[:4]
        config = CoReDAConfig(seed=SPEC.seed)
        cache = PolicyCache(str(tmp_path / "cache"))
        batched = simulate_shard(
            tea_fleet_definition, homes, config,
            SPEC.episodes_per_home, SPEC.training_episodes, cache,
        )
        per_home = [
            simulate_home(
                tea_fleet_definition, home, config,
                SPEC.episodes_per_home, SPEC.training_episodes, cache,
            )
            for home in homes
        ]
        assert [self._report_fields(r) for r in batched] == [
            self._report_fields(r) for r in per_home
        ]
        # The shard counts errors from episode outcomes, the oracle
        # from its trace; some home must err for that to mean anything.
        assert any(report.errors > 0 for report in per_home)

    def test_batched_fleet_matches_per_home_fleet(
        self, serial_result, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.fleet.executor.simulate_shard", per_home_shards()
        )
        per_home = run_fleet(SPEC, jobs=1)
        assert per_home.to_json() == serial_result.to_json()

    def test_batched_fleet_byte_identical_across_jobs(self, serial_result):
        assert run_fleet(SPEC, jobs=3).to_json() == serial_result.to_json()

    def test_infer_backends_identical_in_both_shard_modes(
        self, serial_result, monkeypatch
    ):
        # Every prediction a fresh best_action: on the shared kernel...
        monkeypatch.setattr("repro.fleet.shard.ShardPredictor", ScalarPredictor)
        scalar_batched = run_fleet(SPEC, jobs=1)
        assert scalar_batched.to_json() == serial_result.to_json()
        # ... and one private kernel per home, in forked workers.
        monkeypatch.setattr(
            "repro.fleet.executor.simulate_shard",
            per_home_shards(wrap=ScalarPredictor),
        )
        scalar_per_home = run_fleet(SPEC, jobs=2)
        assert scalar_per_home.to_json() == serial_result.to_json()


class TestShardCollector:
    """``simulate_shard`` pauses the cyclic collector for the shard's
    lifetime, restores the caller's setting, and leaves the shard's
    graph to a single young-generation pass."""

    @staticmethod
    def _shard(definition, tmp_path):
        return simulate_shard(
            definition, SPEC.expand(definition)[:3],
            CoReDAConfig(seed=SPEC.seed), SPEC.episodes_per_home,
            SPEC.training_episodes, PolicyCache(str(tmp_path / "cache")),
        )

    def test_collector_enabled_after_shard(self, tea_fleet_definition, tmp_path):
        assert gc.isenabled()
        self._shard(tea_fleet_definition, tmp_path)
        assert gc.isenabled()

    def test_collector_enabled_after_watchdog_raises(
        self, tea_fleet_definition, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.fleet.shard.HORIZON", 1.0)
        with pytest.raises(CoReDAError, match="did not complete"):
            self._shard(tea_fleet_definition, tmp_path)
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(
        self, tea_fleet_definition, tmp_path
    ):
        gc.disable()
        try:
            self._shard(tea_fleet_definition, tmp_path)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_shard_graph_dies_in_one_young_pass(
        self, tea_fleet_definition, tmp_path, monkeypatch
    ):
        from repro.fleet.home import build_home_deployment

        systems = []

        def recording_build(*args, **kwargs):
            system = build_home_deployment(*args, **kwargs)
            systems.append(weakref.ref(system))
            return system

        monkeypatch.setattr(
            "repro.fleet.shard.build_home_deployment", recording_build
        )
        reports = self._shard(tea_fleet_definition, tmp_path)
        gc.collect(0)
        assert len(systems) == len(reports) == 3
        assert [ref() for ref in systems] == [None] * 3


class TestPolicyPlanes:
    """Zero-copy restore vs the JSON reference restore.

    Production shard cells serve policies from the shared-memory arena
    (then the JSON document); ``serial_result`` and every
    other byte-identity test in this module run that path.  These pin
    the JSON-only oracle restore of ``tests/oracles/fleet.py`` against
    it: the same bytes and the same cache accounting at any
    ``--jobs``, on shared and on private kernels.
    """

    def test_json_plane_byte_identical_serial(
        self, serial_result, monkeypatch
    ):
        json_restore(monkeypatch)
        json_plane = run_fleet(SPEC, jobs=1)
        assert json_plane.to_json() == serial_result.to_json()

    def test_json_plane_byte_identical_parallel_per_home(
        self, serial_result, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.fleet.executor.simulate_shard", per_home_shards()
        )
        json_restore(monkeypatch)
        json_plane = run_fleet(SPEC, jobs=2)
        assert json_plane.to_json() == serial_result.to_json()

    def test_shm_plane_byte_identical_parallel(self, serial_result):
        shm_plane = run_fleet(SPEC, jobs=2)
        assert shm_plane.to_json() == serial_result.to_json()

    def test_hit_accounting_is_plane_independent(
        self, serial_result, monkeypatch
    ):
        json_restore(monkeypatch)
        json_plane = run_fleet(SPEC, jobs=1)
        assert json_plane.metrics.cache_hits == (
            serial_result.metrics.cache_hits
        )
        assert json_plane.metrics.cache_misses == (
            serial_result.metrics.cache_misses
        )

    def test_no_shm_segments_left_behind(self):
        import glob

        run_fleet(SPEC, jobs=2)
        assert glob.glob("/dev/shm/rpp*") == []


class TestCacheLayout:
    """A cache keeps one ``<key>.json`` per distinct training."""

    def test_cold_run_leaves_one_json_per_training(self, tmp_path):
        cache_dir = tmp_path / "cache"
        result = run_fleet(SPEC, jobs=1, cache_dir=str(cache_dir))
        names = sorted(os.listdir(cache_dir))
        assert len(names) == result.distinct_trainings
        assert all(name.endswith(".json") for name in names)

    def test_old_layout_cache_serves_without_training(self, tmp_path):
        # Earlier versions wrote a packed ``<key>.qbin`` next to each
        # document; a cache they filled must serve with 0 trainings and
        # the same bytes.
        from repro.adls.library import default_registry

        cache_dir = tmp_path / "cache"
        run_fleet(SPEC, jobs=1, cache_dir=str(cache_dir))
        warm = run_fleet(SPEC, jobs=1, cache_dir=str(cache_dir))
        cache = PolicyCache(cache_dir)
        adl = default_registry().get(SPEC.adl_name).adl
        for document in sorted(cache_dir.glob("*.json")):
            document.with_suffix(".qbin").write_bytes(
                cache.get_artifact(document.stem, adl)
            )
        assert len(cache) == warm.distinct_trainings
        for jobs in (1, 2):
            old_layout = run_fleet(SPEC, jobs=jobs, cache_dir=str(cache_dir))
            assert old_layout.metrics.cache_misses == 0
            assert old_layout.to_json() == warm.to_json()


class TestWarmFleetCounts:
    """Counts, not timings: what a warm fleet home costs to build and
    sample.

    A warm run restores each distinct training once per run in this
    process and computes each training's cache key once; every home
    draws only streams its shard seeded in one batch; and a seeded
    shard fires no more sensing blocks than pinned.
    """

    @pytest.fixture(scope="class")
    def warm_cache(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("warm-fleet"))
        run_fleet(SPEC, jobs=1, cache_dir=cache_dir)
        return cache_dir

    def test_each_training_restores_once_per_run(
        self, warm_cache, monkeypatch, tea_fleet_definition
    ):
        counts = dict.fromkeys(("restore", "wrap", "key"), 0)
        monkeypatch.setattr(
            HomeRuntime, "_resolve",
            _counting(HomeRuntime._resolve, counts, "restore"),
        )
        monkeypatch.setattr(
            shard_module, "_shard_predictor",
            _counting(shard_module._shard_predictor, counts, "wrap"),
        )
        for module in (executor_module, home_module, store_module):
            monkeypatch.setattr(
                module, "training_cache_key",
                _counting(module.training_cache_key, counts, "key"),
            )
        homes = SPEC.expand(tea_fleet_definition)
        distinct = len(distinct_trainings(homes))
        # More shard-level restores than trainings without the memo.
        assert sum(
            len({home.training_key for home in shard})
            for shard in SPEC.shards(homes)
        ) > distinct
        first = run_fleet(SPEC, jobs=1, cache_dir=warm_cache)
        assert counts == {"restore": distinct, "wrap": distinct, "key": distinct}
        # Every home still counts one hit, as does each train cell.
        assert first.metrics.cache_hits == SPEC.homes + distinct
        assert first.metrics.cache_misses == 0
        # The next run restores afresh, as a fresh process would.
        second = run_fleet(SPEC, jobs=1, cache_dir=warm_cache)
        assert counts["restore"] == 2 * distinct
        assert second.to_json() == first.to_json()

    def test_homes_draw_only_batched_streams(self, warm_cache, monkeypatch):
        batches, unbatched = [], []
        make = shard_module.home_stream_batch
        take = StreamBatch.take

        def recording(*args):
            batches.append(make(*args))
            return batches[-1]

        def checked(batch, master_seed, name):
            rng = take(batch, master_seed, name)
            if rng is None:
                unbatched.append(name)
            return rng

        monkeypatch.setattr(shard_module, "home_stream_batch", recording)
        monkeypatch.setattr(StreamBatch, "take", checked)
        spec = dataclasses.replace(SPEC, episodes_per_home=2)
        result = run_fleet(spec, jobs=1, cache_dir=warm_cache)
        assert unbatched == []
        assert len(batches) == result.shards
        # Every stream the batch seeded was taken.
        assert [len(batch._rows) for batch in batches] == [0] * result.shards

    def test_each_home_builds_its_models_and_derives_each_seed_once(
        self, warm_cache, monkeypatch, tea_fleet_definition
    ):
        import repro.fleet.spec as spec_module
        import repro.sim.random as random_module
        from repro.resident.compliance import ComplianceModel
        from repro.resident.dementia import DementiaProfile

        counts = dict.fromkeys(("compliance", "profile", "seed"), 0)
        for cls, key in ((ComplianceModel, "compliance"),
                         (DementiaProfile, "profile")):
            monkeypatch.setattr(
                cls, "__post_init__", _counting(cls.__post_init__, counts, key)
            )
        counting = _counting(random_module.derive_seed, counts, "seed")
        for module in (random_module, spec_module):
            monkeypatch.setattr(module, "derive_seed", counting)
        run_fleet(SPEC, jobs=1, cache_dir=warm_cache)
        tools = len(tea_fleet_definition.adl.tools)
        # Per home: its seed, its deployment's fork, and its radio,
        # signal and resident streams.  Per run: the cohort's seed, its
        # population stream and one training seed per seed class.
        per_home = 2 + 1 + tools + SPEC.episodes_per_home
        assert counts == {
            "compliance": SPEC.homes,
            "profile": SPEC.homes,
            "seed": SPEC.homes * per_home + 2 + SPEC.seed_classes,
        }

    def test_detections_move_their_deadlines_in_place(
        self, warm_cache, monkeypatch
    ):
        # Every detection re-arms the idle deadline and most steps the
        # stall deadline.  A later deadline moves the queued event
        # instead of pushing a new heap entry (the kernel re-queues a
        # moved entry at most once per move, when its stale key comes
        # up), and a stall arm reads one tool's dwell statistics
        # instead of rebuilding every tool's from the whole history.
        import heapq
        import types

        import repro.sensing.history as history_module
        import repro.sim.kernel as kernel_module
        from repro.planning.subsystem import PlanningSubsystem
        from repro.sensing.history import UsageHistory
        from repro.sensing.step_extractor import StepExtractor

        counts = dict.fromkeys(
            ("idle", "stall", "idle_pushes", "stall_pushes", "requeues",
             "dwell", "summaries"),
            0,
        )
        arming = []
        timers = {"_on_idle_timeout", "_on_stall"}

        def heappush(heap, entry):
            if arming:
                counts[arming[-1] + "_pushes"] += 1
            elif getattr(entry[2].callback, "__name__", "") in timers:
                counts["requeues"] += 1
            heapq.heappush(heap, entry)

        def arm(function, kind):
            def armed(*args, **kwargs):
                counts[kind] += 1
                arming.append(kind)
                try:
                    return function(*args, **kwargs)
                finally:
                    arming.pop()

            return armed

        monkeypatch.setattr(
            kernel_module, "heapq",
            types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop),
        )
        for cls, name, kind in (
            (StepExtractor, "_rearm_idle_timer", "idle"),
            (PlanningSubsystem, "_arm_stall_timer", "stall"),
        ):
            monkeypatch.setattr(cls, name, arm(getattr(cls, name), kind))
        monkeypatch.setattr(
            UsageHistory, "dwell",
            _counting(UsageHistory.dwell, counts, "dwell"),
        )
        monkeypatch.setattr(
            history_module, "_summarise",
            _counting(history_module._summarise, counts, "summaries"),
        )
        run_fleet(
            dataclasses.replace(SPEC, episodes_per_home=3),
            jobs=1, cache_dir=warm_cache,
        )
        # One idle arm per detection; cancel + push made one entry each.
        assert counts["idle"] > 200
        assert counts["idle_pushes"] * 4 < counts["idle"]
        assert counts["stall_pushes"] * 2 < counts["stall"]
        moves = (
            counts["idle"] - counts["idle_pushes"]
            + counts["stall"] - counts["stall_pushes"]
        )
        assert counts["requeues"] <= moves
        # Each arm reads one tool, summarised again only if its
        # samples changed since.
        assert counts["dwell"] == counts["stall"]
        assert 0 < counts["summaries"] < counts["stall"]

    def test_seeded_shard_fires_no_more_blocks_than_pinned(
        self, monkeypatch, tea_fleet_definition, tmp_path
    ):
        # 25 high-severity homes, 2 episodes each: wrong tools and
        # perseveration re-begin uses inside merged blocks.  Reading
        # each use through its expiry fires 580 blocks here; a separate
        # block per use end (as before) fired 786.  The replays stay.
        counts = dict.fromkeys(("blocks", "replays"), 0)
        monkeypatch.setattr(
            PavenetNode, "_process_block",
            _counting(PavenetNode._process_block, counts, "blocks"),
        )
        monkeypatch.setattr(
            SignalSource, "restore",
            _counting(SignalSource.restore, counts, "replays"),
        )
        _run_seeded_shard(tea_fleet_definition, tmp_path)
        assert counts["blocks"] <= 580
        assert counts["replays"] <= 229

    def test_seeded_shard_blocks_share_clocks_and_replay_quietly(
        self, monkeypatch, tea_fleet_definition, tmp_path
    ):
        # Every node of the shard boots at t=0, so every block reads
        # its clock from one line, built in a few folds rather than
        # one per block.  Most invalidations land before the block's
        # first exceedance and skip the detector replay.
        import repro.sensors.signals as signals_module
        from repro.sensors.detector import KofNDetector

        counts = dict.fromkeys(("blocks", "folds", "restores", "observed"), 0)
        clocks = {}
        process_block = PavenetNode._process_block

        def processed(node):
            counts["blocks"] += 1
            process_block(node)
            times = node._block_times
            line = times if times.base is None else times.base
            clocks[id(line)] = line

        monkeypatch.setattr(PavenetNode, "_process_block", processed)
        monkeypatch.setattr(
            signals_module, "sample_clock",
            _counting(signals_module.sample_clock, counts, "folds"),
        )
        for name, key in (("restore", "restores"), ("observe_block", "observed")):
            monkeypatch.setattr(
                KofNDetector, name,
                _counting(getattr(KofNDetector, name), counts, key),
            )
        _run_seeded_shard(tea_fleet_definition, tmp_path)
        assert counts["blocks"] > 500
        assert counts["folds"] <= 4
        assert len(clocks) <= 4
        # One restore per replaying invalidation; only the loud ones
        # observe the committed prefix again.
        loud = counts["observed"] - counts["blocks"]
        assert counts["restores"] > 100
        assert loud * 5 < counts["restores"]


def _run_seeded_shard(definition, tmp_path):
    """Simulate 25 high-severity homes, 2 episodes each, on one shard."""
    spec = FleetSpec(
        seed=7, homes=25, shard_size=25, seed_classes=2,
        training_episodes=40, episodes_per_home=2, max_severity=1.0,
    )
    homes = spec.expand(definition)
    cache = PolicyCache(str(tmp_path / "cache"))
    config = CoReDAConfig(seed=spec.seed)
    for home in distinct_trainings(homes):
        train_home_policy(
            definition, home, config, spec.training_episodes, cache
        )
    simulate_shard(
        definition, homes, config, spec.episodes_per_home,
        spec.training_episodes, cache,
    )


def _counting(function, counts, key):
    """``function``, counting its calls in ``counts[key]``."""

    def counted(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)

    return counted


class TestFleetCli:
    def test_text_output(self, capsys):
        code = main([
            "fleet", "--homes", "4", "--episodes", "1",
            "--train-episodes", "40", "--seed-classes", "2",
            "--shard-size", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 homes" in out
        assert "policy cache" in out

    def test_json_output_parses(self, capsys):
        code = main([
            "fleet", "--homes", "4", "--train-episodes", "40",
            "--seed-classes", "2", "--shard-size", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["homes"] == 4
        assert payload["metrics"]["cache"]["trainings"] == (
            payload["distinct_trainings"]
        )

    def test_invalid_spec_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--homes", "0"])
        assert excinfo.value.code == 2
        assert "homes must be an integer in [1, inf), got 0" in capsys.readouterr().err

    def test_timing_goes_to_stderr_not_stdout(self, capsys):
        code = main([
            "fleet", "--homes", "2", "--train-episodes", "40",
            "--seed-classes", "1", "--shard-size", "2", "--timing",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "homes/sec" in captured.err
        assert "homes/sec" not in captured.out
