"""Unit tests for the routine trainer (offline TD(λ) training)."""

import functools
import json
import pickle

import numpy as np
import pytest

from oracles.rl import SparseTDLambdaQLearner, greedy_probe, per_step_replay
from repro.adls.library import default_registry
from repro.core.adl import ADL, ADLStep, Routine, SensorType, Tool
from repro.core.config import PlanningConfig
from repro.core.errors import RoutineError
from repro.core.events import StepEvent
from repro.evalx.parallel import Cell, run_cells
from repro.evalx.runner import run_all
from repro.fleet import FleetSpec, run_fleet
from repro.planning import trainer as trainer_module
from repro.planning.online import OnlineAdaptation
from repro.planning.rewards_coreda import CoReDAReward
from repro.planning.state import episode_states
from repro.planning.store import PolicyCache, training_document
from repro.planning.trainer import (
    RoutineTrainer,
    replay_episode,
    training_memo,
)
from repro.rl.double_q import DoubleQLearner
from repro.rl.dyna import DynaQLearner
from repro.rl.expected_sarsa import ExpectedSarsaLearner
from repro.rl.sarsa import SarsaLambdaLearner
from repro.rl.tdlambda import TDLambdaQLearner


def train(adl, episodes=120, seed=0, routine=None, config=None, learner=None,
          per_step=False):
    trainer = RoutineTrainer(
        adl, config or PlanningConfig(), learner=learner,
        rng=np.random.default_rng(seed)
    )
    if per_step:
        # The oracle's per-transition loop: the trainer itself refuses
        # a learner with no fused kernel.
        trainer._replay = functools.partial(per_step_replay, trainer)
    routine = routine if routine is not None else adl.canonical_routine()
    log = [list(routine.step_ids)] * episodes
    return trainer, trainer.train(log, routine=routine)


class TestTraining:
    def test_converges_within_120_episodes(self, tea_adl):
        _, result = train(tea_adl)
        assert result.convergence[0.95] is not None
        assert result.convergence[0.98] is not None
        assert result.convergence[0.95] <= result.convergence[0.98]

    def test_final_greedy_accuracy_is_one(self, tea_adl):
        _, result = train(tea_adl)
        assert result.curve.greedy_accuracy[-1] == 1.0

    def test_policy_prefers_minimal_prompts(self, tea_adl):
        # The 100-vs-50 reward gap teaches minimality (care principle 2).
        _, result = train(tea_adl)
        assert result.curve.minimal_fraction[-1] == 1.0

    def test_curve_lengths_match_episodes(self, tea_adl):
        _, result = train(tea_adl, episodes=50)
        assert len(result.curve.behaviour_accuracy) == 50
        assert len(result.curve.smoothed_accuracy) == 50

    def test_learns_personalized_routine(self, tea_adl):
        routine = Routine(tea_adl, [1, 3, 2, 4])
        trainer, result = train(tea_adl, routine=routine)
        states = episode_states([1, 3, 2, 4])
        for index in range(len(states) - 1):
            action = trainer.learner.greedy_action(states[index], trainer.actions)
            assert action.tool_id == states[index + 1].current

    def test_empty_episode_log_rejected(self, tea_adl):
        trainer = RoutineTrainer(tea_adl)
        with pytest.raises(ValueError):
            trainer.train([])

    def test_routine_defaults_to_first_episode(self, tea_adl):
        trainer = RoutineTrainer(tea_adl, rng=np.random.default_rng(0))
        result = trainer.train([[1, 3, 2, 4]] * 60)
        assert list(result.routine.step_ids) == [1, 3, 2, 4]

    def test_invalid_default_routine_rejected(self, tea_adl):
        trainer = RoutineTrainer(tea_adl)
        with pytest.raises(RoutineError):
            trainer.train([[1, 1, 2]])

    def test_smoothed_is_rolling_mean_of_behaviour(self, tea_adl):
        _, result = train(tea_adl, episodes=30)
        window = RoutineTrainer.SMOOTHING_WINDOW
        curve = result.curve
        for index in range(len(curve.smoothed_accuracy)):
            chunk = curve.behaviour_accuracy[max(0, index - window + 1): index + 1]
            assert curve.smoothed_accuracy[index] == pytest.approx(
                sum(chunk) / len(chunk)
            )

    def test_reproducible_given_seed(self, tea_adl):
        _, first = train(tea_adl, seed=3)
        _, second = train(tea_adl, seed=3)
        assert first.curve.behaviour_accuracy == second.curve.behaviour_accuracy
        assert first.convergence == second.convergence


class TestDynaIntegration:
    def test_dyna_learner_supported(self, tea_adl):
        learner = DynaQLearner(
            PlanningConfig(epsilon_decay=1.0), planning_steps=5
        )
        _, result = train(tea_adl, learner=learner, episodes=60)
        assert result.curve.greedy_accuracy[-1] == 1.0
        assert learner.planning_updates > 0


class TestTrainingResult:
    def test_converged_helper(self, tea_adl):
        _, result = train(tea_adl)
        assert result.converged(0.95)
        assert not result.converged(0.5) or result.convergence.get(0.5)


class TestAlternativeLearners:
    def test_double_q_learner_supported(self, tea_adl):
        # Double-Q is a drop-in for the trainer interface, but its
        # cross-table argmax churn (the update table's greedy pick is
        # valued by the *other* table, which may rate an untried tie
        # low) keeps snapshot greedy accuracy from pinning at 1.0 on
        # this formulation -- unbiasedness costs variance.  The claim
        # here is integration + a sane floor; Double-Q's own win (the
        # maximization-bias counterexample) is tests/test_rl_double_q.
        # Double Q has no fused kernel, so it trains through the
        # oracle's per-transition loop.
        learner = DoubleQLearner(
            PlanningConfig(epsilon=0.5, epsilon_decay=1.0, initial_q=0.0)
        )
        _, result = train(tea_adl, learner=learner, per_step=True)
        assert result.curve.greedy_accuracy[-1] >= 2 / 3

    def test_expected_sarsa_learner_supported(self, tea_adl):
        learner = ExpectedSarsaLearner(
            PlanningConfig(epsilon=0.1, epsilon_decay=1.0)
        )
        _, result = train(tea_adl, learner=learner)
        assert result.curve.greedy_accuracy[-1] == 1.0


# ---------------------------------------------------------------------------
# The run-scoped training memo
# ---------------------------------------------------------------------------


def _document_bytes(result, adl):
    return json.dumps(training_document(result, adl.name), sort_keys=True)


def _memo_train(adl, seed=0, config=None, routine=None, criteria=(0.95, 0.98),
                episodes=60, learner=None):
    """One training request; ``served`` says if the memo answered it."""
    rng = np.random.default_rng(seed)
    trainer = RoutineTrainer(adl, config, learner=learner, rng=rng)
    built = trainer.learner
    routine = routine if routine is not None else adl.canonical_routine()
    result = trainer.train(
        [list(routine.step_ids)] * episodes, routine=routine, criteria=criteria
    )
    return trainer, result, rng, trainer.learner is not built


def _served_in_process(seed):
    """Two identical requests; True when the second was served."""
    adl = default_registry().get("tea-making").adl
    _memo_train(adl, seed=seed, episodes=20)
    return _memo_train(adl, seed=seed, episodes=20)[3]


class TestTrainingMemo:
    def test_hit_equals_a_fresh_training(self, tea_adl):
        config = PlanningConfig(learning_rate=0.3)
        criteria = (0.9, 0.99)
        _, plain, plain_rng, _ = _memo_train(tea_adl, 4, config, criteria=criteria)
        with training_memo():
            _memo_train(tea_adl, 4, config)
            trainer, hit, hit_rng, served = _memo_train(
                tea_adl, 4, config, criteria=criteria
            )
        assert served
        assert hit.curve == plain.curve
        assert hit.convergence == plain.convergence
        assert set(hit.convergence) == set(criteria)
        assert _document_bytes(hit, tea_adl) == _document_bytes(plain, tea_adl)
        assert hit_rng.bit_generator.state == plain_rng.bit_generator.state
        assert hit.learner is trainer.learner
        assert hit.learner.updates == plain.learner.updates

    def test_any_input_change_misses(self, tea_adl):
        with training_memo():
            _memo_train(tea_adl, seed=1)
            assert not _memo_train(tea_adl, seed=2)[3]
            assert not _memo_train(
                tea_adl, seed=1, config=PlanningConfig(trace_decay=0.5)
            )[3]
            assert not _memo_train(tea_adl, seed=1, episodes=59)[3]
            assert not _memo_train(
                tea_adl, seed=1, routine=Routine(tea_adl, [1, 3, 2, 4])
            )[3]
            assert _memo_train(tea_adl, seed=1)[3]

    def test_mutating_a_served_learner_leaves_later_hits_fresh(self, tea_adl):
        _, plain, _, _ = _memo_train(tea_adl, seed=5)
        drifted = [1, 3, 2, 4]
        with training_memo():
            for _ in range(3):
                _, result, _, _ = _memo_train(tea_adl, seed=5)
                assert _document_bytes(result, tea_adl) == _document_bytes(
                    plain, tea_adl
                )
                adaptation = OnlineAdaptation(
                    tea_adl, result.learner, rng=np.random.default_rng(9)
                )
                before = _document_bytes(result, tea_adl)
                for step in drifted * 5:
                    adaptation.on_step(
                        StepEvent(time=0.0, step_id=step, previous_step_id=0)
                    )
                assert _document_bytes(result, tea_adl) != before

    def test_nothing_is_shared_outside_the_scope(self, tea_adl):
        _memo_train(tea_adl, seed=6)
        assert not _memo_train(tea_adl, seed=6)[3]
        with training_memo():
            _memo_train(tea_adl, seed=6)
        assert not _memo_train(tea_adl, seed=6)[3]

    def test_the_scope_frees_the_memo_on_exceptions(self, tea_adl):
        with pytest.raises(RuntimeError):
            with training_memo():
                _memo_train(tea_adl, seed=7)
                raise RuntimeError("section failed")
        assert not _memo_train(tea_adl, seed=7)[3]
        with training_memo():
            assert not _memo_train(tea_adl, seed=7)[3]

    def test_custom_learners_are_never_shared(self, tea_adl):
        def dyna():
            return DynaQLearner(
                PlanningConfig(epsilon_decay=1.0), planning_steps=2
            )

        with training_memo():
            _, first, _, _ = _memo_train(tea_adl, seed=8, learner=dyna())
            _, second, _, served = _memo_train(tea_adl, seed=8, learner=dyna())
            assert not served
            assert second.curve == first.curve
            # A default-learner request with the same inputs is a
            # different training and is not answered by the Dyna run.
            assert not _memo_train(tea_adl, seed=8)[3]

    def test_an_already_trained_learner_is_never_shared(self, tea_adl):
        routine = tea_adl.canonical_routine()
        log = [list(routine.step_ids)] * 30
        reward_fn = CoReDAReward(PlanningConfig(), routine.terminal_step_id)

        def pretrained_request():
            # The learner has seen one episode, yet the trainer's own
            # generator is still at its seed state.
            trainer = RoutineTrainer(tea_adl, rng=np.random.default_rng(10))
            learner = trainer.learner
            replay_episode(
                learner, trainer.actions, [1, 3, 2, 4], reward_fn,
                np.random.default_rng(99),
            )
            result = trainer.train(log, routine=routine)
            return result, trainer.learner is not learner

        plain, _ = pretrained_request()
        with training_memo():
            RoutineTrainer(tea_adl, rng=np.random.default_rng(10)).train(
                log, routine=routine
            )
            result, served = pretrained_request()
        assert not served
        assert _document_bytes(result, tea_adl) == _document_bytes(
            plain, tea_adl
        )

    def test_single_action_view_is_snapshotted(self):
        tools = [Tool(71, "a", SensorType.ACCELEROMETER),
                 Tool(72, "b", SensorType.ACCELEROMETER),
                 Tool(73, "c", SensorType.ACCELEROMETER)]
        adl = ADL("one-prompt", [ADLStep(t.name, t) for t in tools])
        routine = adl.canonical_routine()
        log = [list(routine.step_ids)] * 20

        def one_action_training():
            trainer = RoutineTrainer(adl, rng=np.random.default_rng(11))
            trainer.actions = trainer.actions[:1]
            built = trainer.learner
            # A greedy read caches the table's gather for the
            # one-action view.  The learner has made no update, so its
            # first training still goes through the memo.
            built.greedy_action(
                episode_states(routine.step_ids)[0], trainer.actions
            )
            return trainer.train(log, routine=routine), trainer.learner is not built

        plain, _ = one_action_training()
        # The one-action gathers pickle, so the memo stores plain bytes.
        restored = pickle.loads(pickle.dumps(plain.learner))
        assert restored.q.max_abs_difference(plain.learner.q) == 0.0
        with training_memo():
            full = RoutineTrainer(adl, rng=np.random.default_rng(11))
            full.train(log, routine=routine)
            first, served = one_action_training()
            assert not served
            hit, served = one_action_training()
            assert served
        assert hit.curve == plain.curve
        assert _document_bytes(hit, adl) == _document_bytes(plain, adl)

    def test_the_probe_reads_the_served_table(self, tea_adl):
        routine = tea_adl.canonical_routine()
        log = [list(routine.step_ids)] * 60
        with training_memo():
            RoutineTrainer(tea_adl, rng=np.random.default_rng(12)).train(
                log, routine=routine
            )
            trainer = RoutineTrainer(tea_adl, rng=np.random.default_rng(12))
            untrained = greedy_probe(trainer, routine)
            result = trainer.train(log, routine=routine)
        trained = (result.curve.greedy_accuracy[-1],
                   result.curve.minimal_fraction[-1])
        assert untrained != trained
        # The trainer holds the served learner, not the one it built.
        assert greedy_probe(trainer, routine) == trained

    def test_worker_processes_train_unshared(self):
        with training_memo():
            assert _served_in_process(13)
            served, _ = run_cells(
                [Cell(_served_in_process, (14,)),
                 Cell(_served_in_process, (15,))],
                jobs=2,
            )
        assert served == [False, False]

    def test_fast_report_trains_each_distinct_policy_once(self, monkeypatch):
        counts = {"train": 0, "replay": 0}
        train, replay = RoutineTrainer.train, RoutineTrainer._replay

        def counting_train(self, *args, **kwargs):
            counts["train"] += 1
            return train(self, *args, **kwargs)

        def counting_replay(self, *args, **kwargs):
            counts["replay"] += 1
            return replay(self, *args, **kwargs)

        monkeypatch.setattr(RoutineTrainer, "train", counting_train)
        monkeypatch.setattr(RoutineTrainer, "_replay", counting_replay)
        run_all(fast=True)
        assert counts == {"train": 75, "replay": 56}
        # The memo is freed when the run ends.
        assert not trainer_module._TRAINING_MEMO

    def test_warm_cache_replays_no_cached_training(
        self, monkeypatch, tmp_path
    ):
        # A replay is "cached" when it trains behind a missed cache
        # lookup; the sections that take no cache (Table 4, the
        # scenario, burden, the SARSA(λ) and Expected SARSA cells,
        # multi-routine and adaptation) replay "uncached".
        counts = {"cached": 0, "uncached": 0, "misses": 0}
        pending = []  # keys whose lookup missed and are not yet stored
        replay, get, put = (
            RoutineTrainer._replay, PolicyCache.get, PolicyCache.put
        )

        def counting_get(self, key):
            document = get(self, key)
            if document is None:
                counts["misses"] += 1
                pending.append(key)
            return document

        def counting_put(self, key, *args, **kwargs):
            pending.remove(key)
            return put(self, key, *args, **kwargs)

        def counting_replay(self, *args, **kwargs):
            counts["cached" if pending else "uncached"] += 1
            return replay(self, *args, **kwargs)

        monkeypatch.setattr(PolicyCache, "get", counting_get)
        monkeypatch.setattr(PolicyCache, "put", counting_put)
        monkeypatch.setattr(RoutineTrainer, "_replay", counting_replay)
        cache = str(tmp_path / "policy-cache")
        run_all(fast=True, cache_dir=cache)
        cold = dict(counts)
        counts.update(cached=0, uncached=0, misses=0)
        run_all(fast=True, cache_dir=cache)
        # Cold, two uncached trainings are served by the memo from a
        # cached section's replay; warm, that replay is gone, so they
        # replay themselves.
        assert cold == {"cached": 43, "uncached": 13, "misses": 43}
        assert counts == {"cached": 0, "uncached": 15, "misses": 0}


class TestFusedReplay:
    """Every trainer-built learner replays through its fused kernel.

    A count, not a timing: the learners' ``observe`` methods are the
    per-transition paths, so any call to one during the report or a
    cold fleet means some training ran outside a kernel.
    """

    OBSERVERS = {
        "observe": TDLambdaQLearner,
        "dyna_observe": DynaQLearner,
        "sarsa_observe": SarsaLambdaLearner,
        "expected_observe": ExpectedSarsaLearner,
    }

    def _count(self, monkeypatch):
        counts = dict.fromkeys(
            (*self.OBSERVERS, "kernel", "dyna_kernel"), 0
        )
        for key, learner in self.OBSERVERS.items():
            monkeypatch.setattr(
                learner, "observe", _counting(learner.observe, counts, key)
            )
        for name, key in (
            ("replay_watkins", "kernel"), ("replay_dyna", "dyna_kernel")
        ):
            monkeypatch.setattr(
                trainer_module, name,
                _counting(getattr(trainer_module, name), counts, key),
            )
        return counts

    def test_fast_report_never_observes_per_transition(self, monkeypatch):
        counts = self._count(monkeypatch)
        run_all(fast=True)
        for key in self.OBSERVERS:
            assert counts[key] == 0, key
        assert counts["kernel"] > 0
        assert counts["dyna_kernel"] > 0

    def test_cold_fleet_never_observes_per_transition(self, monkeypatch):
        counts = self._count(monkeypatch)
        spec = FleetSpec(
            adl_name="tea-making", homes=10, seed=0, episodes_per_home=1,
            training_episodes=40, seed_classes=10, shard_size=5,
        )
        run_fleet(spec, jobs=1)
        for key in self.OBSERVERS:
            assert counts[key] == 0, key
        assert counts["kernel"] > 0


class TestLearnersWithoutAKernel:
    """A learner with no fused kernel is refused before anything moves:
    no draw from the generator and no episode counted."""

    @pytest.mark.parametrize("kind", [DoubleQLearner, SparseTDLambdaQLearner])
    def test_train_refuses(self, tea_adl, kind):
        learner = kind(PlanningConfig())
        rng = np.random.default_rng(16)
        before = rng.bit_generator.state
        trainer = RoutineTrainer(tea_adl, learner=learner, rng=rng)
        with pytest.raises(TypeError, match=kind.__name__):
            trainer.train([list(tea_adl.step_ids)] * 3)
        assert rng.bit_generator.state == before
        assert (learner.episodes, learner.updates) == (0, 0)

    @pytest.mark.parametrize("kind", [DoubleQLearner, SparseTDLambdaQLearner])
    def test_replay_episode_refuses(self, tea_adl, kind):
        learner = kind(PlanningConfig())
        rng = np.random.default_rng(17)
        before = rng.bit_generator.state
        routine = tea_adl.canonical_routine()
        reward_fn = CoReDAReward(PlanningConfig(), routine.terminal_step_id)
        with pytest.raises(TypeError, match=kind.__name__):
            replay_episode(
                learner, RoutineTrainer(tea_adl).actions,
                list(routine.step_ids), reward_fn, rng,
            )
        assert rng.bit_generator.state == before
        assert (learner.episodes, learner.updates) == (0, 0)


def _counting(function, counts, key):
    """``function``, counting its calls in ``counts[key]``."""

    def counted(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)

    return counted
