"""The dense RL core and its bit-identity contract.

Training on :mod:`repro.rl.dense` must be *indistinguishable* from the
sparse dict-backed reference kept in ``tests/oracles/rl.py``: same RNG
draw sequence, same learning curves, same convergence iterations, same
greedy policies and the same ``training_document`` bytes, for every
learner.  These tests pin that contract down -- any arithmetic
reordering in the fused dense paths shows up here as a float mismatch.
"""

from __future__ import annotations

import copy
import functools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.rl import (
    EligibilityTraces,
    QTable,
    SparseDoubleQLearner,
    SparseDynaQLearner,
    SparseExpectedSarsaLearner,
    SparseSarsaLambdaLearner,
    SparseTDLambdaQLearner,
    learner_config,
    per_step_replay,
    per_step_replay_episode,
)
from repro.adls.library import default_registry
from repro.core.adl import Routine
from repro.core.config import PlanningConfig
from repro.core.config_io import config_from_dict
from repro.core.events import StepEvent
from repro.planning import online as online_module
from repro.planning.action import action_space
from repro.planning.rewards_coreda import CoReDAReward
from repro.planning.state import episode_states
from repro.planning.store import (
    PolicyCache,
    train_routine_cached,
    training_cache_key,
    training_document,
)
from repro.planning.online import OnlineAdaptation
from repro.planning.trainer import RoutineTrainer, fused_kernel, replay_episode
from repro.rl.dense import (
    DenseQTable,
    DenseTraces,
    StateActionIndex,
    replay_dyna,
    replay_watkins,
)
from repro.rl.double_q import DoubleQLearner
from repro.rl.dyna import DynaQLearner
from repro.rl.expected_sarsa import ExpectedSarsaLearner
from repro.rl.sarsa import SarsaLambdaLearner
from repro.rl.tdlambda import TDLambdaQLearner
from repro.resident.routines import noisy_episodes
from repro.sim.random import seeded_generator

EPISODES = 60

#: The production learner class ("dense") and its sparse oracle.
CLASSES = {
    "tdlambda": (TDLambdaQLearner, SparseTDLambdaQLearner),
    "sarsa": (SarsaLambdaLearner, SparseSarsaLambdaLearner),
    "dyna": (DynaQLearner, SparseDynaQLearner),
    "double-q": (DoubleQLearner, SparseDoubleQLearner),
    "expected-sarsa": (ExpectedSarsaLearner, SparseExpectedSarsaLearner),
}


def _learner(kind: str, backend: str, *args):
    dense, sparse = CLASSES[kind]
    return (dense if backend == "dense" else sparse)(*args)


#: learner name -> factory(backend, config); covers every learner the
#: evaluation suite trains.
LEARNERS = {
    "tdlambda-replacing": lambda backend, c: _learner("tdlambda", backend, c),
    "dyna": lambda backend, c: _learner("dyna", backend, c, 10),
    "double-q": lambda backend, c: _learner("double-q", backend, c),
    "expected-sarsa": lambda backend, c: _learner(
        "expected-sarsa", backend,
        PlanningConfig(epsilon=0.2, epsilon_decay=1.0),
    ),
}


def _train(adl, learner_name: str, backend: str, seed: int):
    config = PlanningConfig()
    learner = LEARNERS[learner_name](backend, config)
    trainer = RoutineTrainer(
        adl, config, learner=learner, rng=seeded_generator(seed)
    )
    if backend == "sparse":
        # The oracle's per-transition loop, Dyna-Q planning included.
        trainer._replay = functools.partial(per_step_replay, trainer)
    return trainer.train([list(adl.step_ids)] * EPISODES)


def _sup_norm(learner_a, learner_b) -> float:
    if isinstance(learner_a, DoubleQLearner):
        return max(
            learner_a.q_a.max_abs_difference(learner_b.q_a),
            learner_a.q_b.max_abs_difference(learner_b.q_b),
        )
    return learner_a.q.max_abs_difference(learner_b.q)


# ---------------------------------------------------------------------------
# Bit-identity with the sparse oracle, every learner
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("learner_name", sorted(LEARNERS))
@pytest.mark.parametrize("seed", [0, 3])
def test_backends_train_identically(tea_adl, learner_name, seed):
    sparse = _train(tea_adl, learner_name, "sparse", seed)
    dense = _train(tea_adl, learner_name, "dense", seed)
    # Exact float equality, not approx: the contract is bit-identity.
    assert sparse.curve.behaviour_accuracy == dense.curve.behaviour_accuracy
    assert sparse.curve.smoothed_accuracy == dense.curve.smoothed_accuracy
    assert sparse.curve.greedy_accuracy == dense.curve.greedy_accuracy
    assert sparse.curve.minimal_fraction == dense.curve.minimal_fraction
    assert sparse.convergence == dense.convergence
    assert _sup_norm(sparse.learner, dense.learner) == 0.0


def test_sarsa_backends_train_identically(tea_adl):
    """Naive SARSA(λ), trained the way the ablation bench trains it."""

    def run(backend):
        config = PlanningConfig()
        actions = tuple(action_space(tea_adl))
        learner = _learner("sarsa", backend, config)
        rng = seeded_generator(0)
        routine = tea_adl.canonical_routine()
        log = [list(routine.step_ids)] * EPISODES
        reward_fn = CoReDAReward(config, log[0][-1])
        deltas = []
        for iteration, episode in enumerate(log):
            states = episode_states(list(episode))
            learner.begin_episode()
            action, _ = learner.select_action(
                states[0], actions, rng, step=iteration
            )
            for index in range(len(states) - 1):
                state, next_state = states[index], states[index + 1]
                reward = reward_fn.reward(state, action, next_state)
                done = next_state.current == reward_fn.terminal_step_id
                if done:
                    deltas.append(
                        learner.observe(
                            state, action, reward, next_state, None, True
                        )
                    )
                    break
                next_action, _ = learner.select_action(
                    next_state, actions, rng, step=iteration
                )
                deltas.append(
                    learner.observe(
                        state, action, reward, next_state, next_action, False
                    )
                )
                action = next_action
        probe = episode_states(list(routine.step_ids))
        greedy = [learner.greedy_action(s, actions) for s in probe[:-1]]
        return deltas, greedy, learner

    deltas_s, greedy_s, sparse = run("sparse")
    deltas_d, greedy_d, dense = run("dense")
    assert deltas_s == deltas_d
    assert greedy_s == greedy_d
    assert sparse.q.max_abs_difference(dense.q) == 0.0


# ---------------------------------------------------------------------------
# Cache key and document byte-identity
# ---------------------------------------------------------------------------


def test_training_document_bytes_identical(tea_adl):
    blobs = {}
    for backend in ("sparse", "dense"):
        result = _train(tea_adl, "tdlambda-replacing", backend, 0)
        blobs[backend] = json.dumps(
            training_document(result, tea_adl.name), sort_keys=True
        ).encode("utf-8")
    assert blobs["sparse"] == blobs["dense"]


def test_cache_key_ignores_backend(tea_adl):
    """Config files saved naming either Q backend load to the default
    config's cache key, so cache entries written by either stay hit."""
    keys = {
        backend: training_cache_key(
            tea_adl.name,
            list(tea_adl.step_ids),
            config_from_dict({"planning": {"q_backend": backend}}).planning,
            0,
            EPISODES,
        )
        for backend in ("sparse", "dense")
    }
    assert keys["sparse"] == keys["dense"] == training_cache_key(
        tea_adl.name, list(tea_adl.step_ids), PlanningConfig(), 0, EPISODES
    )


def _cached_document(backend: str, adl, cache: PolicyCache):
    """(document, cache_hit) of the default training through ``cache``.

    ``"dense"`` is the production :func:`train_routine_cached`;
    ``"sparse"`` does the same lookup-or-train-and-put by hand with the
    sparse oracle learner.
    """
    routine = list(adl.step_ids)
    config = PlanningConfig()
    if backend == "dense":
        cached = train_routine_cached(
            adl, routine, config, 0, EPISODES, cache=cache
        )
        return cached.document, cached.cache_hit
    key = training_cache_key(adl.name, routine, config, 0, EPISODES)
    document = cache.get(key)
    if document is not None:
        return document, True
    learner = _learner("tdlambda", "sparse", config)
    trainer = RoutineTrainer(
        adl, config, learner=learner, rng=seeded_generator(0)
    )
    document = training_document(
        trainer.train([routine] * EPISODES), adl.name
    )
    cache.put(key, document, actions=action_space(adl))
    return document, False


@pytest.mark.parametrize(
    "writer,reader", [("sparse", "dense"), ("dense", "sparse")]
)
def test_cross_backend_cache_hit(tea_adl, tmp_path, writer, reader):
    """An entry cached by one path is hit -- and trusted -- by the other."""
    cache = PolicyCache(tmp_path / "cache")
    first, first_hit = _cached_document(writer, tea_adl, cache)
    assert not first_hit
    second, second_hit = _cached_document(reader, tea_adl, cache)
    assert second_hit
    assert second == first


# ---------------------------------------------------------------------------
# The batched-draw RNG contract Dyna's planning sweep relies on
# ---------------------------------------------------------------------------


def test_batched_integer_draws_match_sequential():
    """``rng.integers(n, size=k)`` == k scalar draws, same end state.

    ``DynaQLearner._plan`` draws its planning sample indices in one
    batch; this pins the NumPy property that makes the batch consume
    the bit stream exactly like the sparse oracle's scalar draws.
    """
    for n in (1, 3, 7, 1000):
        a, b = np.random.default_rng(42), np.random.default_rng(42)
        batched = a.integers(n, size=17).tolist()
        sequential = [int(b.integers(n)) for _ in range(17)]
        assert batched == sequential
        # Both generators are left in the same state.
        assert a.integers(1 << 30) == b.integers(1 << 30)


# ---------------------------------------------------------------------------
# DenseQTable unit semantics (vs the sparse oracle)
# ---------------------------------------------------------------------------


def test_dense_matches_sparse_semantics():
    sparse, dense = QTable(initial_value=0.5), DenseQTable(initial_value=0.5)
    actions = ("alpha", "beta", "gamma")
    for table in (sparse, dense):
        assert table.value("s0", "alpha") == 0.5
        table.set("s0", "beta", 2.0)
        table.add("s0", "beta", -0.5)
        table.set("s1", "gamma", 1.0)
    for state in ("s0", "s1", "unseen"):
        assert dense.value(state, "beta") == sparse.value(state, "beta")
        assert dense.best_action(state, actions) == sparse.best_action(
            state, actions
        )
        assert dense.max_value(state, actions) == sparse.max_value(
            state, actions
        )
        assert dense.action_values(state, actions) == sparse.action_values(
            state, actions
        )
        assert dense.action_values_sorted(
            state, actions
        ) == sparse.action_values_sorted(state, actions)
    assert sorted(map(repr, dense.known_pairs())) == sorted(
        map(repr, sparse.known_pairs())
    )
    assert len(dense) == len(sparse) == 2


def test_dense_tie_breaking_is_repr_order():
    """Ties go to the repr-smallest action, exactly like the sparse table."""
    sparse, dense = QTable(), DenseQTable()
    # Interning order deliberately disagrees with repr order.
    actions = ("zeta", "alpha", "mid")
    for table in (sparse, dense):
        for action in actions:
            table.set("s", action, 1.0)
    assert dense.best_action("s", actions) == "alpha"
    assert dense.best_action("s", actions) == sparse.best_action("s", actions)


def test_dense_empty_actions_raise():
    dense = DenseQTable()
    with pytest.raises(ValueError):
        dense.best_action("s", ())
    with pytest.raises(ValueError):
        dense.max_value("s", ())
    with pytest.raises(ValueError):
        dense.action_values("s", ())
    with pytest.raises(ValueError):
        dense.action_values_sorted("s", ())


def test_gather_lanes_shared_across_readers():
    """Every per-state reader shares the two gather lanes (given order
    and repr order).  Interleaving them over alternating action views,
    with growth in between, must never serve a stale or foreign gather.
    """
    sparse, dense = QTable(0.25), DenseQTable(0.25)
    views = (
        ("zeta", "alpha", "mid"),
        ("mid", "beta"),
        ("beta", "zeta", "alpha", "omega"),
    )
    states = [f"s{i}" for i in range(6)]
    rng = np.random.default_rng(13)
    for step in range(60):
        actions = views[step % len(views)]
        action = actions[int(rng.integers(len(actions)))]
        value = float(rng.integers(-3, 4))  # small ints: many ties
        for table in (sparse, dense):
            table.set(states[step % len(states)], action, value)
        if step % 15 == 14:
            # Outgrow rows and columns: every baked-in offset is stale.
            grow_count = dense._grow_count
            for i in range(16 << (step // 15)):
                dense.value(f"grow-{step}-{i}", f"act-{step}-{i % 4}")
            assert dense._grow_count > grow_count
        # The next step's view is read last, so its lanes are still
        # warm when the next step writes (and maybe grows) first.
        for probe in (actions, views[(step + 1) % len(views)]):
            for state in states + ["unseen"]:
                assert dense.best_action(state, probe) == sparse.best_action(
                    state, probe
                )
                assert dense.action_values(
                    state, probe
                ) == sparse.action_values(state, probe)
                assert dense.max_value(state, probe) == sparse.max_value(
                    state, probe
                )
                assert dense.action_values_sorted(
                    state, probe
                ) == sparse.action_values_sorted(state, probe)
                _, _, sid, view = dense.locate(state, probe[0], state, probe)
                assert dense.row_values(sid, view) == tuple(
                    sparse.action_values(state, probe)
                )


def test_dense_copy_is_independent():
    dense = DenseQTable()
    dense.set("s", "a", 1.0)
    clone = dense.copy()
    clone.set("s", "a", 5.0)
    clone.set("s2", "b", 7.0)
    assert dense.value("s", "a") == 1.0
    assert dense.value("s2", "b") == 0.0
    assert dense.max_abs_difference(clone) == 7.0


def test_dense_tables_share_one_index():
    """Double-Q style: two tables on one index stay in sync after growth."""
    index = StateActionIndex()
    q_a = DenseQTable(index=index)
    q_b = DenseQTable(index=index)
    # Intern far more states through q_a than the initial capacity.
    for i in range(100):
        q_a.set(f"state-{i}", "go", float(i))
    # q_b must see the enlarged index without having interned anything.
    assert q_b.value("state-99", "go") == 0.0
    q_b.set("state-99", "go", -1.0)
    assert q_b.best_action("state-99", ("go", "stop")) == "stop"
    assert q_a.value("state-99", "go") == 99.0


def test_dense_as_array_tracks_writes():
    dense = DenseQTable()
    dense.set("s", "a", 3.0)
    first = dense.as_array()
    sid, aid = dense.index.state_id("s"), dense.index.action_id("a")
    assert first[sid, aid] == 3.0
    dense.add("s", "a", 1.0)
    assert dense.as_array()[sid, aid] == 4.0


def test_argmax_prober_tracks_updates_and_growth():
    dense = DenseQTable()
    states = ["s0", "s1", "s2"]
    actions = ("a", "b", "c")
    prober = dense.argmax_prober(states, actions)
    assert [actions[j] for j in prober()] == [
        dense.best_action(state, actions) for state in states
    ]
    dense.set("s1", "c", 9.0)
    assert actions[prober()[1]] == "c"
    # Force a table grow; the prober must revalidate its offsets.
    for i in range(200):
        dense.set(f"grow-{i}", "a", 0.0)
    dense.set("s2", "b", 4.0)
    assert [actions[j] for j in prober()] == [
        dense.best_action(state, actions) for state in states
    ]
    with pytest.raises(ValueError):
        dense.argmax_prober(states, ())


# ---------------------------------------------------------------------------
# DenseTraces unit semantics (vs the sparse oracle)
# ---------------------------------------------------------------------------


def test_dense_traces_match_sparse():
    dense_q = DenseQTable()
    dense = DenseTraces(index=dense_q.index)
    sparse = EligibilityTraces()
    assert type(dense) is DenseTraces
    for traces in (dense, sparse):
        traces.visit("s0", "a")
        traces.visit("s0", "a")  # a revisit pins the trace to 1
        traces.visit("s1", "b")
        traces.decay(0.5)
    assert dense.get("s0", "a") == sparse.get("s0", "a")
    assert dense.get("s1", "b") == sparse.get("s1", "b")
    assert dict(dense.items()) == dict(sparse.items())
    # Cutoff: decay far enough and entries are dropped on both.
    for _ in range(40):
        dense.decay(0.5)
        sparse.decay(0.5)
    assert len(dense) == len(sparse) == 0


def test_dense_traces_apply_update_and_snapshot():
    q = DenseQTable()
    traces = DenseTraces(index=q.index)
    traces.visit("s0", "a")
    traces.decay(0.5)
    traces.visit("s1", "b")
    traces.apply_update(q, 2.0)
    assert q.value("s0", "a") == 1.0  # 2.0 * 0.5
    assert q.value("s1", "b") == 2.0
    # items() is a snapshot: mutating mid-iteration must be safe.
    for (state, action), _ in traces.items():
        traces.visit(state, action)
    traces.reset()
    assert len(traces) == 0 and list(traces.items()) == []


# ----------------------------------------------------------------------
# The write primitives own copy-on-write and the version counter.

FROZEN_STATES = ("s0", "s1", "s2")
FROZEN_ACTIONS = ("a", "b")


def _frozen_table():
    """A table served over read-only NumPy buffers, plus the buffers."""
    q2d = np.arange(6, dtype=np.float64).reshape(3, 2) / 4.0
    written = np.ones(6, dtype=np.uint8)
    q2d.flags.writeable = False
    written.flags.writeable = False
    table = DenseQTable.from_frozen_buffers(
        0.0, FROZEN_STATES, FROZEN_ACTIONS, q2d, written
    )
    return table, q2d, written


def _traces_apply_update(q):
    traces = DenseTraces(index=q.index)
    traces.visit("s0", "a")
    traces.apply_update(q, 0.5)


def _traces_step(q):
    DenseTraces(index=q.index).step(q, 0, 1, 0.5, 0.63)


def _dyna_planning_sweep(q):
    # Interns s0, a, s1, b in the frozen table's id order, so the
    # learner's model records address the same cells of ``q``.
    learner = DynaQLearner(learner_config(learning_rate=0.5), planning_steps=4)
    learner.observe("s0", "a", 1.0, "s1", FROZEN_ACTIONS, False)
    learner.q = q
    learner._plan(seeded_generator(0))


#: A two-transition plan over the frozen table's states.
FROZEN_PLAN = (
    list(FROZEN_STATES), [[1.0, 2.0], [3.0, 4.0]],
    [[True, True], [True, True]], [False, True],
)


def _watkins_replay(q):
    learner = TDLambdaQLearner(learner_config(epsilon=0.0))
    learner.q = q
    learner.traces = DenseTraces(index=q.index)
    replay_watkins(learner, FROZEN_ACTIONS, [FROZEN_PLAN], seeded_generator(0))


def _dyna_replay(q):
    learner = DynaQLearner(learner_config(epsilon=0.0), planning_steps=2)
    learner.q = q
    replay_dyna(learner, FROZEN_ACTIONS, [FROZEN_PLAN], seeded_generator(0))


WRITE_ENTRY_POINTS = {
    "set": lambda q: q.set("s1", "b", 9.0),
    "add": lambda q: q.add("s1", "b", 0.5),
    "add_at": lambda q: q.add_at(1, 1, 0.5),
    "add_pairs": lambda q: q.add_pairs([(0, 0), (2, 1)], 0.5, [1.0, 2.0]),
    "traces.apply_update": _traces_apply_update,
    "traces.step": _traces_step,
    "dyna.planning_sweep": _dyna_planning_sweep,
    "replay_watkins": _watkins_replay,
    "replay_dyna": _dyna_replay,
}


@pytest.mark.parametrize("entry", sorted(WRITE_ENTRY_POINTS))
def test_write_primitives_thaw_and_bump(entry):
    q, q2d, written = _frozen_table()
    q2d_before = q2d.copy()
    written_before = written.copy()
    version = q.version
    WRITE_ENTRY_POINTS[entry](q)
    assert q.version > version
    assert np.array_equal(q2d, q2d_before)
    assert np.array_equal(written, written_before)
    # The write landed in private storage, readable through the API.
    assert not np.array_equal(q.as_array()[:3, :2], q2d_before)


# ---------------------------------------------------------------------------
# The fused Watkins Q(λ) kernel against the per-transition loop
# ---------------------------------------------------------------------------

def _routines(name: str):
    """(adl, canonical ids, reordered ids, hand-made episodes)."""
    adl = default_registry().get(name).adl
    ids = list(adl.step_ids)
    body, terminal = ids[:-1], ids[-1]
    tour = [body[0]]
    for first in body:  # every ordered pair of non-terminal steps
        for second in body:
            if first != second:
                tour += [step for step in (first, second) if step != tour[-1]]
    specials = [  # logs the noisy generator never produces
        [ids[0]],  # one state: no transition at all
        [ids[0], terminal],  # two states
        ids[:2] + [terminal] + ids[1:],  # a terminal step mid-episode
        body,  # no terminal step: the last state is read, not done
        body * 32 + [terminal],  # long enough to compact the traces
        tour + [terminal],  # on dressing, outgrows the table's rows
    ]
    return adl, ids, [ids[0]] + body[1:][::-1] + [terminal], specials


def _log(draw, adl, routine, specials):
    episodes = noisy_episodes(
        Routine(adl, routine),
        draw(st.integers(1, 6)),
        np.random.default_rng(draw(st.integers(0, 2**16))),
        miss_probability=draw(st.sampled_from([0.0, 0.3])),
    )
    for special in draw(st.lists(st.sampled_from(specials), max_size=3)):
        episodes.insert(draw(st.integers(0, len(episodes))), list(special))
    return episodes


@st.composite
def _replay_cases(draw):
    name = draw(st.sampled_from(["tea-making", "dressing"]))
    adl, ids, reordered, specials = _routines(name)
    return {
        "adl": name,
        "trace_decay": draw(st.sampled_from([0.0, 0.7, 1.0])),
        # (ε, its decay): constant and decaying exploration.
        "epsilon": draw(st.sampled_from([(0.0, 1.0), (0.3, 1.0), (0.5, 0.9)])),
        # A high cutoff compacts the traces within a few steps; the
        # default one needs a long on-target streak.
        "cutoff": draw(st.sampled_from([1e-4, 0.3])),
        "initial_q": draw(st.sampled_from([0.0, 1000.0])),
        "seed": draw(st.integers(0, 2**16)),
        "logs": [
            _log(draw, adl, ids, specials),
            _log(draw, adl, reordered, specials),
        ],
        "online": draw(
            st.lists(st.sampled_from([ids, reordered, [ids[0], ids[-1]]]),
                     min_size=1, max_size=4)
        ),
    }


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _replay_case(case, path: str) -> dict:
    """Train, train again, adapt online; return every observable.

    ``path`` is ``"fused"`` (production dispatch), ``"per-step"`` (the
    production learner through the per-transition loop of
    ``tests/oracles/rl.py``) or ``"sparse"`` (the dict oracle).
    """
    adl, ids, reordered, _ = _routines(case["adl"])
    epsilon, decay = case["epsilon"]
    config = PlanningConfig(
        trace_decay=case["trace_decay"], epsilon=epsilon,
        epsilon_decay=decay, initial_q=case["initial_q"],
    )
    learner = (
        SparseTDLambdaQLearner(config) if path == "sparse"
        else TDLambdaQLearner(config)
    )
    learner.traces.cutoff = case["cutoff"]
    trainer = RoutineTrainer(
        adl, config, learner=learner, rng=seeded_generator(case["seed"])
    )
    if path == "per-step":
        trainer._replay = functools.partial(per_step_replay, trainer)
    curves, documents = [], []
    for log, routine in zip(case["logs"], (ids, reordered)):
        result = trainer.train(log, routine=Routine(adl, routine))
        curves.append(copy.deepcopy(result.curve))
        if path != "sparse":
            documents.append(
                json.dumps(training_document(result, adl.name), sort_keys=True)
            )
    adaptation = OnlineAdaptation(
        adl, learner, config, rng=seeded_generator(case["seed"] + 1),
        epsilon=0.2,
    )
    replay = per_step_replay_episode if path == "per-step" else replay_episode
    with mock.patch.object(online_module, "replay_episode", replay):
        for episode in case["online"]:
            previous = 0
            for step in episode:
                adaptation.on_step(StepEvent(0.0, step, previous))
                previous = step
    observed = {
        "curves": curves,
        "rng": (
            trainer._rng.bit_generator.state,
            adaptation._rng.bit_generator.state,
        ),
        "counters": (learner.updates, learner.episodes, learner.q.version),
        "online": (adaptation.episodes_learned, adaptation.recent_accuracy),
    }
    if path == "sparse":
        return observed
    q, traces = learner.q, learner.traces
    observed.update(
        documents=documents,
        states=list(q.index.states),
        actions=list(q.index.actions),
        array=(q.as_array().shape, q.as_array().tobytes()),
        written=bytes(q._written),
        traces=(list(traces._slots.items()), list(traces._pairs),
                _bits(traces._e)),
    )
    return observed


_TEA_IDS = _routines("tea-making")[1]
_DRESSING = _routines("dressing")


@settings(max_examples=40, deadline=None)
@given(case=_replay_cases())
@example(
    # Greedy replays of the long episode revisit live pairs.
    case={
        "adl": "tea-making", "trace_decay": 0.7, "epsilon": (0.0, 1.0),
        "cutoff": 1e-4, "initial_q": 1000.0, "seed": 0,
        "logs": [[_TEA_IDS[:-1] * 32 + [_TEA_IDS[-1]]] * 4, [_TEA_IDS]],
        "online": [_TEA_IDS],
    }
)
@example(
    # A high cutoff: greedy replays of the long episode compact.
    case={
        "adl": "tea-making", "trace_decay": 0.7, "epsilon": (0.0, 1.0),
        "cutoff": 0.3, "initial_q": 1000.0, "seed": 0,
        "logs": [[_TEA_IDS[:-1] * 32 + [_TEA_IDS[-1]]] * 4, [_TEA_IDS]],
        "online": [_TEA_IDS],
    }
)
@example(
    # The tour grows the table past the plan bound before it.
    case={
        "adl": "dressing", "trace_decay": 0.7, "epsilon": (0.3, 1.0),
        "cutoff": 1e-4, "initial_q": 1000.0, "seed": 1,
        "logs": [[_DRESSING[1], _DRESSING[3][-1], _DRESSING[1]],
                 [_DRESSING[2]]],
        "online": [_DRESSING[1]],
    }
)
def test_fused_kernel_equals_the_per_step_loop(case):
    fused = _replay_case(case, "fused")
    per_step = _replay_case(case, "per-step")
    assert fused == per_step
    sparse = _replay_case(case, "sparse")
    assert sparse["curves"] == fused["curves"]
    assert sparse["rng"] == fused["rng"]


def _per_step_plans(learner, actions, plans, rng) -> None:
    """``select_action`` + ``observe`` over fused-kernel plans."""
    planning = {"rng": rng} if isinstance(learner, DynaQLearner) else {}
    for step, (states, rewards, followed, dones) in enumerate(plans):
        learner.begin_episode()
        for i, done in enumerate(dones):
            action, exploratory = learner.select_action(
                states[i], actions, rng, step=step
            )
            j = actions.index(action)
            learner.observe(
                states[i], action, rewards[i][j], states[i + 1], actions,
                done, exploratory=exploratory or not followed[i][j],
                **planning,
            )


def _dyna_model(learner) -> tuple:
    """A Dyna learner's model, each record's action view as its tuple."""
    return (
        list(learner._model.items()),
        [
            (sid, aid, reward, next_sid, None if view is None else view.actions)
            for sid, aid, reward, next_sid, view in learner._outcomes
        ],
    )


def _kernel_vs_per_step(kind, make_table, plans, make_rng) -> None:
    """Replay ``plans`` through a fresh ``kind`` learner on
    ``make_table()`` with the fused kernel and with the per-transition
    calls; assert every observable equal."""
    observed = []
    for fused in (True, False):
        q = make_table()
        learner = kind(learner_config(epsilon=0.3))
        learner.q = q
        if kind is TDLambdaQLearner:
            learner.traces = DenseTraces(index=q.index)
        rng = make_rng()
        if fused:
            fused_kernel(learner)(learner, FROZEN_ACTIONS, plans, rng)
        else:
            _per_step_plans(learner, FROZEN_ACTIONS, plans, rng)
        learned = (
            (list(learner.traces._pairs), _bits(learner.traces._e))
            if kind is TDLambdaQLearner
            else (_dyna_model(learner), learner.planning_updates)
        )
        observed.append((
            q.as_array().tobytes(), bytes(q._written), q.index.states,
            learned, learner.updates, q.version,
            # Where the generator stands, its buffered 32-bit half
            # included (an MT19937 state holds arrays).
            rng.integers(1 << 30, size=3).tolist(), rng.random(3).tolist(),
        ))
    assert observed[0] == observed[1], kind.__name__


#: A two-transition plan whose prompts are sometimes not followed.
SHORT_PLAN = (
    list(FROZEN_STATES), [[1.0, 2.0], [3.0, 4.0]],
    [[True, False], [False, True]], [False, True],
)


def test_fused_kernel_rebinds_when_the_stride_grows():
    """A frozen table's stride is its action count, so the growth that
    new states force widens it: plans bound before must re-gather, and
    Dyna's model records be laid out again."""
    fresh = [f"n{i}" for i in range(20)]
    long = (fresh, [[0.5, 1.5]] * 19, [[True, True]] * 19, [False] * 19)
    for kind in (TDLambdaQLearner, DynaQLearner):
        _kernel_vs_per_step(
            kind, lambda: _frozen_table()[0],
            [SHORT_PLAN, long, SHORT_PLAN, SHORT_PLAN],
            lambda: seeded_generator(5),
        )


def test_fused_kernels_take_any_bit_generator():
    """The kernels decode a PCG64 generator's words themselves; any
    other bit generator keeps numpy's calls, to the same effect."""
    for kind in (TDLambdaQLearner, DynaQLearner):
        _kernel_vs_per_step(
            kind, DenseQTable, [SHORT_PLAN] * 30,
            lambda: np.random.Generator(np.random.MT19937(6)),
        )


def test_fused_dispatch_is_on_exact_types():
    config = PlanningConfig()
    assert fused_kernel(TDLambdaQLearner(config)) is replay_watkins
    assert fused_kernel(DynaQLearner(config)) is replay_dyna
    for kind in (
        SparseTDLambdaQLearner,
        SparseDynaQLearner,
        SarsaLambdaLearner,
        ExpectedSarsaLearner,
        DoubleQLearner,
    ):
        learner = kind(config)
        assert fused_kernel(learner) is None, learner


# ---------------------------------------------------------------------------
# The fused Dyna-Q kernel against the per-transition loop
# ---------------------------------------------------------------------------


@st.composite
def _dyna_cases(draw):
    name = draw(st.sampled_from(["tea-making", "dressing"]))
    adl, ids, reordered, specials = _routines(name)
    return {
        "adl": name,
        "planning_steps": draw(st.sampled_from([0, 1, 5, 20])),
        "epsilon": draw(st.sampled_from([(0.0, 1.0), (0.3, 1.0), (0.5, 0.9)])),
        "initial_q": draw(st.sampled_from([0.0, 1000.0])),
        "seed": draw(st.integers(0, 2**16)),
        "logs": [
            _log(draw, adl, ids, specials),
            _log(draw, adl, reordered, specials),
        ],
        "online": draw(
            st.lists(st.sampled_from([ids, reordered, [ids[0], ids[-1]]]),
                     min_size=1, max_size=4)
        ),
    }


def _dyna_case(case, path: str) -> dict:
    """Train twice, adapt online; return every observable.

    ``path`` is ``"fused"``, ``"per-step"`` or ``"sparse"``, as in
    :func:`_replay_case`.  The sparse oracle's table and model are
    keyed by states and actions, so the dense ones are mapped to the
    same form for the comparison.
    """
    adl, ids, reordered, _ = _routines(case["adl"])
    epsilon, decay = case["epsilon"]
    config = PlanningConfig(
        epsilon=epsilon, epsilon_decay=decay, initial_q=case["initial_q"]
    )
    learner = (SparseDynaQLearner if path == "sparse" else DynaQLearner)(
        config, case["planning_steps"]
    )
    trainer = RoutineTrainer(
        adl, config, learner=learner, rng=seeded_generator(case["seed"])
    )
    if path != "fused":
        trainer._replay = functools.partial(per_step_replay, trainer)
    curves = [
        copy.deepcopy(trainer.train(log, routine=Routine(adl, routine)).curve)
        for log, routine in zip(case["logs"], (ids, reordered))
    ]
    adaptation = OnlineAdaptation(
        adl, learner, config, rng=seeded_generator(case["seed"] + 1),
        epsilon=0.2,
    )
    replay = replay_episode if path == "fused" else per_step_replay_episode
    with mock.patch.object(online_module, "replay_episode", replay):
        for episode in case["online"]:
            previous = 0
            for step in episode:
                adaptation.on_step(StepEvent(0.0, step, previous))
                previous = step
    q = learner.q
    if path == "sparse":
        cells = dict(q._q)
        model = [
            (pair, outcome[:3])
            for pair, outcome in zip(learner._known_pairs, learner._outcomes)
        ]
    else:
        states, actions, cols = q.index.states, q.index.actions, q._cols
        cells = {
            (states[off // cols], actions[off % cols]): q._flat[off]
            for off, flag in enumerate(q._written) if flag
        }
        model = [
            (
                (states[sid], actions[aid]),
                (reward, states[next_sid], view is None),
            )
            for sid, aid, reward, next_sid, view in learner._outcomes
        ]
    observed = {
        "curves": curves,
        "rng": (
            trainer._rng.bit_generator.state,
            adaptation._rng.bit_generator.state,
        ),
        "counters": (
            learner.updates, learner.planning_updates, learner.episodes,
            q.version,
        ),
        "online": (adaptation.episodes_learned, adaptation.recent_accuracy),
        "cells": cells,
        "model": model,
    }
    if path != "sparse":
        observed.update(
            states=list(q.index.states),
            actions=list(q.index.actions),
            flat=_bits(q._flat),
            written=bytes(q._written),
            records=_dyna_model(learner),
        )
    return observed


@settings(max_examples=30, deadline=None)
@given(case=_dyna_cases())
@example(
    # The tour grows the table past the plan bound before it, with a
    # planning sweep over the records laid out for the old rows.
    case={
        "adl": "dressing", "planning_steps": 5, "epsilon": (0.3, 1.0),
        "initial_q": 1000.0, "seed": 1,
        "logs": [[_DRESSING[1], _DRESSING[3][-1], _DRESSING[1]],
                 [_DRESSING[2]]],
        "online": [_DRESSING[1]],
    }
)
def test_fused_dyna_kernel_equals_the_per_step_loop(case):
    fused = _dyna_case(case, "fused")
    per_step = _dyna_case(case, "per-step")
    assert fused == per_step
    sparse = _dyna_case(case, "sparse")
    assert {key: fused[key] for key in sparse} == sparse
