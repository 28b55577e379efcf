"""The sparse reference RL stack: dict Q-table, dict traces, table-API updates.

Production learners (``repro.rl``) run fused updates straight against
the dense flat buffer of :class:`~repro.rl.dense.DenseQTable`.  The
classes here are the plain versions those updates must reproduce bit
for bit: :class:`QTable` and :class:`EligibilityTraces` keyed by
``(state, action)`` tuples, and one ``Sparse*`` subclass per learner
whose ``observe`` goes through the table API only.  Each subclass
keeps its production parent's settings, ε-greedy exploration and
greedy readouts, so a test can train both through the same trainer
and compare curves, RNG draws and Q-values exactly.

:func:`per_step_replay_episode` and :func:`per_step_replay` are the
per-transition training loop -- ``select_action`` then ``observe`` for
every transition, Dyna-Q planning included, the greedy probe after
every episode -- that :func:`repro.rl.dense.replay_watkins` and
:func:`repro.rl.dense.replay_dyna` fuse for the production
:class:`~repro.rl.tdlambda.TDLambdaQLearner` and
:class:`~repro.rl.dyna.DynaQLearner`.

:func:`learner_config` is a :class:`PlanningConfig` with Q starting
at 0 and a constant ε, the settings the unit tests reason with.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PlanningConfig
from repro.planning.rewards_coreda import CoReDAReward
from repro.planning.state import episode_states
from repro.planning.trainer import LearningCurve
from repro.rl.double_q import DoubleQLearner, _MeanQView
from repro.rl.dyna import DynaQLearner
from repro.rl.expected_sarsa import ExpectedSarsaLearner
from repro.rl.sarsa import SarsaLambdaLearner
from repro.rl.tdlambda import TDLambdaQLearner

__all__ = [
    "EligibilityTraces",
    "QTable",
    "SparseDoubleQLearner",
    "SparseDynaQLearner",
    "SparseExpectedSarsaLearner",
    "SparseSarsaLambdaLearner",
    "SparseTDLambdaQLearner",
    "learner_config",
    "per_step_replay",
    "per_step_replay_episode",
]

State = Hashable
Action = Hashable


def learner_config(**fields) -> PlanningConfig:
    """A :class:`PlanningConfig` with ``initial_q`` 0 and a constant ε
    (``epsilon_decay`` 1), overridden by ``fields``."""
    return PlanningConfig(**{"initial_q": 0.0, "epsilon_decay": 1.0, **fields})


class QTable:
    """Sparse mapping ``(state, action) -> value`` with default init.

    Ties in argmax break by the actions' ``repr`` order, the order the
    dense table precomputes per action set.
    """

    def __init__(self, initial_value: float = 0.0) -> None:
        self.initial_value = float(initial_value)
        self._q: Dict[Tuple[State, Action], float] = {}
        #: Monotone write counter, as on the dense table.
        self.version = 0

    def value(self, state: State, action: Action) -> float:
        """Q(s, a), defaulting to the initial value for unseen pairs."""
        return self._q.get((state, action), self.initial_value)

    def set(self, state: State, action: Action, value: float) -> None:
        """Assign Q(s, a)."""
        self._q[(state, action)] = float(value)
        self.version += 1

    def add(self, state: State, action: Action, delta: float) -> None:
        """In-place ``Q(s, a) += delta``."""
        key = (state, action)
        self._q[key] = self._q.get(key, self.initial_value) + delta
        self.version += 1

    def best_action(self, state: State, actions: Iterable[Action]) -> Action:
        """Argmax over ``actions``; the first maximum in repr order wins."""
        best: Optional[Action] = None
        best_value = float("-inf")
        for action in sorted(actions, key=repr):
            value = self.value(state, action)
            if value > best_value:
                best = action
                best_value = value
        if best is None:
            raise ValueError(f"no actions available in state {state!r}")
        return best

    def max_value(self, state: State, actions: Iterable[Action]) -> float:
        """max_a Q(s, a) over the given actions."""
        values = [self.value(state, a) for a in actions]
        if not values:
            raise ValueError(f"no actions available in state {state!r}")
        return max(values)

    def action_values(
        self, state: State, actions: Sequence[Action]
    ) -> List[float]:
        """``[Q(s, a) for a in actions]`` in the given order."""
        return [self.value(state, a) for a in actions]

    def action_values_sorted(
        self, state: State, actions: Sequence[Action]
    ) -> Tuple[List[float], Tuple[Action, ...]]:
        """(values, actions), both in the deterministic repr order."""
        ordered = tuple(sorted(actions, key=repr))
        if not ordered:
            raise ValueError(f"no actions available in state {state!r}")
        return [self.value(state, a) for a in ordered], ordered

    def known_pairs(self) -> List[Tuple[State, Action]]:
        """All (state, action) pairs ever written."""
        return list(self._q.keys())

    def copy(self) -> "QTable":
        """An independent snapshot of this table."""
        clone = QTable(self.initial_value)
        clone._q = dict(self._q)
        return clone

    def max_abs_difference(self, other) -> float:
        """sup-norm distance to ``other`` (sparse or dense), over either
        table's written support."""
        keys = set(self._q) | set(other.known_pairs())
        if not keys:
            return 0.0
        return max(
            abs(self.value(s, a) - other.value(s, a)) for s, a in keys
        )

    def __len__(self) -> int:
        return len(self._q)


class EligibilityTraces:
    """A sparse replacing-trace vector over (state, action) pairs.

    A visit sets the trace to 1; entries decaying below ``cutoff`` are
    dropped.
    """

    def __init__(self, cutoff: float = 1e-4) -> None:
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.cutoff = cutoff
        self._traces: Dict[Tuple[State, Action], float] = {}

    def visit(self, state: State, action: Action) -> None:
        """Mark (s, a) as just visited."""
        self._traces[(state, action)] = 1.0

    def decay(self, factor: float) -> None:
        """Multiply every trace by ``factor`` (= γλ), dropping tiny ones."""
        if factor == 0.0:
            self._traces.clear()
            return
        dead = []
        for key in self._traces:
            self._traces[key] *= factor
            if self._traces[key] < self.cutoff:
                dead.append(key)
        for key in dead:
            del self._traces[key]

    def get(self, state: State, action: Action) -> float:
        """Current trace of (s, a) (0.0 if inactive)."""
        return self._traces.get((state, action), 0.0)

    def reset(self) -> None:
        """Clear all traces (start of episode, or Watkins cut)."""
        self._traces.clear()

    def items(self) -> Iterator[Tuple[Tuple[State, Action], float]]:
        """Iterate over a snapshot of active (key, trace) pairs, so
        callers may mutate the Q-table while looping."""
        return iter(list(self._traces.items()))

    def apply_update(self, q, coef: float) -> None:
        """``Q[pair] += coef * e[pair]`` for every active pair, in
        first-visit order (``coef`` is the precomputed ``α·δ``)."""
        for (state, action), eligibility in self._traces.items():
            q.add(state, action, coef * eligibility)

    def __len__(self) -> int:
        return len(self._traces)


class SparseTDLambdaQLearner(TDLambdaQLearner):
    """Watkins Q(λ) through the table API, on the sparse table."""

    def __init__(self, config: PlanningConfig) -> None:
        super().__init__(config)
        self.q = QTable(config.initial_q)
        self.traces = EligibilityTraces()

    def observe(
        self,
        state: State,
        action: Action,
        reward: float,
        next_state: State,
        next_actions: Sequence[Action],
        done: bool,
        exploratory: bool = False,
    ) -> float:
        alpha = self.learning_rate
        if done:
            target = reward
        else:
            target = reward + self.discount * self.q.max_value(
                next_state, next_actions
            )
        delta = target - self.q.value(state, action)
        if exploratory:
            self.q.add(state, action, alpha * delta)
            self.traces.reset()
        else:
            self.traces.visit(state, action)
            self.traces.apply_update(self.q, alpha * delta)
            self.traces.decay(self.discount * self.trace_decay)
        if done:
            self.traces.reset()
        self.updates += 1
        return delta


class SparseSarsaLambdaLearner(SarsaLambdaLearner):
    """SARSA(λ) through the table API, on the sparse table."""

    def __init__(self, config: PlanningConfig) -> None:
        super().__init__(config)
        self.q = QTable(config.initial_q)
        self.traces = EligibilityTraces()

    def observe(
        self,
        state: State,
        action: Action,
        reward: float,
        next_state: State,
        next_action: Optional[Action],
        done: bool,
    ) -> float:
        alpha = self.learning_rate
        if not done and next_action is None:
            raise ValueError("next_action is required for non-terminal updates")
        if done:
            target = reward
        else:
            target = reward + self.discount * self.q.value(
                next_state, next_action
            )
        delta = target - self.q.value(state, action)
        self.traces.visit(state, action)
        self.traces.apply_update(self.q, alpha * delta)
        self.traces.decay(self.discount * self.trace_decay)
        if done:
            self.traces.reset()
        self.updates += 1
        return delta


class SparseExpectedSarsaLearner(ExpectedSarsaLearner):
    """Expected SARSA through the table API, on the sparse table."""

    def __init__(self, config: PlanningConfig) -> None:
        super().__init__(config)
        self.q = QTable(config.initial_q)

    def observe(
        self,
        state: State,
        action: Action,
        reward: float,
        next_state: State,
        next_actions: Sequence[Action],
        done: bool,
        exploratory: bool = False,
    ) -> float:
        alpha = self.learning_rate
        if done or not next_actions:
            target = reward
        else:
            target = reward + self.discount * self.expected_value(
                next_state, next_actions
            )
        delta = target - self.q.value(state, action)
        self.q.add(state, action, alpha * delta)
        self.updates += 1
        return delta


class SparseDynaQLearner(DynaQLearner):
    """Dyna-Q through the table API, on the sparse table.

    The model keys are ``(state, action)`` pairs, kept in first-seen
    order in ``_known_pairs`` next to one ``(reward, next_state, done,
    next_actions)`` record each; planning draws its sample indices one
    scalar draw at a time.
    """

    def __init__(
        self, config: PlanningConfig, planning_steps: int = 10
    ) -> None:
        super().__init__(config, planning_steps)
        self.q = QTable(config.initial_q)
        self._known_pairs: List[Tuple[State, Action]] = []

    def observe(
        self,
        state: State,
        action: Action,
        reward: float,
        next_state: State,
        next_actions: Sequence[Action],
        done: bool,
        rng: Optional[np.random.Generator] = None,
        exploratory: bool = False,
    ) -> float:
        next_tuple = tuple(next_actions)
        alpha = self.learning_rate
        delta = self._table_update(
            state, action, reward, next_state, next_tuple, done, alpha
        )
        key = (state, action)
        record = (reward, next_state, done, next_tuple)
        pos = self._model.get(key)
        if pos is None:
            self._model[key] = len(self._known_pairs)
            self._known_pairs.append(key)
            self._outcomes.append(record)
        else:
            self._outcomes[pos] = record
        if rng is not None and self.planning_steps > 0 and self._known_pairs:
            n = len(self._known_pairs)
            for _ in range(self.planning_steps):
                i = int(rng.integers(n))
                state_i, action_i = self._known_pairs[i]
                reward_i, next_i, done_i, actions_i = self._outcomes[i]
                self._table_update(
                    state_i, action_i, reward_i, next_i, actions_i, done_i,
                    alpha,
                )
            self.planning_updates += self.planning_steps
        self.updates += 1
        return delta

    def _table_update(
        self,
        state: State,
        action: Action,
        reward: float,
        next_state: State,
        next_actions: Tuple[Action, ...],
        done: bool,
        alpha: float,
    ) -> float:
        if done or not next_actions:
            target = reward
        else:
            target = reward + self.discount * self.q.max_value(
                next_state, next_actions
            )
        delta = target - self.q.value(state, action)
        self.q.add(state, action, alpha * delta)
        return delta


class SparseDoubleQLearner(DoubleQLearner):
    """Double Q-learning over two sparse tables."""

    def __init__(self, config: PlanningConfig) -> None:
        super().__init__(config)
        self.q_a = QTable(config.initial_q)
        self.q_b = QTable(config.initial_q)
        self.q = _MeanQView(self.q_a, self.q_b)


def per_step_replay_episode(
    learner, actions, episode, reward_fn, rng, iteration: int = 0
) -> Tuple[int, int]:
    """One logged episode through ``select_action`` and ``observe``.

    The per-transition form of ``repro.planning.trainer.
    replay_episode``, Dyna-Q planning on ``rng`` included; returns
    ``(followed prompts, prompts)``.
    """
    states = episode_states(list(episode))
    planning = {"rng": rng} if isinstance(learner, DynaQLearner) else {}
    learner.begin_episode()
    correct = 0
    total = 0
    for state, next_state in zip(states, states[1:]):
        action, exploratory = learner.select_action(
            state, actions, rng, step=iteration
        )
        reward = reward_fn.reward(state, action, next_state)
        followed = action.tool_id == next_state.current
        done = next_state.current == reward_fn.terminal_step_id
        learner.observe(
            state, action, reward, next_state, actions, done,
            exploratory=exploratory or not followed, **planning,
        )
        total += 1
        correct += followed
    return correct, total


def per_step_replay(trainer, episodes, routine) -> LearningCurve:
    """``RoutineTrainer._replay`` through :func:`per_step_replay_episode`.

    Install it on a trainer instance with ``trainer._replay =
    functools.partial(per_step_replay, trainer)``; ``train`` then
    runs the per-transition loop whatever the learner.
    """
    reward_fn = CoReDAReward(trainer.config, routine.terminal_step_id)
    curve = LearningCurve()
    for iteration, episode in enumerate(episodes):
        correct, total = per_step_replay_episode(
            trainer.learner, trainer.actions, episode, reward_fn,
            trainer._rng, iteration,
        )
        curve.behaviour_accuracy.append(correct / total if total else 1.0)
        window = curve.behaviour_accuracy[-trainer.SMOOTHING_WINDOW:]
        curve.smoothed_accuracy.append(sum(window) / len(window))
        greedy, minimal = trainer._probe_greedy(routine)
        curve.greedy_accuracy.append(greedy)
        curve.minimal_fraction.append(minimal)
    return curve
