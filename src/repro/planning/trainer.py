"""Offline routine training (paper section 3.2).

The paper trains on 120 recorded samples per ADL, each "a complete
process of an ADL", and plots a learning curve with convergence read
off at the 95% and 98% criteria.  :class:`RoutineTrainer` reproduces
that procedure:

* one **iteration** = one training sample (episode) replayed through
  the learner, the behaviour policy choosing a prompt at every step
  and the CoReDA reward function scoring it against the observed next
  step;
* the per-iteration **accuracy** is the fraction of prompts issued
  during that episode whose tool matched the step the user actually
  took next -- this is what a deployed system can measure without
  ground truth, and (because the behaviour policy keeps exploring) it
  converges gradually, giving the paper's curve its shape;
* a rolling mean smooths the quantised per-episode values before the
  convergence detector is applied;
* the **greedy accuracy** (probe of the greedy policy against the true
  routine) is also recorded -- it is the quantity behind Table 4.

Inside a :func:`training_memo` scope (the report runner opens one per
run) a repeat request for an identical training is served from a
snapshot of the first one instead of replaying the episodes again.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adl import ADL, ReminderLevel, Routine
from repro.core.config import PlanningConfig
from repro.planning.action import PromptAction, action_space
from repro.planning.rewards_coreda import CoReDAReward
from repro.planning.state import PlanningState, episode_states
from repro.rl.convergence import convergence_iteration
from repro.rl.dense import DenseQTable, replay_dyna, replay_watkins
from repro.rl.dyna import DynaQLearner
from repro.rl.tdlambda import TDLambdaQLearner
from repro.sim.random import seeded_generator

__all__ = [
    "LearningCurve",
    "TrainingResult",
    "RoutineTrainer",
    "fused_kernel",
    "replay_episode",
    "training_memo",
]

#: The run-scoped training memo: ``{key -> (snapshot, rng state)}``.
#: Mutated in place, never rebound, like the attach memo of
#: :mod:`repro.planning.shm`.
_TRAINING_MEMO: Dict[tuple, tuple] = {}

#: The pid of the process that opened the memo scope, while one is
#: open.  A forked ``--jobs`` worker inherits the list but not the
#: pid, so its trainings run unshared, exactly as outside the scope.
_MEMO_OWNER: List[int] = []


@contextmanager
def training_memo() -> Iterator[None]:
    """Share identical trainings for the duration of the ``with`` block.

    Within the scope, a :class:`RoutineTrainer` that builds its own
    learner serves the first :meth:`~RoutineTrainer.train` call from
    the memo when an earlier training had the same ADL, config,
    generator state, episode log and routine.  The result, the
    learner and the generator's post-training state equal a replay's
    exactly.  The memo starts empty and is freed on exit, exceptions
    included.
    """
    _TRAINING_MEMO.clear()
    _MEMO_OWNER.append(os.getpid())
    try:
        yield
    finally:
        _MEMO_OWNER.pop()
        _TRAINING_MEMO.clear()


def _episode_plan(
    states: Sequence[PlanningState],
    actions: Sequence[PromptAction],
    reward_fn: CoReDAReward,
) -> tuple:
    """One episode for a :func:`fused_kernel`, every prompt pre-scored."""
    steps = list(zip(states, states[1:]))
    return (
        states,
        [[reward_fn.reward(state, action, after) for action in actions]
         for state, after in steps],
        [[action.tool_id == after.current for action in actions]
         for _, after in steps],
        [after.current == reward_fn.terminal_step_id for _, after in steps],
    )


def fused_kernel(learner):
    """The fused episode kernel that replays ``learner``, or ``None``.

    :func:`~repro.rl.dense.replay_watkins` for a ``TDLambdaQLearner``,
    :func:`~repro.rl.dense.replay_dyna` for a ``DynaQLearner``.  The
    kernels inline ``select_action`` and ``observe``, so dispatch is
    on exact types: the sparse oracle subclasses and every other
    learner keep the per-transition calls.  The kernel is looked up
    per call, so a test may wrap the module-level name.
    """
    kind = type(learner)
    if kind is TDLambdaQLearner:
        return replay_watkins
    if kind is DynaQLearner:
        return replay_dyna
    return None


def replay_episode(
    learner,
    actions: Sequence[PromptAction],
    episode: Sequence[int],
    reward_fn: CoReDAReward,
    rng: np.random.Generator,
    iteration: int = 0,
    states: Optional[Sequence[PlanningState]] = None,
) -> Tuple[int, int]:
    """Replay one logged episode through a learner.

    The behaviour policy chooses a prompt per transition, the CoReDA
    reward scores it against the observed next step, and prompts that
    were not followed are flagged off-target (strict Watkins cut).
    Returns ``(correct_prompts, total_prompts)``.

    ``states`` may carry the precomputed ``episode_states(episode)``
    trajectory -- the trainer replays the same episodes hundreds of
    times, so it caches them instead of rebuilding the namedtuples
    every iteration.

    Shared by offline training (:class:`RoutineTrainer`) and online
    adaptation (:class:`repro.planning.online.OnlineAdaptation`);
    a learner with a :func:`fused_kernel` takes the kernel.
    """
    if states is None:
        states = episode_states(list(episode))
    kernel = fused_kernel(learner)
    if kernel is not None:
        plan = _episode_plan(states, actions, reward_fn)
        ((correct, total, _, _),) = kernel(
            learner, actions, [plan], rng, iteration
        )
        return correct, total
    learner.begin_episode()
    correct = 0
    total = 0
    select = learner.select_action
    observe = learner.observe
    score = reward_fn.reward
    terminal = reward_fn.terminal_step_id
    for index in range(len(states) - 1):
        state, next_state = states[index], states[index + 1]
        action, exploratory = select(state, actions, rng, step=iteration)
        reward = score(state, action, next_state)
        followed = action.tool_id == next_state.current
        done = next_state.current == terminal
        observe(
            state, action, reward, next_state, actions, done,
            exploratory=exploratory or not followed,
        )
        total += 1
        if followed:
            correct += 1
    return correct, total


@dataclass
class LearningCurve:
    """Accuracy series recorded during training."""

    #: Raw per-episode behaviour accuracy (prompts matching next steps).
    behaviour_accuracy: List[float] = field(default_factory=list)
    #: Rolling mean of ``behaviour_accuracy`` (window set by trainer).
    smoothed_accuracy: List[float] = field(default_factory=list)
    #: Greedy-policy probe against the true routine, per episode.
    greedy_accuracy: List[float] = field(default_factory=list)
    #: Fraction of greedy prompts at MINIMAL level, per episode.
    minimal_fraction: List[float] = field(default_factory=list)


@dataclass
class TrainingResult:
    """Everything the evaluation needs after a training run."""

    curve: LearningCurve
    #: criterion -> 1-based iteration of convergence (None = never).
    convergence: Dict[float, Optional[int]]
    routine: Routine
    learner: object
    actions: Tuple[PromptAction, ...]

    def converged(self, criterion: float) -> bool:
        """True if the run converged at ``criterion``."""
        return self.convergence.get(criterion) is not None


class RoutineTrainer:
    """Trains a learner on logged ADL episodes, recording the curve.

    ``learner`` defaults to Watkins TD(λ) Q-learning built from
    ``config``; a :class:`~repro.rl.dyna.DynaQLearner` may be passed
    for the fast-learning ablation.
    """

    #: Rolling-mean window applied before convergence detection.
    SMOOTHING_WINDOW = 10

    def __init__(
        self,
        adl: ADL,
        config: Optional[PlanningConfig] = None,
        learner: Optional[object] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.adl = adl
        self.config = config if config is not None else PlanningConfig()
        self._rng = rng if rng is not None else seeded_generator(0)
        # Only a learner built here, on its first training, may be
        # served from the training memo.
        self._owns_learner = learner is None
        if learner is None:
            learner = TDLambdaQLearner(self.config)
        self.learner = learner
        self.actions: Tuple[PromptAction, ...] = tuple(action_space(adl))
        # Probe-state cache: the greedy probe runs once per training
        # iteration over the same routine, so its states, the expected
        # next steps, and (on a dense Q-table) a prebound argmax
        # prober are computed once per routine.
        self._probe_cache: Optional[tuple] = None
        # Episode-trajectory cache: the paper replays the same logged
        # episodes for hundreds of iterations, so their PlanningState
        # trajectories are built once per distinct step sequence.
        self._states_cache: Dict[Tuple[int, ...], List[PlanningState]] = {}

    def train(
        self,
        episodes: Sequence[Sequence[int]],
        routine: Optional[Routine] = None,
        criteria: Sequence[float] = (0.95, 0.98),
    ) -> TrainingResult:
        """Replay ``episodes`` through the learner.

        ``routine`` is the ground-truth personal routine used for the
        greedy probe; it defaults to the first episode (the paper's
        training samples are all complete correct runs).
        """
        if not episodes:
            raise ValueError("need at least one training episode")
        if routine is None:
            routine = Routine(self.adl, episodes[0])
        key = self._memo_key(episodes, routine)
        entry = _TRAINING_MEMO.get(key) if key is not None else None
        if entry is not None:
            snapshot, rng_state = entry
            curve, self.learner = pickle.loads(snapshot)
            self._rng.bit_generator.state = rng_state
            self._probe_cache = None
        else:
            curve = self._replay(episodes, routine)
            if key is not None:
                snapshot = pickle.dumps(
                    (curve, self.learner), pickle.HIGHEST_PROTOCOL
                )
                _TRAINING_MEMO[key] = (snapshot, self._rng.bit_generator.state)
        # Convergence is recomputed per request, so the criteria stay
        # out of the memo key.
        convergence = {
            criterion: convergence_iteration(
                curve.smoothed_accuracy,
                criterion,
                patience=self.config.convergence_patience,
            )
            for criterion in criteria
        }
        return TrainingResult(
            curve=curve,
            convergence=convergence,
            routine=routine,
            learner=self.learner,
            actions=self.actions,
        )

    def _memo_key(
        self, episodes: Sequence[Sequence[int]], routine: Routine
    ) -> Optional[tuple]:
        """The training-memo key, or ``None`` when this call is unshared.

        The key covers every input of :meth:`_replay`: ADL, action
        set, config, generator state, episode log and routine.  Only
        a fresh learner qualifies: one that has begun no episode and
        made no update.
        """
        if (
            not self._owns_learner
            or self.learner.updates
            or self.learner.episodes
            or not _MEMO_OWNER
            or _MEMO_OWNER[-1] != os.getpid()
        ):
            return None
        return (
            self.adl.name,
            self.adl.steps,
            self.actions,
            self.config,
            pickle.dumps(self._rng.bit_generator.state),
            tuple(map(tuple, episodes)),
            tuple(routine.step_ids),
        )

    def _replay(
        self, episodes: Sequence[Sequence[int]], routine: Routine
    ) -> LearningCurve:
        """Replay every episode through the learner, recording the curve."""
        reward_fn = CoReDAReward(self.config, routine.terminal_step_id)
        kernel = fused_kernel(self.learner)
        if kernel is not None:
            scores = self._replay_fused(kernel, episodes, routine, reward_fn)
        else:
            scores = self._replay_per_step(episodes, routine, reward_fn)
        scores = list(scores)
        behaviour = [accuracy for accuracy, _, _ in scores]
        window = self.SMOOTHING_WINDOW
        return LearningCurve(
            behaviour_accuracy=behaviour,
            # The rolling mean over each prefix's last ``window`` values.
            smoothed_accuracy=[
                sum(behaviour[max(0, end - window):end]) / min(end, window)
                for end in range(1, len(behaviour) + 1)
            ],
            greedy_accuracy=[greedy for _, greedy, _ in scores],
            minimal_fraction=[minimal for _, _, minimal in scores],
        )

    def _replay_fused(
        self,
        kernel,
        episodes: Sequence[Sequence[int]],
        routine: Routine,
        reward_fn: CoReDAReward,
    ) -> Iterator[Tuple[float, float, float]]:
        """The whole replay and probe in one call of the learner's
        :func:`fused_kernel`."""
        plans: Dict[Tuple[int, ...], tuple] = {}
        for episode in episodes:
            key = tuple(episode)
            if key not in plans:
                plans[key] = _episode_plan(
                    self._episode_states(key), self.actions, reward_fn
                )
        probe = self._probe_rows(routine)
        size = len(probe[0])
        counts = kernel(
            self.learner,
            self.actions,
            [plans[tuple(episode)] for episode in episodes],
            self._rng,
            probe=probe if size else None,
        )
        for followed, total, hits, marks in counts:
            yield (
                followed / total if total else 1.0,
                hits / size if size else 1.0,
                marks / size if size else 1.0,
            )

    def _replay_per_step(
        self,
        episodes: Sequence[Sequence[int]],
        routine: Routine,
        reward_fn: CoReDAReward,
    ) -> Iterator[Tuple[float, float, float]]:
        """Per-transition replay and probe, for every other learner."""
        for iteration, episode in enumerate(episodes):
            correct, total = replay_episode(
                self.learner, self.actions, episode, reward_fn, self._rng,
                iteration, states=self._episode_states(tuple(episode)),
            )
            yield (correct / total if total else 1.0,
                   *self._probe_greedy(routine))

    def _episode_states(self, key: Tuple[int, ...]) -> List[PlanningState]:
        """The cached state trajectory of one logged episode."""
        states = self._states_cache.get(key)
        if states is None:
            states = episode_states(key)
            self._states_cache[key] = states
        return states

    def _probe_rows(self, routine: Routine) -> tuple:
        """``(states, hits, marks)``: per probe state and action, the
        prompt names the routine's next tool / is MINIMAL."""
        states = episode_states(list(routine.step_ids))
        minimal = [
            action.level is ReminderLevel.MINIMAL for action in self.actions
        ]
        return (
            states[:-1],
            [[action.tool_id == after.current for action in self.actions]
             for after in states[1:]],
            [minimal] * (len(states) - 1),
        )

    def _probe_greedy(self, routine: Routine) -> Tuple[float, float]:
        """Greedy accuracy and minimal-level fraction on the routine.

        Probes all routine states with a prebound argmax prober when
        the learner's ``q`` is a dense Q-table; per-state
        ``greedy_action`` otherwise (Double Q's mean view, custom
        learners passed to the trainer).
        """
        key = tuple(routine.step_ids)
        if self._probe_cache is None or self._probe_cache[0] != key:
            probe = self._probe_rows(routine)
            prober = None
            q = getattr(self.learner, "q", None)
            if type(q) is DenseQTable and probe[0]:
                prober = q.argmax_prober(probe[0], self.actions)
            self._probe_cache = (key, probe, prober)
        _, (states, hits, marks), prober = self._probe_cache
        total = len(states)
        if total <= 0:
            return 1.0, 1.0
        if prober is not None:
            chosen = prober()
        else:
            chosen = [
                self.actions.index(
                    self.learner.greedy_action(state, self.actions)
                )
                for state in states
            ]
        return (
            sum(hit[j] for hit, j in zip(hits, chosen)) / total,
            sum(mark[j] for mark, j in zip(marks, chosen)) / total,
        )
