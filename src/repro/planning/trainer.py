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
from functools import partial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adl import ADL, ReminderLevel, Routine
from repro.core.config import PlanningConfig
from repro.planning.action import PromptAction, action_space
from repro.planning.rewards_coreda import CoReDAReward
from repro.planning.state import PlanningState, episode_states
from repro.rl.convergence import convergence_iteration
from repro.rl.dense import EXPECTED, SARSA, replay_dyna, replay_watkins
from repro.rl.dyna import DynaQLearner
from repro.rl.expected_sarsa import ExpectedSarsaLearner
from repro.rl.sarsa import SarsaLambdaLearner
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
    """The fused episode kernel that trains ``learner``.

    :func:`~repro.rl.dense.replay_watkins` for a ``TDLambdaQLearner``,
    and with its Expected SARSA or SARSA(λ) bootstrap bound for an
    ``ExpectedSarsaLearner`` or a ``SarsaLambdaLearner``;
    :func:`~repro.rl.dense.replay_dyna` for a ``DynaQLearner``.  The
    kernels inline ``select_action`` and ``observe``, so dispatch is
    on exact types, and any other learner -- ``DoubleQLearner``, a
    subclass -- is refused with ``TypeError``: its per-transition loop
    is a test oracle, not a training path.  The kernel is looked up
    per call, so a test may wrap the module-level name.
    """
    kind = type(learner)
    if kind is TDLambdaQLearner:
        return replay_watkins
    if kind is ExpectedSarsaLearner:
        return partial(replay_watkins, bootstrap=EXPECTED)
    if kind is SarsaLambdaLearner:
        return partial(replay_watkins, bootstrap=SARSA)
    if kind is DynaQLearner:
        return replay_dyna
    raise TypeError(f"no fused training kernel for {kind.__name__}")


def replay_episode(
    learner,
    actions: Sequence[PromptAction],
    episode: Sequence[int],
    reward_fn: CoReDAReward,
    rng: np.random.Generator,
    iteration: int = 0,
) -> Tuple[int, int]:
    """Replay one logged episode through a learner's fused kernel.

    The behaviour policy chooses a prompt per transition and the
    CoReDA reward scores it against the observed next step; for
    TD(λ), a prompt that was not followed is off-target (strict
    Watkins cut).  Returns ``(correct_prompts, total_prompts)``.  A
    learner with no :func:`fused_kernel` is refused before anything
    is drawn.

    Shared by offline training (:class:`RoutineTrainer`) and online
    adaptation (:class:`repro.planning.online.OnlineAdaptation`).
    """
    kernel = fused_kernel(learner)
    plan = _episode_plan(episode_states(list(episode)), actions, reward_fn)
    ((correct, total, _, _),) = kernel(learner, actions, [plan], rng, iteration)
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
    ``config``; a :class:`~repro.rl.dyna.DynaQLearner`,
    :class:`~repro.rl.sarsa.SarsaLambdaLearner` or
    :class:`~repro.rl.expected_sarsa.ExpectedSarsaLearner` may be
    passed for the ablations.  Every training runs through the
    learner's :func:`fused_kernel`; :meth:`train` refuses any other
    learner before it draws or counts an episode.
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
        """Replay every episode and probe the greedy policy after each,
        all in one call of the learner's :func:`fused_kernel`."""
        kernel = fused_kernel(self.learner)
        reward_fn = CoReDAReward(self.config, routine.terminal_step_id)
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
        behaviour = [
            followed / total if total else 1.0 for followed, total, _, _ in counts
        ]
        window = self.SMOOTHING_WINDOW
        return LearningCurve(
            behaviour_accuracy=behaviour,
            # The rolling mean over each prefix's last ``window`` values.
            smoothed_accuracy=[
                sum(behaviour[max(0, end - window):end]) / min(end, window)
                for end in range(1, len(behaviour) + 1)
            ],
            greedy_accuracy=[
                hits / size if size else 1.0 for _, _, hits, _ in counts
            ],
            minimal_fraction=[
                marks / size if size else 1.0 for _, _, _, marks in counts
            ],
        )

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
