"""Online adaptation: "learning update all the while" (paper §3.2).

    "Actually, we can set the parameters (converging condition,
    learning rate, etc.) to make the learning update all the while
    instead of converging.  By doing this, CoReDA can always learn
    the newest routines of a user."

:class:`OnlineAdaptation` implements that always-adapting mode: it
watches the live step stream on the event bus, and every time the
terminal step of the ADL is reached it replays the just-observed
episode through the *same* learner whose Q-table the deployed
predictor reads -- so a user who changes their routine re-trains the
system simply by living their new routine for a handful of episodes.

It also keeps a drift signal: the fraction of recent transitions the
greedy policy predicted correctly *before* learning from them.  A
sustained drop means the user's behaviour has moved away from the
learned routine (the paper's motivation for this mode: dementia
routines deteriorate).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.core.adl import ADL, IDLE_STEP_ID
from repro.core.bus import EventBus
from repro.core.config import PlanningConfig
from repro.core.events import StepEvent
from repro.planning.action import PromptAction, action_space
from repro.planning.rewards_coreda import CoReDAReward
from repro.planning.state import episode_states
from repro.planning.trainer import replay_episode
from repro.sim.random import seeded_generator

__all__ = ["OnlineAdaptation"]


class OnlineAdaptation:
    """Continual learning from live episodes.

    ``learner`` must be the learner behind the deployed predictor
    (after ``CoReDA.train_offline`` that is ``system.training.learner``)
    so that adaptation is visible to guidance immediately.  The
    learner then explores at a constant ``epsilon``: an ε decayed to
    zero would freeze the rule-out dynamics the adaptation relies on.
    """

    def __init__(
        self,
        adl: ADL,
        learner,
        config: Optional[PlanningConfig] = None,
        rng: Optional[np.random.Generator] = None,
        epsilon: float = 0.1,
        drift_window: int = 12,
    ) -> None:
        if drift_window < 1:
            raise ValueError("drift_window must be >= 1")
        self.adl = adl
        self.learner = learner
        self.config = config if config is not None else PlanningConfig()
        self._rng = rng if rng is not None else seeded_generator(0)
        # A tuple: the dense Q-table caches the repr-sort order of an
        # action set by tuple identity, so replaying every episode
        # with the same tuple keeps the argmax path allocation-free.
        self.actions: Tuple[PromptAction, ...] = tuple(action_space(adl))
        # The config's domain table checks ε.
        learner.epsilon = replace(self.config, epsilon=epsilon).epsilon
        learner.epsilon_decay = 1.0
        self._current_episode: List[int] = []
        self._recent_hits: Deque[bool] = deque(maxlen=drift_window)
        self.episodes_learned = 0
        self.transitions_seen = 0

    def attach(self, bus: EventBus) -> "OnlineAdaptation":
        """Subscribe to the live step stream; returns self."""
        bus.subscribe(StepEvent, self.on_step)
        return self

    def on_step(self, event: StepEvent) -> None:
        """Collect live steps; learn whenever the ADL completes."""
        if event.step_id == IDLE_STEP_ID:
            return
        self._current_episode.append(event.step_id)
        if event.step_id == self.adl.terminal_step_id:
            self._finish_episode()

    def _finish_episode(self) -> None:
        episode = self._current_episode
        self._current_episode = []
        if len(episode) < 2:
            return
        self._score_drift(episode)
        reward_fn = CoReDAReward(self.config, episode[-1])
        replay_episode(
            self.learner,
            self.actions,
            episode,
            reward_fn,
            self._rng,
            iteration=self.episodes_learned,
        )
        self.episodes_learned += 1

    def _score_drift(self, episode: List[int]) -> None:
        """Record greedy-prediction hits *before* learning from them."""
        states = episode_states(episode)
        for index in range(len(states) - 1):
            greedy = self.learner.greedy_action(states[index], self.actions)
            self._recent_hits.append(greedy.tool_id == states[index + 1].current)
            self.transitions_seen += 1

    @property
    def recent_accuracy(self) -> Optional[float]:
        """Greedy accuracy over the recent drift window (None = no data).

        A sustained value well below 1.0 signals the user's routine
        has drifted from the learned one and adaptation is underway.
        """
        if not self._recent_hits:
            return None
        return sum(self._recent_hits) / len(self._recent_hits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OnlineAdaptation({self.adl.name!r}, "
            f"episodes_learned={self.episodes_learned})"
        )
