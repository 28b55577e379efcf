"""Dyna-Q: the paper's "fast learning" future-work item, implemented.

The paper (section 4, challenge 2) notes CoReDA "spends a relatively
long time to learn the routine" and asks for a faster algorithm.
Dyna-Q [Sutton 1990] learns a tabular world model from the same
transitions and performs extra *planning* updates against the model
after every real step, multiplying the value of each observed episode.
The ablation bench shows the reduction in iterations-to-converge.
"""

from __future__ import annotations

from numbers import Integral
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PlanningConfig
from repro.core.errors import ConfigurationError
from repro.rl.dense import _ActionView
from repro.rl.learner import TabularLearner

__all__ = ["DynaQLearner"]

State = Hashable
Action = Hashable

#: One model entry: (state id, action id, reward, next state id, next
#: action view or None when the outcome has no successor actions).
_Record = Tuple[int, int, float, int, Optional[_ActionView]]


class DynaQLearner(TabularLearner):
    """Tabular Dyna-Q with a deterministic-latest world model.

    The model stores, per (state, action), the most recent observed
    outcome -- adequate for the near-deterministic routine MDPs of
    ADL guidance and intentionally simple.  ``planning_steps`` model
    sweeps run after each real update over uniformly sampled known
    pairs.
    """

    def __init__(
        self, config: PlanningConfig, planning_steps: int = 10
    ) -> None:
        if (
            not isinstance(planning_steps, Integral)
            or isinstance(planning_steps, bool)
            or planning_steps < 0
        ):
            raise ConfigurationError(
                "planning_steps must be an integer in [0, inf), "
                f"got {planning_steps!r}"
            )
        super().__init__(config)
        self.planning_steps = int(planning_steps)
        # The model is a list of outcome records so the planning sweep
        # samples by position without re-hashing keys; ``_model`` maps
        # an interned (state_id, action_id) key to its position for
        # deduplication.  Each record carries interned ids and the
        # cached action view, so every planning update runs on the
        # table's id-level API with no hashing at all.
        self._model: Dict[Tuple[int, int], int] = {}
        self._outcomes: List[_Record] = []
        self.planning_updates = 0

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
        """One real Q-learning update + ``planning_steps`` model sweeps.

        ``exploratory`` is accepted (and ignored) so Dyna-Q is a
        drop-in replacement for the TD(λ) learner in the trainer.
        Returns the real-step TD error.
        """
        next_tuple = (
            next_actions
            if type(next_actions) is tuple
            else tuple(next_actions)
        )
        sid, aid, next_sid, view = self.q.locate(
            state, action, next_state, next_tuple
        )
        # ``view`` is None for terminal and actionless records, whose
        # target is just the reward.
        record = (
            sid, aid, reward, next_sid,
            None if done or not view.ids_list else view,
        )
        delta = self._q_update(record)
        # Interned ids hash as plain ints -- much cheaper model keys
        # than (state, action) namedtuple pairs, and nothing reads the
        # model's keys back.
        key = (sid, aid)
        pos = self._model.get(key)
        if pos is None:
            self._model[key] = len(self._outcomes)
            self._outcomes.append(record)
        else:
            self._outcomes[pos] = record
        if rng is not None and self.planning_steps > 0:
            self._plan(rng)
        self.updates += 1
        return delta

    def _plan(self, rng: np.random.Generator) -> None:
        outcomes = self._outcomes
        n = len(outcomes)
        # One batched draw consumes the generator's bit stream exactly
        # like the equivalent sequence of scalar draws (pinned down in
        # tests), so the planning sample sequence is unchanged -- the
        # updates in between never touch the generator.  Every
        # record's ids were in range when its observe ran the guarded
        # real update, and the table never shrinks.
        for i in rng.integers(n, size=self.planning_steps).tolist():
            self._q_update(outcomes[i])
        self.planning_updates += self.planning_steps

    def _q_update(self, record: _Record) -> float:
        """One Q update of a model record, on the table's id-level API.

        ``record`` carries interned ids and the cached action view, so
        the update pays no hashing and no repr sorting.  The scalar
        operations (max over the given-order values, one subtract, one
        multiply-add) are exactly those of the table-API update in
        ``tests/oracles/rl.py``, so the two are bit-identical.
        """
        q = self.q
        sid, aid, reward, next_sid, view = record
        if view is None:
            target = reward
        else:
            target = reward + self.discount * max(q.row_values(next_sid, view))
        delta = target - q.value_at(sid, aid)
        q.add_at(sid, aid, self.learning_rate * delta)
        return delta

    @property
    def model_size(self) -> int:
        """Number of (state, action) pairs in the learned model."""
        return len(self._model)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynaQLearner(planning_steps={self.planning_steps}, "
            f"model={len(self._model)}, updates={self.updates})"
        )
