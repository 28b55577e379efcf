"""Dyna-Q: the paper's "fast learning" future-work item, implemented.

The paper (section 4, challenge 2) notes CoReDA "spends a relatively
long time to learn the routine" and asks for a faster algorithm.
Dyna-Q [Sutton 1990] learns a tabular world model from the same
transitions and performs extra *planning* updates against the model
after every real step, multiplying the value of each observed episode.
The ablation bench shows the reduction in iterations-to-converge.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.rl.dense import DenseQTable, _make_gather
from repro.rl.policies import EpsilonGreedyPolicy, Policy
from repro.rl.schedules import ConstantSchedule, Schedule

__all__ = ["DynaQLearner"]

State = Hashable
Action = Hashable

class DynaQLearner:
    """Tabular Dyna-Q with a deterministic-latest world model.

    The model stores, per (state, action), the most recent observed
    outcome -- adequate for the near-deterministic routine MDPs of
    ADL guidance and intentionally simple.  ``planning_steps`` model
    sweeps run after each real update over uniformly sampled known
    pairs.
    """

    def __init__(
        self,
        learning_rate=0.2,
        discount: float = 0.9,
        planning_steps: int = 10,
        policy: Optional[Policy] = None,
        initial_q: float = 0.0,
    ) -> None:
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        if planning_steps < 0:
            raise ValueError("planning_steps must be >= 0")
        if isinstance(learning_rate, Schedule):
            self.learning_rate_schedule: Schedule = learning_rate
        else:
            self.learning_rate_schedule = ConstantSchedule(float(learning_rate))
        # Constant learning rates (the common case) skip the schedule
        # call on every transition.
        self._alpha_const = (
            self.learning_rate_schedule.constant
            if type(self.learning_rate_schedule) is ConstantSchedule
            else None
        )
        self.discount = float(discount)
        self.planning_steps = int(planning_steps)
        self.policy: Policy = policy if policy is not None else EpsilonGreedyPolicy(0.2)
        self.q = DenseQTable(initial_q)
        # The model is a list of outcome records so the planning sweep
        # samples by position without re-hashing keys; ``_model`` maps
        # an interned (state_id, action_id) key to its position for
        # deduplication.  Each record carries interned ids and the
        # cached action view, so every planning update runs against
        # the flat buffer with no hashing at all.
        self._model: Dict[Tuple[int, int], int] = {}
        self._outcomes: List[list] = []
        self.updates = 0
        self.planning_updates = 0
        self.episodes = 0

    def begin_episode(self) -> None:
        """Episode boundary (kept for learner-interface symmetry)."""
        self.episodes += 1

    def select_action(
        self,
        state: State,
        actions: Sequence[Action],
        rng: np.random.Generator,
        step: int = 0,
    ) -> Tuple[Action, bool]:
        """Behaviour-policy action for ``state``."""
        return self.policy.select(self.q, state, actions, rng, step=step)

    def greedy_action(self, state: State, actions: Sequence[Action]) -> Action:
        """The current greedy action."""
        return self.q.best_action(state, actions)

    def greedy_actions(
        self, states: Sequence[State], actions: Sequence[Action]
    ) -> Sequence[Action]:
        """Greedy action per state (one batched argmax)."""
        return self.q.best_actions(states, actions)

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
        # The step counter advances once per observed transition, so
        # the schedule value is shared by the real update and every
        # planning update of this transition (schedules are pure
        # functions of the step).
        alpha = self._alpha_const
        if alpha is None:
            alpha = self.learning_rate_schedule.value(self.updates)
        q = self.q
        index = q.index
        sid = q._state_ids.get(state)
        if sid is None:
            sid = index.state_id(state)
        aid = q._action_ids.get(action)
        if aid is None:
            aid = index.action_id(action)
        next_sid = q._state_ids.get(next_state)
        if next_sid is None:
            next_sid = index.state_id(next_state)
        # Records are mutable lists [sid, aid, reward, next_sid, view,
        # done, gather, offset, grow_count]: the last three memoise
        # the stride-dependent pieces and are revalidated against
        # ``q._grow_count`` on every use (``gather`` stays None for
        # terminal/actionless records, whose target is just the
        # reward).
        record = [
            sid, aid, reward, next_sid, q._view(next_tuple), done,
            None, 0, -1,
        ]
        delta = self._q_update(record, alpha)
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
            self._plan(rng, alpha)
        self.updates += 1
        return delta

    def _plan(self, rng: np.random.Generator, alpha: float) -> None:
        outcomes = self._outcomes
        n = len(outcomes)
        # One batched draw consumes the generator's bit stream exactly
        # like the equivalent sequence of scalar draws (pinned down in
        # tests), so the planning sample sequence is unchanged -- the
        # updates in between never touch the generator.
        picks = rng.integers(n, size=self.planning_steps).tolist()
        # Inlined :meth:`_q_update` minus the capacity guard: every
        # record's ids were in range when its observe ran the guarded
        # real update, and the table never shrinks, so the sweep can
        # hold the flat buffer across iterations.  ``written`` needs
        # no store here: every record's pair was marked written by its
        # real-step update in observe.
        q = self.q
        discount = self.discount
        if q._frozen:
            q._thaw()
        flat = q._flat
        grows = q._grow_count
        refresh = self._refresh_record
        for i in picks:
            r = outcomes[i]
            if r[8] != grows:
                refresh(r)
            g = r[6]
            if g is None:
                target = r[2]
            else:
                values = g(flat)
                target = r[2] + discount * max(values)
            off = r[7]
            flat[off] = flat[off] + alpha * (target - flat[off])
        q._array = None
        q.version += 1
        self.planning_updates += self.planning_steps

    def _q_update(self, record: list, alpha: float) -> float:
        """One Q update straight against the dense flat buffer.

        ``record`` carries interned ids and the cached action view, so
        the update pays no hashing and no repr sorting.  The scalar
        operations (max over the given-order values, one subtract, one
        multiply-add) are exactly those of the table-API update in
        ``tests/oracles/rl.py``, so the two are bit-identical.
        """
        q = self.q
        view = record[4]
        if (
            record[0] >= q._rows
            or record[3] >= q._rows
            or record[1] >= q._cols
            or view.max_id >= q._cols
        ):
            q._grow()
        if q._frozen:
            q._thaw()
        flat = q._flat
        if record[8] != q._grow_count:
            self._refresh_record(record)
        g = record[6]
        if g is None:
            target = record[2]
        else:
            target = record[2] + self.discount * max(g(flat))
        off = record[7]
        delta = target - flat[off]
        flat[off] = flat[off] + alpha * delta
        q._written[off] = 1
        q._array = None
        q.version += 1
        return delta

    def _refresh_record(self, record: list) -> None:
        """Recompute a dense record's stride-dependent memo fields."""
        q = self.q
        cols = q._cols
        ids = record[4].ids_list
        if record[5] or not ids:
            record[6] = None
        else:
            base = record[3] * cols
            record[6] = _make_gather([base + a for a in ids])
        record[7] = record[0] * cols + record[1]
        record[8] = q._grow_count

    @property
    def model_size(self) -> int:
        """Number of (state, action) pairs in the learned model."""
        return len(self._model)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynaQLearner(planning_steps={self.planning_steps}, "
            f"model={len(self._model)}, updates={self.updates})"
        )
