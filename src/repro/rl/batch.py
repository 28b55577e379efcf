"""Greedy-policy tables: precomputed readouts over a trained Q-table.

A deployed predictor answers the same question thousands of times per
simulated day -- "greedy action in state ⟨previous, current⟩?" --
against a Q-table that no longer changes (or changes only at episode
boundaries under online adaptation).  Recomputing the argmax per call
repays the same work over and over; the classes here compute it once
and revalidate cheaply:

* :class:`GreedyPolicyTable` -- the full greedy policy of a
  :class:`~repro.rl.dense.DenseQTable` as one ``(n_states,)`` vector
  of action indices, built by a single row-indexed ``argmax`` over
  the dense buffer's NumPy mirror and rebuilt whenever the table's
  monotone ``version`` counter moves.  A lookup is one dict probe
  (state -> interned id) plus one array index.
* :class:`ShardPredictor` -- a frozen, shareable predictor facade for
  the fleet's shared-kernel shards: one eagerly-built policy table per
  distinct training per shard, so per-step prediction inside the
  shared kernel is a single array index, not a ``best_action`` call.

The contract, as everywhere in this codebase: **byte-identity** with
a per-call ``best_action``.  ``np.argmax`` returns the first maximum,
the policy tables argmax over the same repr-sorted action order as
``best_action``, and a state the table has never interned maps to the
first action in repr order -- exactly what ``best_action`` computes
for an all-initial-value row.  ``tests/test_rl_batch.py`` pins this
down.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.rl.dense import DenseQTable

__all__ = ["GreedyPolicyTable", "ShardPredictor"]

State = Hashable
Action = Hashable


class GreedyPolicyTable:
    """The full greedy policy of a dense table as one argmax vector.

    ``lookup(state)`` returns exactly what ``q.best_action(state,
    actions)`` would (same repr-order tie-breaking), without interning
    unseen states and without per-call gathers.  The table is rebuilt
    lazily whenever the underlying Q-table's ``version`` moves, so it
    is safe under continued learning -- just fastest when the table is
    frozen (the deployed-predictor case).
    """

    __slots__ = (
        "q",
        "actions",
        "_view",
        "_state_ids",
        "_table",
        "_version",
        "_n_states",
    )

    def __init__(self, q: DenseQTable, actions: Sequence[Action]) -> None:
        self.q = q
        self.actions: Tuple[Action, ...] = tuple(actions)
        view = q.index.view(self.actions)
        if not view.sorted_ids_list:
            raise ValueError("policy table needs a non-empty action space")
        self._view = view
        self._state_ids = q.index._state_ids
        self._table: Optional[np.ndarray] = None
        self._version = -1
        self._n_states = 0

    def _rebuild(self) -> None:
        q = self.q
        view = self._view
        n_states = q.index.n_states
        if n_states:
            block = q.as_array()[:n_states][:, view.sorted_ids]
            self._table = block.argmax(axis=1)
        else:
            self._table = np.empty(0, dtype=np.intp)
        self._n_states = n_states
        self._version = q.version

    def lookup(self, state: State) -> Action:
        """The greedy action for ``state`` (= ``q.best_action``)."""
        if self._version != self.q.version:
            self._rebuild()
        sid = self._state_ids.get(state)
        if sid is None or sid >= self._n_states:
            # Never interned (or interned after the last write): every
            # Q-value is the initial value, so the first action in
            # repr order wins -- best_action's exact pick.
            return self._view.sorted_actions[0]
        return self._view.sorted_actions[self._table[sid]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GreedyPolicyTable(states={self._n_states}, "
            f"actions={len(self.actions)})"
        )


class ShardPredictor:
    """A frozen, shareable next-step predictor for batched shards.

    Wraps a trained predictor (anything exposing ``q``, ``actions``
    and ``converged``) over a :class:`~repro.rl.dense.DenseQTable`
    behind an eagerly-built :class:`GreedyPolicyTable`:
    a shared-kernel shard resolves one predictor per distinct
    training key and serves every shard-mate from it, so the policy
    table is computed once per shard and each per-step prediction
    inside the shared kernel is a single array index.

    Predictions are byte-identical to the wrapped predictor's -- the
    policy table guarantees it -- and the wrapped predictor
    stays reachable via ``inner`` for persistence helpers.
    """

    __slots__ = ("inner", "q", "actions", "converged", "_policy")

    def __init__(self, predictor) -> None:
        self.inner = predictor
        self.q = predictor.q
        self.actions: Tuple[Action, ...] = tuple(predictor.actions)
        self.converged = predictor.converged
        if type(self.q) is not DenseQTable:
            raise TypeError(
                f"cannot build a shard policy table over {type(self.q).__name__}"
            )
        self._policy = GreedyPolicyTable(self.q, self.actions)

    def precompute(self) -> "ShardPredictor":
        """Build the full argmax vector now (off the simulated clock).

        Returns ``self`` for chaining.
        """
        policy = self._policy
        if policy._version != policy.q.version:
            policy._rebuild()
        return self

    def predict(self, state) -> Action:
        """The prompt for ``state`` = ⟨previous StepID, current StepID⟩."""
        return self._policy.lookup(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardPredictor(actions={len(self.actions)}, "
            f"converged={self.converged})"
        )
