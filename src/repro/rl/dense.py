"""Indexed dense Q storage for the tabular RL stack.

A dict keyed by ``(state, action)`` pays, on every argmax, a fresh
``sorted(actions, key=repr)`` (string formatting per action) and one
dict probe per action with tuple-of-namedtuple hashing -- and the
trainer probes the greedy policy over the whole routine every
iteration, so that cost would dominate every training-bound
experiment cell.  This module is the Q storage every learner uses:

* :class:`StateActionIndex` interns states and actions to dense
  integer ids and computes each action set's repr-sort order **once**,
  the deterministic tie-breaking order of a repr-sorted argmax;
* :class:`DenseQTable` stores Q row-major in one flat buffer indexed
  by ``state_id * stride + action_id``; per-state reads are cached
  C-speed ``itemgetter`` gathers in two lanes, given order
  (:meth:`~DenseQTable.row_values`) and repr order
  (:meth:`~DenseQTable.sorted_row_values`).  At routine scale a Python
  list index costs ~0.05us against ~0.36us for a NumPy scalar
  ``arr[i, j] += x``: the dense win comes from interning away
  repr-sorting and dict hashing;
* :class:`DenseTraces` keeps the active eligibility traces as flat
  id-pair vectors so a TD(λ) sweep applies ``Q[active] += coef *
  e[active]`` over precomputed offsets with no hashing and no
  snapshot copy;
* :func:`replay_watkins` fuses a TD learner's whole episode --
  ε-greedy selection, TD update with the learner's bootstrap rule
  (Watkins Q(λ), Expected SARSA or SARSA(λ)), trace sweep -- and the
  trainer's greedy probe into one loop over interned ids;
  :func:`replay_dyna` does the same for Dyna-Q -- ε-greedy selection,
  one-step update, model write, planning sweep.  They are the only
  way the package trains a learner, and they live here
  because only this module may touch the table's buffers, and draw
  through :func:`repro.sim.random.generator_draws`, which decodes a
  PCG64 generator's raw words rather than pay numpy's dispatch per
  draw.

The contract: training on these tables is **byte-identical** to the
plain dict Q-table and table-API learner updates kept as the oracle in
``tests/oracles/rl.py`` -- the same IEEE-754 operations in an order
whose regrouping is value-exact (elementwise multiply/add per
independent pair, first-max argmax over the same repr order), so
Q-values, learning curves, convergence iterations, RNG draw sequences
and cached training documents come out bit-for-bit equal.
``tests/test_rl_dense.py`` pins that down per learner and seed.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.random import generator_draws

__all__ = [
    "EXPECTED",
    "MAX",
    "SARSA",
    "StateActionIndex",
    "DenseQTable",
    "DenseTraces",
    "replay_dyna",
    "replay_watkins",
]

State = Hashable
Action = Hashable

#: Identity-cache entries kept before the cache is dropped wholesale
#: (guards against callers that build a fresh actions tuple per call).
_IDENTITY_CACHE_LIMIT = 256


def _gather_one(offset: int, seq: Sequence[float]) -> Tuple[float]:
    return (seq[offset],)


def _make_gather(offsets: List[int]):
    """A C-speed gather: ``flat -> (flat[off] for off in offsets)``.

    ``operator.itemgetter`` replaces the per-element interpreter loop
    with one C call; a single offset is bound to a module-level
    function instead, so callers always get a tuple back and every
    gather pickles.
    """
    if len(offsets) == 1:
        return partial(_gather_one, offsets[0])
    return itemgetter(*offsets)


class _ActionView:
    """One interned action sequence with its precomputed orders."""

    __slots__ = (
        "actions",
        "ids_list",
        "sorted_ids",
        "sorted_ids_list",
        "sorted_actions",
        "sorted_order",
        "max_id",
    )

    def __init__(
        self,
        actions: Tuple[Action, ...],
        ids_list: List[int],
        sorted_order: List[int],
        sorted_actions: Tuple[Action, ...],
    ) -> None:
        self.actions = actions
        self.ids_list = ids_list
        #: Given-order position of each repr-order position.
        self.sorted_order = sorted_order
        sorted_ids_list = [ids_list[i] for i in sorted_order]
        self.sorted_ids_list = sorted_ids_list
        self.sorted_actions = sorted_actions
        self.sorted_ids = np.array(sorted_ids_list, dtype=np.intp)
        self.max_id = max(ids_list) if ids_list else -1


class StateActionIndex:
    """Interns states/actions to dense ids; append-only, shareable.

    The repr-sort order of an action sequence -- the argmax
    tie-breaking order -- is computed once per distinct sequence and
    cached, first by tuple identity (the trainers pass the same
    actions tuple on every call) and then by value.
    """

    __slots__ = (
        "states",
        "actions",
        "_state_ids",
        "_action_ids",
        "_views",
        "_views_by_identity",
    )

    def __init__(self) -> None:
        #: id -> state, in interning order.
        self.states: List[State] = []
        #: id -> action, in interning order.
        self.actions: List[Action] = []
        self._state_ids: Dict[State, int] = {}
        self._action_ids: Dict[Action, int] = {}
        self._views: Dict[Tuple[Action, ...], _ActionView] = {}
        self._views_by_identity: Dict[int, Tuple[Sequence[Action], _ActionView]] = {}

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_id(self, state: State) -> int:
        """The dense id of ``state``, interning it on first sight."""
        sid = self._state_ids.get(state)
        if sid is None:
            sid = len(self.states)
            self._state_ids[state] = sid
            self.states.append(state)
        return sid

    def action_id(self, action: Action) -> int:
        """The dense id of ``action``, interning it on first sight."""
        aid = self._action_ids.get(action)
        if aid is None:
            aid = len(self.actions)
            self._action_ids[action] = aid
            self.actions.append(action)
        return aid

    def view(self, actions: Sequence[Action]) -> _ActionView:
        """The cached :class:`_ActionView` for ``actions``.

        Tuples are additionally cached by object identity (with a
        strong reference, so the id cannot be recycled); mutable
        sequences always take the value-keyed path.
        """
        if type(actions) is tuple:
            cached = self._views_by_identity.get(id(actions))
            if cached is not None and cached[0] is actions:
                return cached[1]
        key = tuple(actions)
        view = self._views.get(key)
        if view is None:
            ids = [self.action_id(a) for a in key]
            # Stable sort by repr = the argmax tie-break order.
            order = sorted(range(len(key)), key=lambda i: repr(key[i]))
            sorted_actions = tuple(key[i] for i in order)
            view = _ActionView(key, ids, order, sorted_actions)
            self._views[key] = view
        if type(actions) is tuple:
            if len(self._views_by_identity) >= _IDENTITY_CACHE_LIMIT:
                self._views_by_identity.clear()
            self._views_by_identity[id(actions)] = (actions, view)
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateActionIndex(states={len(self.states)}, "
            f"actions={len(self.actions)})"
        )


class DenseQTable:
    """Dense ``(state, action) -> value`` table over indexed storage.

    Default initial value, repr-order tie-breaking, loud empty-action
    errors, ``known_pairs`` over the written support.  Values live
    row-major in one flat buffer (``offset = state_id * stride +
    action_id``); :meth:`as_array` exposes the same data as a NumPy
    matrix, rebuilt lazily after writes.  Tables may share one
    :class:`StateActionIndex` (Double Q-learning does).
    """

    __slots__ = (
        "initial_value",
        "index",
        "version",
        "_flat",
        "_written",
        "_rows",
        "_cols",
        "_array",
        "_state_ids",
        "_action_ids",
        "_last_actions",
        "_last_view",
        "_g0_view",
        "_g0",
        "_g1_view",
        "_g1",
        "_grow_count",
    )

    def __init__(
        self,
        initial_value: float = 0.0,
        index: Optional[StateActionIndex] = None,
    ) -> None:
        self.initial_value = float(initial_value)
        self.index = index if index is not None else StateActionIndex()
        #: Monotone write counter, bumped on every write; the greedy
        #: policy tables of :mod:`repro.rl.batch` revalidate against it.
        self.version = 0
        self._flat: List[float] = []
        self._written = bytearray()
        self._rows = 0
        self._cols = 0
        self._array: Optional[np.ndarray] = None
        # Hot-path shortcuts: the index's intern dicts are mutated in
        # place and never replaced, so the table can probe them with
        # one dict.get and fall back to the interning method only on
        # first sight.  ``_last_actions`` is a one-entry view cache --
        # the trainers pass the same actions tuple on every call.
        self._state_ids = self.index._state_ids
        self._action_ids = self.index._action_ids
        self._last_actions: Optional[Tuple[Action, ...]] = None
        self._last_view: Optional[_ActionView] = None
        # The gather lanes: almost every hot call uses one action
        # view, so the per-row itemgetters for that view live in
        # int-keyed dicts (``_g0`` given order, ``_g1`` repr order),
        # reset when the view changes.  Offsets bake in the stride, so
        # _grow resets both and bumps ``_grow_count`` for the prober.
        self._g0_view: Optional[_ActionView] = None
        self._g0: Dict[int, object] = {}
        self._g1_view: Optional[_ActionView] = None
        self._g1: Dict[int, object] = {}
        self._grow_count = 0

    @classmethod
    def from_buffers(
        cls,
        initial_value: float,
        states: Sequence[State],
        actions: Sequence[Action],
        q2d: np.ndarray,
        written: np.ndarray,
    ) -> "DenseQTable":
        """A table holding a copy of external buffers.

        ``q2d`` is the float64 ``(n_states, n_actions)`` matrix and
        ``written`` its flat uint8 support mask; ``states`` and
        ``actions`` are interned in buffer order, so row/column ids
        line up with the matrix exactly.  Both are copied once into
        the table's own storage, so the buffers may be read-only and
        no write ever reaches them.
        """
        table = cls(float(initial_value))
        index = table.index
        for state in states:
            index.state_id(state)
        for action in actions:
            index.action_id(action)
        rows, cols = q2d.shape
        if rows != len(index.states) or cols != len(index.actions):
            raise ValueError(
                "buffer shape does not match the interned tables"
            )
        if written.shape != (rows * cols,):
            raise ValueError("written mask does not match the Q matrix")
        table._flat = q2d.reshape(-1).tolist()
        table._written = bytearray(written.tobytes())
        table._rows = rows
        table._cols = cols
        return table

    def _view(self, actions: Sequence[Action]) -> _ActionView:
        """The action view, via the one-entry identity cache."""
        if actions is self._last_actions:
            return self._last_view
        view = self.index.view(actions)
        if type(actions) is tuple:
            self._last_actions = actions
            self._last_view = view
        return view

    def _row(
        self, state: State, actions: Sequence[Action]
    ) -> Tuple[int, _ActionView]:
        """``(sid, view)`` for a per-state read, grown to cover both.

        Raises ``ValueError`` on an empty action sequence -- a state
        with no actions is a modelling bug we want loud.
        """
        view = self._view(actions)
        if not view.ids_list:
            raise ValueError(f"no actions available in state {state!r}")
        sid = self._state_ids.get(state)
        if sid is None:
            sid = self.index.state_id(state)
        if sid >= self._rows or view.max_id >= self._cols:
            self._grow()
        return sid, view

    # ------------------------------------------------------------------
    # storage

    def _grow(self) -> None:
        """Grow the buffers to cover everything the index has interned."""
        need_rows = len(self.index.states)
        need_cols = len(self.index.actions)
        rows, cols = self._rows, self._cols
        new_rows = max(rows, 16)
        while new_rows < need_rows:
            new_rows *= 2
        new_cols = max(cols, 8)
        while new_cols < need_cols:
            new_cols *= 2
        if new_rows == rows and new_cols == cols:
            return
        flat = [self.initial_value] * (new_rows * new_cols)
        written = bytearray(new_rows * new_cols)
        old_flat = self._flat
        old_written = self._written
        for r in range(rows):
            src = r * cols
            dst = r * new_cols
            flat[dst:dst + cols] = old_flat[src:src + cols]
            written[dst:dst + cols] = old_written[src:src + cols]
        self._flat = flat
        self._written = written
        self._rows = new_rows
        self._cols = new_cols
        self._array = None
        self._g0_view = None
        self._g0 = {}
        self._g1_view = None
        self._g1 = {}
        self._grow_count += 1

    def _ensure_capacity(self) -> None:
        """Cheap guard: grow if the index outgrew the buffers."""
        if (
            len(self.index.states) > self._rows
            or len(self.index.actions) > self._cols
        ):
            self._grow()

    def as_array(self) -> np.ndarray:
        """The NumPy ``[rows, cols]`` mirror of the flat storage.

        Covers every interned state and action (the buffers grow
        first if the index outgrew them).  Rebuilt lazily after
        writes; do not mutate it -- writes go through the write
        primitives so both layouts agree.
        """
        self._ensure_capacity()
        arr = self._array
        if arr is None:
            arr = np.asarray(self._flat, dtype=np.float64).reshape(
                self._rows, self._cols
            )
            self._array = arr
        return arr

    # ------------------------------------------------------------------
    # table API

    def value(self, state: State, action: Action) -> float:
        """Q(s, a), defaulting to the initial value for unseen pairs."""
        sid = self._state_ids.get(state)
        if sid is None:
            sid = self.index.state_id(state)
        aid = self._action_ids.get(action)
        if aid is None:
            aid = self.index.action_id(action)
        if sid >= self._rows or aid >= self._cols:
            self._grow()
        return self._flat[sid * self._cols + aid]

    def set(self, state: State, action: Action, value: float) -> None:
        """Assign Q(s, a).

        The one element store that is not an add: ``old + (new -
        old)`` does not reproduce ``new`` bit for bit, so assignment
        keeps its own write beside :meth:`add_at`.
        """
        sid, aid, _, _ = self.locate(state, action)
        off = sid * self._cols + aid
        self._flat[off] = float(value)
        self._written[off] = 1
        self._array = None
        self.version += 1

    def add(self, state: State, action: Action, delta: float) -> None:
        """In-place ``Q(s, a) += delta``."""
        sid, aid, _, _ = self.locate(state, action)
        self.add_at(sid, aid, delta)

    # ------------------------------------------------------------------
    # id-level API: the learners' only way into the storage

    def locate(
        self,
        state: State,
        action: Action,
        next_state: Optional[State] = None,
        next_actions: Optional[Sequence[Action]] = None,
    ) -> Tuple[int, int, int, Optional[_ActionView]]:
        """Intern one transition and make the table ready to update it.

        Returns ``(sid, aid, next_sid, view)``: the ids of ``state``
        and ``action``, and -- when ``next_actions`` is given -- the
        id of ``next_state`` and the :class:`_ActionView` of
        ``next_actions`` (``-1`` and ``None`` otherwise).  Interning
        order is state, action, next state, next actions.  One
        capacity guard then covers every id.
        """
        sid = self._state_ids.get(state)
        if sid is None:
            sid = self.index.state_id(state)
        aid = self._action_ids.get(action)
        if aid is None:
            aid = self.index.action_id(action)
        next_sid = -1
        view = None
        if next_actions is not None:
            next_sid = self._state_ids.get(next_state)
            if next_sid is None:
                next_sid = self.index.state_id(next_state)
            view = self._view(
                next_actions
                if type(next_actions) is tuple
                else tuple(next_actions)
            )
        if (
            sid >= self._rows
            or next_sid >= self._rows
            or aid >= self._cols
            or (view is not None and view.max_id >= self._cols)
        ):
            self._grow()
        return sid, aid, next_sid, view

    def row_values(self, sid: int, view: _ActionView) -> Tuple[float, ...]:
        """Row ``sid``'s values over ``view``'s actions, in given order.

        Served by the ``_g0`` gather lane, the same one
        :meth:`max_value` uses.  Ids must be in range (see
        :meth:`locate`).
        """
        if view is self._g0_view:
            g = self._g0.get(sid)
        else:
            self._g0_view = view
            self._g0 = {}
            g = None
        if g is None:
            ids = view.ids_list
            if not ids:
                raise ValueError(
                    f"no actions available in state "
                    f"{self.index.states[sid]!r}"
                )
            base = sid * self._cols
            g = _make_gather([base + aid for aid in ids])
            self._g0[sid] = g
        return g(self._flat)

    def sorted_row_values(
        self, sid: int, view: _ActionView
    ) -> Tuple[float, ...]:
        """Row ``sid``'s values over ``view``'s actions, in repr order.

        The ``_g1`` gather lane, the one :meth:`best_action` reads;
        ``view`` must be non-empty and the ids in range.
        """
        if view is self._g1_view:
            g = self._g1.get(sid)
        else:
            self._g1_view = view
            self._g1 = {}
            g = None
        if g is None:
            base = sid * self._cols
            g = _make_gather([base + aid for aid in view.sorted_ids_list])
            self._g1[sid] = g
        return g(self._flat)

    def value_at(self, sid: int, aid: int) -> float:
        """Q of one in-range cell, by ids."""
        return self._flat[sid * self._cols + aid]

    def add_at(self, sid: int, aid: int, x: float) -> None:
        """``Q[sid, aid] += x``: add, mark written, bump version.

        Ids must be in range (see :meth:`locate`).
        """
        off = sid * self._cols + aid
        flat = self._flat
        flat[off] = flat[off] + x
        self._written[off] = 1
        self._array = None
        self.version += 1

    def add_pairs(
        self,
        pairs: Sequence[Tuple[int, int]],
        coef: float,
        weights: Sequence[float],
    ) -> None:
        """``Q[pair] += coef * weight`` per pair, in order; one bump.

        Elementwise multiply-then-add per independent pair --
        bit-identical to a per-pair :meth:`add_at` loop.
        """
        if not pairs:
            return
        self._ensure_capacity()
        flat = self._flat
        written = self._written
        cols = self._cols
        for (sid, aid), weight in zip(pairs, weights):
            off = sid * cols + aid
            flat[off] = flat[off] + coef * weight
            written[off] = 1
        self._array = None
        self.version += 1

    def best_action(self, state: State, actions: Sequence[Action]) -> Action:
        """Argmax over ``actions``; first maximum in repr order wins.

        Raises ``ValueError`` on an empty action sequence.  The
        preamble is :meth:`_row` inlined: this is the hottest reader.
        """
        view = self._view(actions)
        if not view.ids_list:
            raise ValueError(f"no actions available in state {state!r}")
        sid = self._state_ids.get(state)
        if sid is None:
            sid = self.index.state_id(state)
        if sid >= self._rows or view.max_id >= self._cols:
            self._grow()
        # index(max(values)) is the first maximum in repr order --
        # the tie-break -- with every scan in C.
        values = self.sorted_row_values(sid, view)
        return view.sorted_actions[values.index(max(values))]

    def max_value(self, state: State, actions: Sequence[Action]) -> float:
        """max_a Q(s, a) over the given actions."""
        return max(self.row_values(*self._row(state, actions)))

    def known_pairs(self) -> List[Tuple[State, Action]]:
        """All (state, action) pairs ever written (unordered)."""
        states = self.index.states
        actions = self.index.actions
        cols = self._cols
        return [
            (states[off // cols], actions[off % cols])
            for off, flag in enumerate(self._written)
            if flag
        ]

    def copy(self) -> "DenseQTable":
        """An independent snapshot (the append-only index is shared)."""
        clone = DenseQTable(self.initial_value, index=self.index)
        clone._flat = self._flat[:]
        clone._written = self._written[:]
        clone._rows = self._rows
        clone._cols = self._cols
        return clone

    def max_abs_difference(self, other) -> float:
        """sup-norm distance to ``other`` (any table exposing ``value``
        and ``known_pairs``) over either table's written support."""
        keys = set(self.known_pairs()) | set(other.known_pairs())
        if not keys:
            return 0.0
        return max(
            abs(self.value(s, a) - other.value(s, a))
            for s, a in sorted(keys, key=repr)
        )

    def __len__(self) -> int:
        return sum(self._written)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DenseQTable(entries={len(self)}, init={self.initial_value})"
        )

    # ------------------------------------------------------------------
    # batched extensions

    def action_values(
        self, state: State, actions: Sequence[Action]
    ) -> List[float]:
        """``[Q(s, a) for a in actions]`` in the given order."""
        return list(self.row_values(*self._row(state, actions)))

    def action_values_sorted(
        self, state: State, actions: Sequence[Action]
    ) -> Tuple[List[float], Tuple[Action, ...]]:
        """(values, actions), both in the deterministic repr order."""
        sid, view = self._row(state, actions)
        return list(self.sorted_row_values(sid, view)), view.sorted_actions

    def argmax_prober(self, states: Sequence[State], actions: Sequence[Action]):
        """A prebound, repeatable batched argmax over fixed inputs.

        The trainer probes the same routine states with the same
        action set every iteration; the returned zero-argument
        callable bakes their flat offsets in (revalidating against
        ``_grow_count``) so the per-call work is one C gather, one
        ``max`` and one ``index`` per state.  It returns each greedy
        action's position in ``actions``.
        """
        return _ArgmaxProber(self, states, actions)


class _ArgmaxProber:
    """Batched first-max argmax with prebound flat offsets.

    Built by :meth:`DenseQTable.argmax_prober` for a fixed state and
    action sequence; tie-breaking matches :meth:`DenseQTable.
    best_action` exactly (first maximum in repr order).
    """

    __slots__ = ("_q", "_sids", "_max_sid", "_view", "_gathers", "_grows")

    def __init__(
        self,
        q: DenseQTable,
        states: Sequence[State],
        actions: Sequence[Action],
    ) -> None:
        view = q._view(actions)
        if not view.sorted_ids_list:
            raise ValueError("no actions available")
        index = q.index
        self._q = q
        self._view = view
        self._sids = [index.state_id(s) for s in states]
        self._max_sid = max(self._sids) if self._sids else -1
        self._gathers: List[object] = []
        self._grows = -1

    def _rebuild(self) -> None:
        q = self._q
        if self._max_sid >= q._rows or self._view.max_id >= q._cols:
            q._grow()
        cols = q._cols
        ids = self._view.sorted_ids_list
        self._gathers = [
            _make_gather([sid * cols + a for a in ids])
            for sid in self._sids
        ]
        self._grows = q._grow_count

    def __call__(self) -> List[int]:
        """The greedy action's given-order position, per state."""
        q = self._q
        if self._grows != q._grow_count:
            self._rebuild()
        flat = q._flat
        order = self._view.sorted_order
        out = []
        for g in self._gathers:
            values = g(flat)
            out.append(order[values.index(max(values))])
        return out


class DenseTraces:
    """Eligibility traces over interned pair ids, as flat vectors.

    Replacing visits, decay with a cutoff drop and a snapshot
    ``items()``, with the whole TD(λ) sweep exposed as
    :meth:`apply_update`: ``Q[active] += coef * e[active]`` over
    precomputed flat offsets, no hashing, no snapshot copy.
    """

    __slots__ = (
        "cutoff",
        "index",
        "_slots",
        "_pairs",
        "_e",
        "_state_ids",
        "_action_ids",
    )

    def __init__(
        self,
        index: Optional[StateActionIndex] = None,
        cutoff: float = 1e-4,
    ) -> None:
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.cutoff = cutoff
        self.index = index if index is not None else StateActionIndex()
        #: (state_id, action_id) -> position in the parallel vectors.
        self._slots: Dict[Tuple[int, int], int] = {}
        self._pairs: List[Tuple[int, int]] = []
        self._e: List[float] = []
        # Same in-place intern-dict shortcut as DenseQTable.
        self._state_ids = self.index._state_ids
        self._action_ids = self.index._action_ids

    def visit(self, state: State, action: Action) -> None:
        """Mark (s, a) as just visited."""
        sid = self._state_ids.get(state)
        if sid is None:
            sid = self.index.state_id(state)
        aid = self._action_ids.get(action)
        if aid is None:
            aid = self.index.action_id(action)
        self._visit((sid, aid))

    def _visit(self, key: Tuple[int, int]) -> None:
        pos = self._slots.get(key)
        if pos is None:
            self._slots[key] = len(self._pairs)
            self._pairs.append(key)
            self._e.append(1.0)
        else:
            self._e[pos] = 1.0

    def decay(self, factor: float) -> None:
        """Multiply every trace by ``factor`` (= γλ), dropping tiny ones."""
        if factor == 0.0:
            self.reset()
            return
        old = self._e
        if not old:
            return
        e = [v * factor for v in old]
        self._e = e
        if min(e) < self.cutoff:
            self._compact()

    def _compact(self) -> None:
        """Drop traces below the cutoff, preserving insertion order."""
        e = self._e
        cutoff = self.cutoff
        pairs = self._pairs
        new_slots: Dict[Tuple[int, int], int] = {}
        new_pairs: List[Tuple[int, int]] = []
        new_e: List[float] = []
        for i in range(len(e)):
            if e[i] >= cutoff:
                new_slots[pairs[i]] = len(new_pairs)
                new_pairs.append(pairs[i])
                new_e.append(e[i])
        self._slots = new_slots
        self._pairs = new_pairs
        self._e = new_e

    def get(self, state: State, action: Action) -> float:
        """Current trace of (s, a) (0.0 if inactive)."""
        key = (self.index.state_id(state), self.index.action_id(action))
        pos = self._slots.get(key)
        return self._e[pos] if pos is not None else 0.0

    def reset(self) -> None:
        """Clear all traces (start of episode, or Watkins cut)."""
        self._slots = {}
        self._pairs = []
        self._e = []

    def items(self) -> Iterator[Tuple[Tuple[State, Action], float]]:
        """Iterate over a snapshot of active (key, trace) pairs."""
        states = self.index.states
        actions = self.index.actions
        return iter(
            [
                ((states[sid], actions[aid]), self._e[i])
                for i, (sid, aid) in enumerate(self._pairs)
            ]
        )

    def apply_update(self, q, coef: float) -> None:
        """``Q[pair] += coef * e[pair]`` for every active pair.

        ``q`` is a :class:`DenseQTable` on the same index; the write
        is one :meth:`DenseQTable.add_pairs` in insertion
        (first-visit) order -- bit-identical to a per-pair ``q.add``
        loop.
        """
        if q.index is not self.index:
            raise ValueError("traces and Q-table must share one index")
        q.add_pairs(self._pairs, coef, self._e)

    def step(
        self, q, sid: int, aid: int, coef: float, factor: float
    ) -> None:
        """One eligibility-trace TD step on interned ids.

        Visit ``(sid, aid)``, apply ``Q[active] += coef * e[active]``
        to ``q`` (which must share this index), then decay every
        trace by ``factor`` (= γλ).  The same per-pair arithmetic and
        order as :meth:`visit`, :meth:`apply_update` and
        :meth:`decay` called in turn.
        """
        self._visit((sid, aid))
        q.add_pairs(self._pairs, coef, self._e)
        self.decay(factor)

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenseTraces(active={len(self._pairs)})"


def _bind(
    q: DenseQTable,
    view: _ActionView,
    plan: tuple,
    next_ids: List[int],
    every_state: bool = False,
) -> List[tuple]:
    """Intern ``plan``'s states into ``q`` in per-transition order and
    lay out its transitions for ``q``'s stride.  Each transition's
    next-row gather reads the actions ``next_ids`` and is ``None`` on
    a terminal one.  The TD kernels never read, so never
    intern, the next state of a terminal last transition (its id is
    then ``-1``); Dyna's model records it (``every_state``)."""
    states, rewards, followed, dones = plan
    n = len(dones)
    last = n + 1 if every_state or not dones[-1] else n
    sids = [q.index.state_id(s) for s in states[:last]] + [-1] * (n + 1 - last)
    if max(sids) >= q._rows or view.max_id >= q._cols:
        q._grow()
    bases = [sid * q._cols for sid in sids]
    return [
        (
            _make_gather([bases[i] + a for a in view.sorted_ids_list]),
            None if dones[i]
            else _make_gather([bases[i + 1] + a for a in next_ids]),
            bases[i], sids[i], sids[i + 1],
            rewards[i], followed[i], dones[i],
        )
        for i in range(n)
    ]


#: The bootstrap rules of :func:`replay_watkins`: Watkins' max over
#: the next row, Expected SARSA's ε-greedy expectation of it, and
#: SARSA(λ)'s next action, drawn before the update.
MAX, EXPECTED, SARSA = "max", "expected", "sarsa"


def replay_watkins(
    learner,
    actions: Sequence[Action],
    plans: Sequence[tuple],
    rng: np.random.Generator,
    first_step: int = 0,
    probe: Optional[tuple] = None,
    bootstrap: str = MAX,
) -> List[Tuple[int, int, int, int]]:
    """Replay episode plans through a TD learner in one loop.

    ``learner`` is an exact ``TDLambdaQLearner`` (``bootstrap`` MAX),
    ``ExpectedSarsaLearner`` (EXPECTED) or ``SarsaLambdaLearner``
    (SARSA); :func:`repro.planning.trainer.fused_kernel` binds the
    rule from the learner's type.  A plan is ``(states, rewards,
    followed, dones)``; transition ``i`` (``states[i] -> states[i +
    1]``) scores action ``j`` of ``actions`` by ``rewards[i][j]`` and
    ``followed[i][j]``.  Episode ``k`` runs at policy step
    ``first_step + k`` and explores at its ε.  Each transition is the
    learner's ``select_action`` then ``observe`` over interned ids,
    with the same RNG draws, interning order and float operations:

    * MAX: the target's max runs over the given-order next row; an
      exploratory or unfollowed prompt updates its own pair and cuts
      the traces;
    * EXPECTED: the target is ``(1-ε)·max + ε·sum/len`` over that row,
      with no traces (λ = 0);
    * SARSA: the next action is picked at ``states[i + 1]`` before the
      update and bootstraps it; a fresh pick opens each episode and
      follows each terminal transition, and the traces are never cut.

    After each episode, ``probe = (states, hits, marks)`` scores every
    probe state's greedy action ``j`` by ``hits[k][j]`` and
    ``marks[k][j]``.  Returns ``(followed, transitions, hits, marks)``
    per episode.
    """
    q = learner.q
    alpha = learner.learning_rate
    discount = learner.discount
    maxing = bootstrap == MAX
    expected = bootstrap == EXPECTED
    sarsa = bootstrap == SARSA
    if expected:
        traces = None
        factor = cutoff = 0.0
    else:
        traces = learner.traces
        factor = learner._glambda
        cutoff = traces.cutoff
    n_actions = len(actions)
    view: Optional[_ActionView] = None
    prober: Optional[_ArgmaxProber] = None
    # id(plan) -> (the table's grow count, the plan's steps).
    bound: Dict[int, tuple] = {}
    trace_cols = q._cols
    updates = 0
    results = []
    draws = generator_draws(rng, sum(len(plan[3]) for plan in plans))
    random = draws.random
    bounded = draws.integers
    try:
        for step, plan in enumerate(plans, first_step):
            # begin_episode.  The traces are flat offsets and values in
            # first-visit order.
            offs: List[int] = []
            e: List[float] = []
            learner.episodes += 1
            n = len(plan[3])
            followed_count = 0
            if n:
                if view is None:
                    if not actions:
                        raise ValueError(
                            f"no actions available in state {plan[0][0]!r}"
                        )
                    view = q._view(actions)
                    ids = view.ids_list
                    sorted_ids = view.sorted_ids_list
                    order = view.sorted_order
                entry = bound.get(id(plan))
                if entry is None or entry[0] != q._grow_count:
                    steps = _bind(
                        q, view, plan, sorted_ids if sarsa else ids
                    )
                    entry = bound[id(plan)] = (q._grow_count, steps)
                flat = q._flat
                written = q._written
                trace_cols = q._cols
                epsilon = learner.epsilon_at(step)
                greedy_weight = 1.0 - epsilon
                # SARSA's pick for the coming transition, if drawn.
                pick = None
                for (greedy, nxt, base, _, next_sid,
                     reward_row, followed_row, done) in entry[1]:
                    if pick is None:
                        # select_action: the first maximum in repr
                        # order, then ε.
                        values = greedy(flat)
                        g = values.index(max(values))
                        if random() < epsilon:
                            (j,) = bounded(n_actions, 1)
                            aid = ids[j]
                            exploratory = aid != sorted_ids[g]
                        else:
                            j = order[g]
                            aid = sorted_ids[g]
                            exploratory = False
                    else:
                        j, aid = pick
                        pick = None
                    followed = followed_row[j]
                    followed_count += followed
                    # observe.
                    if done:
                        target = reward_row[j]
                    elif maxing:
                        target = reward_row[j] + discount * max(nxt(flat))
                    elif expected:
                        values = nxt(flat)
                        target = reward_row[j] + discount * (
                            greedy_weight * max(values)
                            + epsilon * (sum(values) / n_actions)
                        )
                    else:
                        # SARSA: select_action at the next state first.
                        values = nxt(flat)
                        g = values.index(max(values))
                        if random() < epsilon:
                            (next_j,) = bounded(n_actions, 1)
                            pick = (next_j, ids[next_j])
                        else:
                            pick = (order[g], sorted_ids[g])
                        target = reward_row[j] + discount * flat[
                            next_sid * trace_cols + pick[1]
                        ]
                    off = base + aid
                    coef = alpha * (target - flat[off])
                    if maxing and (exploratory or not followed):
                        # Off-target: this pair only, then the strict cut.
                        flat[off] = flat[off] + coef
                        written[off] = 1
                        offs, e = [], []
                        continue
                    if off not in offs:
                        offs.append(off)
                        e.append(1.0)
                    else:
                        e[offs.index(off)] = 1.0
                    for o, weight in zip(offs, e):
                        flat[o] = flat[o] + coef * weight
                    written[off] = 1
                    if done or factor == 0.0:
                        # A terminal transition resets what it would decay.
                        offs, e = [], []
                    else:
                        e = [v * factor for v in e]
                        if min(e) < cutoff:
                            keep = [k for k, v in enumerate(e) if v >= cutoff]
                            offs = [offs[k] for k in keep]
                            e = [e[k] for k in keep]
                updates += n
                if expected:
                    learner.behaviour_epsilon = epsilon
            hits = marks = 0
            if probe is not None:
                if prober is None:
                    prober = _ArgmaxProber(q, probe[0], actions)
                hits, marks = _score_probe(prober, probe)
            results.append((followed_count, n, hits, marks))
    finally:
        draws.close()
    if results and traces is not None:
        pairs = [divmod(off, trace_cols) for off in offs]
        traces._slots = {pair: k for k, pair in enumerate(pairs)}
        traces._pairs = pairs
        traces._e = e
    if updates:
        learner.updates += updates
        q.version += updates
        q._array = None
    return results


def replay_dyna(
    learner,
    actions: Sequence[Action],
    plans: Sequence[tuple],
    rng: np.random.Generator,
    first_step: int = 0,
    probe: Optional[tuple] = None,
) -> List[Tuple[int, int, int, int]]:
    """Replay episode plans through a Dyna-Q learner in one loop.

    ``learner`` is an exact ``DynaQLearner``.  Plans, ``first_step``,
    ``probe`` and the result are those of :func:`replay_watkins`.
    Each transition is ``select_action`` then ``observe(...,
    rng=rng)`` over interned ids: the ε-greedy pick, the one-step
    update, the model write (the same id-and-view record ``observe``
    writes) and ``planning_steps`` updates of uniformly drawn model
    records, with the same RNG draws, interning order and float
    operations.
    """
    q = learner.q
    alpha = learner.learning_rate
    discount = learner.discount
    k = learner.planning_steps
    model = learner._model
    outcomes = learner._outcomes
    n_actions = len(actions)
    view: Optional[_ActionView] = None
    prober: Optional[_ArgmaxProber] = None
    # id(plan) -> (the table's grow count, the plan's steps).
    bound: Dict[int, tuple] = {}
    # Parallel to ``outcomes``: (flat offset, reward, next-row gather
    # or None for a reward-only target), laid out for the stride of
    # grow count ``sweep_grows``.
    sweep: List[tuple] = []
    sweep_grows = -1
    updates = 0
    results = []
    transitions = sum(len(plan[3]) for plan in plans)
    draws = generator_draws(rng, transitions + (transitions * k + 1) // 2)
    random = draws.random
    bounded = draws.integers
    try:
        for step, plan in enumerate(plans, first_step):
            learner.episodes += 1
            n = len(plan[3])
            followed_count = 0
            if n:
                if view is None:
                    if not actions:
                        raise ValueError(
                            f"no actions available in state {plan[0][0]!r}"
                        )
                    view = q._view(actions)
                    ids = view.ids_list
                    sorted_ids = view.sorted_ids_list
                    order = view.sorted_order
                entry = bound.get(id(plan))
                if entry is None or entry[0] != q._grow_count:
                    steps = _bind(q, view, plan, ids, every_state=True)
                    entry = bound[id(plan)] = (q._grow_count, steps)
                if sweep_grows != q._grow_count:
                    cols = q._cols
                    sweep = [
                        (
                            sid * cols + aid, reward,
                            None if next_view is None else _make_gather(
                                [next_sid * cols + a
                                 for a in next_view.ids_list]
                            ),
                        )
                        for sid, aid, reward, next_sid, next_view in outcomes
                    ]
                    sweep_grows = q._grow_count
                flat = q._flat
                written = q._written
                epsilon = learner.epsilon_at(step)
                for (greedy, nxt, base, sid, next_sid,
                     reward_row, followed_row, done) in entry[1]:
                    # select_action: the first maximum in repr order, then ε.
                    values = greedy(flat)
                    g = values.index(max(values))
                    if random() < epsilon:
                        (j,) = bounded(n_actions, 1)
                        aid = ids[j]
                    else:
                        j = order[g]
                        aid = sorted_ids[g]
                    followed_count += followed_row[j]
                    # observe: the target's max runs over the given order.
                    reward = reward_row[j]
                    if done:
                        target = reward
                    else:
                        target = reward + discount * max(nxt(flat))
                    off = base + aid
                    flat[off] = flat[off] + alpha * (target - flat[off])
                    written[off] = 1
                    record = (
                        sid, aid, reward, next_sid, None if done else view
                    )
                    pos = model.get((sid, aid))
                    if pos is None:
                        model[(sid, aid)] = len(outcomes)
                        outcomes.append(record)
                        sweep.append((off, reward, nxt))
                    else:
                        outcomes[pos] = record
                        sweep[pos] = (off, reward, nxt)
                    if k:
                        # The planning sweep: the draws of _plan's one
                        # batched rng.integers call.
                        for i in bounded(len(outcomes), k):
                            cell, value, row = sweep[i]
                            if row is not None:
                                value = value + discount * max(row(flat))
                            flat[cell] = (
                                flat[cell] + alpha * (value - flat[cell])
                            )
                            written[cell] = 1
                updates += n
            hits = marks = 0
            if probe is not None:
                if prober is None:
                    prober = _ArgmaxProber(q, probe[0], actions)
                hits, marks = _score_probe(prober, probe)
            results.append((followed_count, n, hits, marks))
    finally:
        draws.close()
    if updates:
        learner.updates += updates
        learner.planning_updates += k * updates
        q.version += updates * (1 + k)
        q._array = None
    return results


def _score_probe(prober: _ArgmaxProber, probe: tuple) -> Tuple[int, int]:
    """``(hits, marks)`` of the probe states' greedy actions."""
    hits = marks = 0
    for j, hit, mark in zip(prober(), probe[1], probe[2]):
        hits += hit[j]
        marks += mark[j]
    return hits, marks
