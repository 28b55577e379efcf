"""Packed binary policy artifacts: zero-copy and JSON-equal.

The JSON training document (:mod:`repro.planning.store`) is the
canonical, versioned, human-inspectable format and the only one on
disk.  This module packs the same training into one buffer -- the
interned state/action tables and the raw row-major float64
``DenseQTable`` matrix -- that the fleet publishes into shared memory
(:mod:`repro.planning.shm`) and every worker serves **without
parsing**: the Q matrix, the written mask and the learning curves are
NumPy views straight over the shared bytes (``np.frombuffer``).  The restored
:class:`~repro.rl.dense.DenseQTable` copies the Q matrix and the
written mask once into its own storage: a few dozen cells per
training, restored once per training per process.

Layout (all integers little-endian)::

    offset 0   4 bytes   magic  b"RPPB"
           4   u32       binary layout version (BINARY_VERSION)
           8   u32       header length H
          12   H bytes   JSON header: document format, ADL name,
                         initial_q, n_states, n_actions, curve_len,
                         crc32 of the payload
    align 16             payload start
          states   int64   (n_states, 2)    ⟨previous, current⟩
          actions  int64   (n_actions, 2)   ⟨tool_id, level index⟩
          q        float64 (n_states, n_actions)
          curves   float64 (4, curve_len)   behaviour/smoothed/
                                            greedy/minimal
          written  uint8   (n_states * n_actions,)

Two encoding choices keep the artifact byte-equal to the JSON path:

* **states** appear in the first-appearance order of the repr-sorted
  entry list -- exactly the order ``_qtable_from_document`` interns
  them -- and **actions** are the full ``action_space(adl)`` in its
  canonical order, so a restored table never grows and every greedy
  readout sees the same values at the same
  ⟨state, action⟩ pairs;
* **q** and the **curves** are stored as raw IEEE-754 doubles, so the
  values round-trip exactly (the JSON path round-trips exactly too,
  via repr-shortest floats) and convergence detection over the
  smoothed curve lands on the same iteration.

Reminder levels are stored as indices into the canonical
``(MINIMAL, SPECIFIC)`` order because the enum values are strings.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.adl import ADL, ReminderLevel
from repro.core.errors import CoReDAError
from repro.planning.action import PromptAction, action_space
from repro.planning.predictor import NextStepPredictor
from repro.planning.state import PlanningState
from repro.planning.trainer import LearningCurve
from repro.rl.dense import DenseQTable

__all__ = [
    "BINARY_VERSION",
    "MAGIC",
    "PolicyArtifactError",
    "PolicyArtifact",
    "pack_policy_artifact",
    "read_policy_artifact",
]

#: First four bytes of every artifact.
MAGIC = b"RPPB"

#: Bump when the packed layout changes incompatibly.
BINARY_VERSION = 1

#: Canonical encoding order for reminder levels (enum values are
#: strings, so the artifact stores the index).
_LEVELS: Tuple[ReminderLevel, ...] = (
    ReminderLevel.MINIMAL,
    ReminderLevel.SPECIFIC,
)
_LEVEL_INDEX = {level: index for index, level in enumerate(_LEVELS)}

_CURVE_KEYS = ("behaviour", "smoothed", "greedy", "minimal")


class PolicyArtifactError(CoReDAError):
    """A packed buffer that cannot be decoded (truncated, corrupt, stale)."""


def _align(offset: int) -> int:
    """``offset`` rounded up to the payload's 16-byte alignment."""
    return (offset + 15) // 16 * 16


def pack_policy_artifact(
    document: dict, actions: Sequence[PromptAction]
) -> bytes:
    """Pack a JSON training document into the binary artifact format.

    ``actions`` must be the deployment's full action space (in
    canonical order); every entry of the document must reference one
    of them, or the document is not packable (a stale or foreign
    document raises :class:`PolicyArtifactError` rather than writing
    an artifact that could not serve the deployment).
    """
    actions = tuple(actions)
    action_cols = {}
    for column, action in enumerate(actions):
        if action.level not in _LEVEL_INDEX:
            raise PolicyArtifactError(
                f"action {action!r} has unencodable level"
            )
        action_cols[(int(action.tool_id), action.level)] = column
    state_rows: dict = {}
    cells = []
    for entry in document["entries"]:
        state = (int(entry["previous"]), int(entry["current"]))
        row = state_rows.get(state)
        if row is None:
            row = len(state_rows)
            state_rows[state] = row
        column = action_cols.get(
            (int(entry["tool_id"]), ReminderLevel(entry["level"]))
        )
        if column is None:
            raise PolicyArtifactError(
                f"entry prompts ({entry['tool_id']}, {entry['level']}) "
                "outside the deployment's action space"
            )
        cells.append((row, column, float(entry["q"])))
    n_states = len(state_rows)
    n_actions = len(actions)
    initial_q = float(document.get("initial_q", 0.0))

    curve = document["curve"]
    curve_len = len(curve[_CURVE_KEYS[0]])
    for key in _CURVE_KEYS:
        if len(curve[key]) != curve_len:
            raise PolicyArtifactError("curve arrays have unequal lengths")

    states_arr = np.array(list(state_rows), dtype="<i8").reshape(
        n_states, 2
    )
    actions_arr = np.array(
        [
            (int(action.tool_id), _LEVEL_INDEX[action.level])
            for action in actions
        ],
        dtype="<i8",
    ).reshape(n_actions, 2)
    q_arr = np.full((n_states, n_actions), initial_q, dtype="<f8")
    written_arr = np.zeros(n_states * n_actions, dtype=np.uint8)
    for row, column, value in cells:
        q_arr[row, column] = value
        written_arr[row * n_actions + column] = 1
    curves_arr = np.array(
        [curve[key] for key in _CURVE_KEYS], dtype="<f8"
    ).reshape(4, curve_len)

    payload = b"".join(
        [
            states_arr.tobytes(),
            actions_arr.tobytes(),
            q_arr.tobytes(),
            curves_arr.tobytes(),
            written_arr.tobytes(),
        ]
    )
    header = json.dumps(
        {
            "format": int(document.get("format", 0)),
            "adl": document.get("adl"),
            "initial_q": initial_q,
            "n_states": n_states,
            "n_actions": n_actions,
            "curve_len": curve_len,
            "crc32": zlib.crc32(payload),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    prefix = MAGIC + struct.pack("<II", BINARY_VERSION, len(header)) + header
    return prefix + b"\x00" * (_align(len(prefix)) - len(prefix)) + payload


class PolicyArtifact:
    """A decoded view over one packed policy buffer.

    Holds read-only NumPy views *into* the backing buffer (a
    ``SharedMemory.buf`` or plain bytes); :meth:`qtable` copies the Q
    matrix and written mask out of them.  The artifact
    keeps the backing object alive for as long as any view of it is
    reachable.
    """

    __slots__ = (
        "document_format",
        "adl_name",
        "initial_q",
        "states",
        "actions",
        "q",
        "written",
        "curves",
        "_backing",
    )

    def __init__(
        self,
        document_format: int,
        adl_name: str,
        initial_q: float,
        states: np.ndarray,
        actions: Tuple[PromptAction, ...],
        q: np.ndarray,
        written: np.ndarray,
        curves: np.ndarray,
        backing: object,
    ) -> None:
        self.document_format = document_format
        self.adl_name = adl_name
        self.initial_q = initial_q
        self.states = states
        self.actions = actions
        self.q = q
        self.written = written
        self.curves = curves
        self._backing = backing

    def matches(self, adl: ADL) -> bool:
        """Whether this artifact can serve a deployment of ``adl``.

        Same validation surface as the JSON loader: the ADL name must
        match and every action must exist in the deployment's action
        space (stored actions are the *full* space, so equality is
        the check).
        """
        return (
            self.adl_name == adl.name
            and self.actions == tuple(action_space(adl))
        )

    def curve(self) -> LearningCurve:
        """The training's learning curve, value-equal to the JSON one."""
        behaviour, smoothed, greedy, minimal = self.curves
        return LearningCurve(
            behaviour_accuracy=behaviour.tolist(),
            smoothed_accuracy=smoothed.tolist(),
            greedy_accuracy=greedy.tolist(),
            minimal_fraction=minimal.tolist(),
        )

    def qtable(self) -> DenseQTable:
        """A dense table holding its own copy of the artifact's Q matrix."""
        states = [
            PlanningState(int(previous), int(current))
            for previous, current in self.states
        ]
        return DenseQTable.from_buffers(
            self.initial_q, states, self.actions, self.q, self.written
        )

    def predictor(self, adl: ADL, converged: bool) -> NextStepPredictor:
        """A deployed predictor over the zero-copy table.

        Raises :class:`~repro.core.errors.CoReDAError` on an ADL
        mismatch, mirroring :func:`repro.planning.store.load_predictor`
        -- a stale policy must never silently drive prompts for the
        wrong deployment.
        """
        if not self.matches(adl):
            raise CoReDAError(
                f"policy artifact was packed for ADL {self.adl_name!r}, "
                f"not {adl.name!r}"
            )
        return NextStepPredictor(
            self.qtable(), action_space(adl), converged=converged
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PolicyArtifact(adl={self.adl_name!r}, "
            f"q={self.q.shape[0]}x{self.q.shape[1]})"
        )


def _view(
    buffer: object, dtype: str, count: int, offset: int
) -> np.ndarray:
    array = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
    # Shared-memory buffers are writable; the artifact contract is
    # read-only (a restored table writes to its own copy).
    array.flags.writeable = False
    return array


def read_policy_artifact(buffer: object) -> PolicyArtifact:
    """Decode a packed artifact without copying its bulk data.

    ``buffer`` is anything NumPy can view (``SharedMemory.buf``,
    ``memoryview``, ``bytes``).  Raises :class:`PolicyArtifactError` on
    any structural problem -- short buffer, bad magic, version skew,
    length overrun or a CRC mismatch -- so callers can treat every
    failure as "no artifact" and fall back to JSON.
    """
    view = memoryview(buffer)
    if len(view) < 12 or bytes(view[:4]) != MAGIC:
        raise PolicyArtifactError("not a policy artifact")
    version, header_len = struct.unpack_from("<II", view, 4)
    if version != BINARY_VERSION:
        raise PolicyArtifactError(
            f"artifact layout version {version}, "
            f"expected {BINARY_VERSION}"
        )
    if len(view) < 12 + header_len:
        raise PolicyArtifactError("truncated artifact header")
    try:
        header = json.loads(bytes(view[12:12 + header_len]))
    except ValueError as error:
        raise PolicyArtifactError(
            f"undecodable artifact header: {error}"
        ) from error
    try:
        n_states = int(header["n_states"])
        n_actions = int(header["n_actions"])
        curve_len = int(header["curve_len"])
        initial_q = float(header["initial_q"])
        adl_name = str(header["adl"])
        document_format = int(header["format"])
        crc = int(header["crc32"])
    except (KeyError, TypeError, ValueError) as error:
        raise PolicyArtifactError(
            f"incomplete artifact header: {error}"
        ) from error
    if min(n_states, n_actions, curve_len) < 0:
        raise PolicyArtifactError("negative artifact dimensions")
    start = _align(12 + header_len)
    cells = n_states * n_actions
    sizes = (
        n_states * 2 * 8,
        n_actions * 2 * 8,
        cells * 8,
        4 * curve_len * 8,
        cells,
    )
    if len(view) < start + sum(sizes):
        raise PolicyArtifactError("truncated artifact payload")
    if zlib.crc32(view[start:start + sum(sizes)]) != crc:
        raise PolicyArtifactError("artifact payload CRC mismatch")
    offset = start
    states = _view(buffer, "<i8", n_states * 2, offset)
    states = states.reshape(n_states, 2)
    offset += sizes[0]
    action_codes = _view(buffer, "<i8", n_actions * 2, offset)
    action_codes = action_codes.reshape(n_actions, 2)
    offset += sizes[1]
    q = _view(buffer, "<f8", cells, offset).reshape(
        n_states, n_actions
    )
    offset += sizes[2]
    curves = _view(buffer, "<f8", 4 * curve_len, offset).reshape(
        4, curve_len
    )
    offset += sizes[3]
    written = _view(buffer, "u1", cells, offset)

    actions = []
    for tool_id, level_index in action_codes:
        if not 0 <= level_index < len(_LEVELS):
            raise PolicyArtifactError(
                f"unknown reminder-level code {int(level_index)}"
            )
        actions.append(
            PromptAction(int(tool_id), _LEVELS[int(level_index)])
        )
    return PolicyArtifact(
        document_format=document_format,
        adl_name=adl_name,
        initial_q=initial_q,
        states=states,
        actions=tuple(actions),
        q=q,
        written=written,
        curves=curves,
        backing=buffer,
    )

