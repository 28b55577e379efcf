"""Episode segmentation of continuous usage histories.

The paper trains on "training samples", each "a complete process of
an ADL" -- but a deployed sensing subsystem records one continuous
stream of tool detections, not pre-cut episodes.  This module closes
that gap: it splits a :class:`~repro.sensing.history.UsageHistory`
into episodes at idle gaps (no detection for longer than
``idle_gap``), collapses repeated detections within a step, and can
infer the user's routine as the modal complete episode -- everything
needed to train straight from what the system itself observed
(``CoReDA.train_from_history``).
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence, Tuple

from repro.core.adl import ADL, Routine
from repro.core.errors import RoutineError
from repro.sensing.history import UsageHistory

__all__ = ["segment_episodes", "infer_routine"]


def segment_episodes(
    history: UsageHistory, idle_gap: float = 30.0
) -> List[List[int]]:
    """Split a continuous detection stream into step-id episodes.

    A new episode starts whenever the gap since the previous
    detection exceeds ``idle_gap``.  Within an episode, consecutive
    detections of the same tool collapse to one step (they belong to
    one handling).  Episodes shorter than two steps are dropped as
    fragments (a lone detection between idle stretches is
    more likely noise than an activity).
    """
    if idle_gap <= 0:
        raise ValueError("idle_gap must be positive")
    episodes: List[List[int]] = []
    current: List[int] = []
    previous_time: Optional[float] = None
    for record in history.records():
        if previous_time is not None and record.time - previous_time > idle_gap:
            if len(current) >= 2:
                episodes.append(current)
            current = []
        if not current or current[-1] != record.tool_id:
            current.append(record.tool_id)
        previous_time = record.time
    if len(current) >= 2:
        episodes.append(current)
    return episodes


def infer_routine(
    adl: ADL,
    episodes: Sequence[Sequence[int]],
) -> Tuple[Routine, int]:
    """The user's routine, inferred as the modal *complete* episode.

    An episode is complete when it visits every step of the ADL
    exactly once (sensing gaps make incomplete ones common -- Table 3).
    Returns ``(routine, support)`` where support is how many episodes
    matched the winner exactly.  Raises :class:`RoutineError` when no
    complete episode exists -- the caller should record more data (or
    use :class:`~repro.recognition.repair.EpisodeRepairer` first).
    """
    full_set = set(adl.step_ids)
    complete = [
        tuple(episode)
        for episode in episodes
        if len(episode) == len(full_set) and set(episode) == full_set
    ]
    if not complete:
        raise RoutineError(
            f"no complete {adl.name!r} episode among {len(episodes)} "
            "segmented episodes; record more data"
        )
    counts = Counter(complete)
    winner, support = max(
        sorted(counts.items()), key=lambda item: item[1]
    )
    return Routine(adl, winner), support
