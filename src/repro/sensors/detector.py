"""The k-of-n threshold usage detector (paper section 2.1).

    "The sampling rate of each sensor is 10 times in one second.  If
    three of these 10 samples surpass a pre-defined threshold, the
    tool will be considered is using [...].  We use this mechanism to
    protect detection against accidental operation."

The detector keeps a sliding window of the last ``n`` boolean
exceedances; when at least ``k`` are set it declares usage.  A
refractory period then suppresses re-detections so one physical
handling produces one usage report.

The window population is tracked as a running counter (updated on
append/evict) rather than summed on every sample, and
:meth:`observe_block` processes a whole pre-drawn sample block in one
call -- both feed the node firmware's block-sampling fast path (see
``docs/architecture.md``), which also relies on
:meth:`snapshot`/:meth:`restore` to roll the detector back when a
mid-block regime change invalidates part of a block, and on
:meth:`advance_quiet` to replay a committed prefix that holds no
exceedance in O(1).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import repeat
from typing import Deque, List, Tuple

import numpy as np

__all__ = ["KofNDetector"]

#: Opaque detector state: (window, window sum, refractory, detections,
#: samples seen, threshold).
DetectorState = Tuple[Tuple[bool, ...], int, int, int, int, float]


class KofNDetector:
    """Sliding-window k-of-n threshold detector.

    Feed samples with :meth:`observe`; it returns ``True`` exactly
    when a new usage event should be reported.  The window is cleared
    on detection, then a refractory period (in samples) keeps the
    detector quiet while the same handling continues.
    """

    __slots__ = (
        "threshold",
        "k",
        "n",
        "refractory_samples",
        "_window",
        "_window_sum",
        "_refractory_left",
        "detections",
        "samples_seen",
        "first_exceedance",
    )

    def __init__(
        self,
        threshold: float,
        k: int = 3,
        n: int = 10,
        refractory_samples: int = 20,
    ) -> None:
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if refractory_samples < 0:
            raise ValueError("refractory_samples must be >= 0")
        self.threshold = float(threshold)
        self.k = k
        self.n = n
        self.refractory_samples = refractory_samples
        self._window: Deque[bool] = deque(maxlen=n)
        self._window_sum = 0
        self._refractory_left = 0
        self.detections = 0
        self.samples_seen = 0
        #: Index of the first above-threshold sample of the last
        #: :meth:`observe_block` call (its length when there was none).
        self.first_exceedance = 0

    def observe(self, sample: float) -> bool:
        """Process one sample; return ``True`` on a new detection."""
        self.samples_seen += 1
        if self._refractory_left > 0:
            self._refractory_left -= 1
            return False
        window = self._window
        if len(window) == self.n:
            self._window_sum -= window[0]
        flag = sample > self.threshold
        window.append(flag)
        if flag:
            self._window_sum += 1
        if self._window_sum >= self.k:
            window.clear()
            self._window_sum = 0
            self._refractory_left = self.refractory_samples
            self.detections += 1
            return True
        return False

    def observe_block(self, samples) -> List[int]:
        """Process a whole sample block; return the detecting indices.

        Exactly equivalent to calling :meth:`observe` on each sample
        in order (the fast-path equivalence tests pin this down).  The
        thresholding is vectorised, and the window logic walks only the
        exceedances: a run of sub-threshold samples between two of them
        is applied at once (only its last ``n`` flags can stay in the
        window), and after a detection the walk jumps straight past the
        refractory samples.
        """
        exceed = np.asarray(samples, dtype=float) > self.threshold
        m = exceed.shape[0]
        self.samples_seen += m
        window = self._window
        n = self.n
        window_sum = self._window_sum
        # The first sample the window takes; earlier ones are refractory.
        resume = self._refractory_left
        hits: List[int] = []
        positions = exceed.nonzero()[0]
        if positions.shape[0]:
            positions = positions.tolist()
            self.first_exceedance = positions[0]
            k = self.k
            refractory = self.refractory_samples
            count = len(positions)
            i = bisect_left(positions, resume) if resume else 0
            while i < count:
                index = positions[i]
                gap = index - resume
                if gap:
                    window.extend(repeat(False, gap if gap < n else n))
                    if window_sum:
                        window_sum = window.count(True)
                if len(window) == n and window[0]:
                    window_sum -= 1
                window.append(True)
                window_sum += 1
                if window_sum >= k:
                    window.clear()
                    window_sum = 0
                    hits.append(index)
                    resume = index + 1 + refractory
                    i = bisect_left(positions, resume, i + 1)
                else:
                    resume = index + 1
                    i += 1
            self.detections += len(hits)
        else:
            self.first_exceedance = m
        # The sub-threshold rest of the block.
        self._quiet_tail(m - resume, window_sum)
        return hits

    def advance_quiet(self, m: int) -> None:
        """Process ``m`` sub-threshold samples in O(1).

        Exactly :meth:`observe_block` over ``m`` samples none of which
        exceeds the threshold: the node's block sampler uses it to
        replay a committed prefix that lies before the block's first
        exceedance without touching the samples.
        """
        self.samples_seen += m
        self._quiet_tail(m - self._refractory_left, self._window_sum)

    def _quiet_tail(self, gap: int, window_sum: int) -> None:
        """Finish a run of sub-threshold samples.

        ``gap`` counts the run's samples past the refractory ones (a
        negative ``gap`` leaves that many refractory samples), and
        ``window_sum`` is the window's population before the run.
        """
        if gap > 0:
            window = self._window
            n = self.n
            window.extend(repeat(False, gap if gap < n else n))
            if window_sum:
                window_sum = window.count(True)
            self._refractory_left = 0
        else:
            self._refractory_left = -gap
        self._window_sum = window_sum

    def observe_trace(self, samples) -> int:
        """Feed a whole trace; return the number of detections."""
        return len(self.observe_block(samples))

    def snapshot(self) -> DetectorState:
        """Capture full detector state for later :meth:`restore`."""
        return (
            tuple(self._window),
            self._window_sum,
            self._refractory_left,
            self.detections,
            self.samples_seen,
            self.threshold,
        )

    def restore(self, state: DetectorState) -> None:
        """Roll back to a state captured by :meth:`snapshot`."""
        window, window_sum, refractory_left, detections, seen, threshold = state
        self._window.clear()
        self._window.extend(window)
        self._window_sum = window_sum
        self._refractory_left = refractory_left
        self.detections = detections
        self.samples_seen = seen
        self.threshold = threshold

    @property
    def exceedances_in_window(self) -> int:
        """Current number of above-threshold samples in the window.

        O(1): maintained as a running counter by the observe paths.
        """
        return self._window_sum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KofNDetector(k={self.k}, n={self.n}, "
            f"threshold={self.threshold}, detections={self.detections})"
        )
