"""Synthetic sensor waveforms standing in for real tool handling.

The paper's nodes observe real accelerometer / pressure readings as a
patient manipulates tools.  We replace the physical world with a
:class:`SignalSource` per node: the resident model calls
``begin_use`` / ``end_use`` around each step, and the node's sampling
loop reads instantaneous magnitudes.

The waveform model is deliberately simple but captures the one
property the paper's Table 3 hinges on: **short uses are easy to
miss**.  While a tool is active, each 10 Hz sample is an activity
burst exceeding the detection threshold with probability
``burst_probability``; otherwise (and always when inactive) it is
baseline noise.  A short use yields few samples, so the 3-of-10 rule
sometimes never sees three bursts in one window -- exactly why the
paper measured "Dry with a towel" at 85% and "Pour hot water" at 80%.

Two read paths exist and are draw-for-draw identical:

* :meth:`SignalSource.read` -- one scalar sample (the reference
  per-sample firmware loop);
* :meth:`SignalSource.read_block` / :meth:`SignalSource.read_block_at`
  -- a whole block at once.  Idle stretches are one vectorised
  ``normal`` call.  Active stretches decode raw PCG64 words: the scalar
  loop's one uniform then one normal per sample is two generator words
  whenever the normal takes numpy's one-word ziggurat fast path (about
  98% of words), so a block takes its words with one ``random_raw``
  call and decodes them with the tables of :mod:`repro.sim.ziggurat`.
  At the first word that leaves the fast path the generator is rewound
  to it and that one sample is drawn by ``normal`` itself.  Either way
  a block read leaves the generator in the same state as the
  equivalent scalar reads and produces the same bytes.

A monotonically increasing :attr:`SignalSource.epoch` is bumped on
every regime transition, and regime listeners (the node firmware's
block fast path) are notified on every *external* ``begin_use`` /
``end_use`` so they can invalidate and resynchronise samples they
pre-drew past the change (see ``docs/architecture.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.core.config import check_domains, domain
from repro.sim.ziggurat import KI, WI

__all__ = ["ClockLine", "SignalProfile", "SignalSource", "sample_clock"]

#: Opaque source state: (bit-generator state, active, active-until).
SourceState = Tuple[Any, bool, float]

#: Ziggurat tables indexed by ``word & 511``: index and sign bit
#: together, so the sign is folded into ``WI``.
_KI_SIGNED = KI + KI
_WI_SIGNED = WI + tuple(-w for w in WI)
_RABS_MASK = (1 << 52) - 1
#: Active samples decoded per ``random_raw`` call.  A slow word
#: discards the rest of its chunk, so the cap keeps a long active read
#: linear instead of quadratic in its slow words.
_CHUNK_SAMPLES = 128


def sample_clock(start: float, period: float, n: int) -> np.ndarray:
    """``n`` sample timestamps from ``start``, one ``period`` apart.

    ``np.add.accumulate`` is a strict left fold, so entry ``k`` is
    bit-identical to adding ``period`` to ``start`` ``k`` times -- the
    kernel clock of a firmware loop that sleeps one period per sample.
    """
    clock = np.empty(n)
    clock.fill(period)
    clock[:1] = start
    return np.add.accumulate(clock, out=clock)


class ClockLine:
    """One sample clock shared by every node booted at ``start``.

    Entry ``k`` is ``start`` with ``period`` added ``k`` times, so a
    block that begins on entry ``k`` reads its clock as the window
    ``[k, k + n]`` instead of folding its own: a fold started from
    entry ``k`` gives the same floats.  The line grows on demand by
    continuing the fold from its last entry (at least doubling, so a
    line of ``m`` entries is built in ``O(log m)`` folds), and its
    windows are read-only views.
    """

    __slots__ = ("period", "_times")

    #: Entries of a new line: a few minutes of 10 Hz samples.
    INITIAL_ENTRIES = 1024

    def __init__(self, start: float, period: float) -> None:
        self.period = period
        self._times = sample_clock(start, period, self.INITIAL_ENTRIES)
        self._times.flags.writeable = False

    def window(self, k: int, n: int) -> np.ndarray:
        """Entries ``k`` to ``k + n - 1``, as a read-only view."""
        end = k + n
        times = self._times
        if end > times.shape[0]:
            times = self._extend(end)
        return times[k:end]

    def _extend(self, end: int) -> np.ndarray:
        times = self._times
        size = times.shape[0]
        grown = max(end, 2 * size)
        tail = sample_clock(times.item(-1), self.period, grown - size + 1)
        times = self._times = np.concatenate((times, tail[1:]))
        times.flags.writeable = False
        return times


@dataclass(frozen=True)
class SignalProfile:
    """Statistical shape of one tool's sensor signal while handled.

    ``burst_probability``: chance each active-period sample is an
    activity burst.  ``burst_mean`` / ``burst_sd``: burst magnitude
    distribution (must sit well above the detection threshold).
    ``noise_sd``: half-normal baseline noise magnitude.
    """

    burst_probability: float = domain(0.6, "(0, 1]")
    burst_mean: float = domain(2.0, "(0, inf)")
    burst_sd: float = domain(0.35, "[0, inf)")
    noise_sd: float = domain(0.18, "[0, inf)")

    def __post_init__(self) -> None:
        check_domains(self)


class SignalSource:
    """The instantaneous sensor reading of one node.

    The source is *stateful*: :meth:`begin_use` switches it into the
    active regime until :meth:`end_use` (or until ``duration`` elapses
    if one was given).  Reads are pure draws -- the sampling loop owns
    the 10 Hz cadence.

    ``rng`` must be a generator over :class:`numpy.random.PCG64`: block
    reads decode its raw words and rewind it with ``advance``.
    """

    __slots__ = (
        "profile",
        "_rng",
        "_bitgen",
        "_active",
        "_active_until",
        "epoch",
        "_regime_listeners",
        "checkpoint",
    )

    def __init__(self, profile: SignalProfile, rng: np.random.Generator) -> None:
        bitgen = getattr(rng, "bit_generator", None)
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(
                "SignalSource needs a PCG64 generator, got "
                f"{type(bitgen).__name__}"
            )
        self.profile = profile
        self._rng = rng
        self._bitgen = bitgen
        self._active = False
        self._active_until: float = float("inf")
        #: Monotonic regime-transition counter; compare before/after
        #: to detect that pre-drawn samples may be stale.
        self.epoch = 0
        self._regime_listeners: List[Callable[[], None]] = []
        #: The :meth:`capture` of the source at the first idle sample
        #: of the last block read that a use's expiry split (a use
        #: sampled first).  The node replays from here, not from the
        #: block start, when a change lands in the idle tail.
        self.checkpoint: Optional[SourceState] = None

    @property
    def active(self) -> bool:
        """True while the tool is being handled."""
        return self._active

    @property
    def active_until(self) -> float:
        """Simulated time the active regime auto-expires (inf = never)."""
        return self._active_until

    def subscribe_regime(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` after every external regime change.

        Fires on public :meth:`begin_use` / :meth:`end_use` only --
        *not* on the automatic duration expiry a read performs itself,
        which the reader by construction already observes.
        """
        self._regime_listeners.append(callback)

    def begin_use(self, now: float = 0.0, duration: float = float("inf")) -> None:
        """Enter the active regime (optionally for ``duration`` seconds)."""
        self._active = True
        self._active_until = now + duration
        self.epoch += 1
        self._notify_regime()

    def end_use(self) -> None:
        """Return to the baseline regime."""
        self._expire()
        self._notify_regime()

    def _expire(self) -> None:
        """Regime flip to baseline without notifying listeners."""
        self._active = False
        self._active_until = float("inf")
        self.epoch += 1

    def _notify_regime(self) -> None:
        for callback in list(self._regime_listeners):
            callback()

    def read(self, now: float) -> float:
        """Sample the signal magnitude at simulated time ``now``."""
        if self._active and now >= self._active_until:
            self._expire()
        if self._active and self._rng.random() < self.profile.burst_probability:
            burst = self._rng.normal(self.profile.burst_mean, self.profile.burst_sd)
            return float(max(burst, 0.0))
        return float(abs(self._rng.normal(0.0, self.profile.noise_sd)))

    def read_block_at(self, times) -> np.ndarray:
        """Sample at each of ``times`` (non-decreasing), vectorised.

        Exactly equivalent to ``[self.read(t) for t in times]`` --
        same values, same generator state afterwards, same automatic
        expiry of a finite ``begin_use`` duration -- but idle
        stretches are drawn with one vectorised ``normal`` call and
        active ones are decoded from raw words (:meth:`_read_active`).
        """
        rng = self._rng
        profile = self.profile
        if not self._active:
            # Dominant case: an entirely idle block never consults the
            # timestamps at all, so skip the bookkeeping below.
            out = rng.normal(0.0, profile.noise_sd, len(times))
            return np.abs(out, out=out)
        times = np.asarray(times, dtype=float)
        n = times.shape[0]
        out = np.empty(n)
        pos = 0
        while pos < n:
            if self._active:
                until = self._active_until
                if until == float("inf"):
                    m = n - pos
                else:
                    # Samples at t >= until belong to the expired regime.
                    m = int(times[pos:].searchsorted(until))
                    if m == 0:
                        self._expire()
                        continue
                out[pos : pos + m] = self._read_active(m)
                pos += m
                if pos < n:
                    self._expire()
                    self.checkpoint = self.capture()
            else:
                # One normal per inactive sample: an array draw is
                # bit-identical to the same number of scalar draws.
                out[pos:] = np.abs(rng.normal(0.0, profile.noise_sd, n - pos))
                pos = n
        return out

    def _read_active(self, m: int) -> List[float]:
        """``m`` active-regime reads, decoded from raw generator words.

        A scalar active read is ``random()`` then ``normal()``: one
        word ``u`` decides the burst, since ``random()`` is
        ``(u >> 11) * 2**-53``, and the normal's first word ``w``
        decodes to ``rabs * WI[idx]`` when ``rabs < KI[idx]``.  A
        chunk of ``c`` samples draws its ``2c`` words at once; at the
        first slow ``w`` the generator is rewound to just before it
        and ``normal`` draws that sample from the live stream, which
        consumes however many words its slow path needs.
        """
        profile = self.profile
        # u < cut  <=>  (u >> 11) * 2**-53 < burst_probability.
        cut = math.ceil(profile.burst_probability * 2.0**53) << 11
        burst_mean = profile.burst_mean
        burst_sd = profile.burst_sd
        noise_sd = profile.noise_sd
        bitgen = self._bitgen
        random_raw = bitgen.random_raw
        ki = _KI_SIGNED
        wi = _WI_SIGNED
        rabs_mask = _RABS_MASK
        values: List[float] = []
        append = values.append
        done = 0
        while done < m:
            c = min(m - done, _CHUNK_SAMPLES)
            words = iter(random_raw(2 * c).tolist())
            # Per sample: the burst uniform's word, then the normal's.
            # A fast normal is ``rabs * WI[idx]`` with the sign folded
            # into the ``word & 511`` index.
            for u, w in zip(words, words):
                j = w & 511
                rabs = (w >> 9) & rabs_mask
                if rabs >= ki[j]:
                    break
                if u < cut:
                    burst = burst_mean + burst_sd * (rabs * wi[j])
                    append(burst if burst > 0.0 else 0.0)
                else:
                    append(abs(noise_sd * (rabs * wi[j])))
            else:
                done += c
                continue
            # Slow word: rewind to the normal word of sample k.
            # ``advance`` also drops a buffered 32-bit half, which no
            # word draw touches, so put it back.
            k = len(values) - done
            buffered = bitgen.state
            bitgen.advance(2 * k + 1 - 2 * c)
            if buffered["has_uint32"]:
                buffered["state"] = bitgen.state["state"]
                bitgen.state = buffered
            if u < cut:
                burst = self._rng.normal(burst_mean, burst_sd)
                append(burst if burst > 0.0 else 0.0)
            else:
                append(abs(self._rng.normal(0.0, noise_sd)))
            done += k + 1
        return values

    def read_block(self, now: float, n: int, hz: float) -> np.ndarray:
        """Sample ``n`` readings at ``hz`` starting at ``now``.

        Sample times come from :func:`sample_clock`, so regime-expiry
        comparisons land on exactly the timestamps the scalar loop
        would see.
        """
        if not self._active:
            # Idle blocks never consult the timestamps; skip building
            # them (this is the hot path of an idle node).
            out = self._rng.normal(0.0, self.profile.noise_sd, n)
            return np.abs(out, out=out)
        return self.read_block_at(sample_clock(now, 1.0 / hz, n))

    def capture(self) -> SourceState:
        """Snapshot (generator state, regime) for :meth:`restore`."""
        return (self._rng.bit_generator.state, self._active, self._active_until)

    def restore(self, state: SourceState) -> None:
        """Roll generator and regime back to a :meth:`capture` point.

        Used by the block fast path to replay the committed prefix of
        an invalidated block; does not touch :attr:`epoch` (which is
        monotonic) and does not notify regime listeners.
        """
        rng_state, active, active_until = state
        self._rng.bit_generator.state = rng_state
        self._active = active
        self._active_until = active_until

    def set_regime(self, active: bool, active_until: float) -> None:
        """Force the regime without draws or notifications.

        Fast-path internal: after a resynchronising replay the node
        re-applies the externally-changed regime on top of the
        restored generator position.
        """
        self._active = active
        self._active_until = active_until

    def read_trace(self, start: float, n_samples: int, hz: float) -> np.ndarray:
        """Sample ``n_samples`` readings at ``hz`` starting at ``start``.

        Convenience for offline experiments (the Table 3 harness feeds
        pre-sampled traces straight into a detector without running
        the full event kernel).  Times sit on the exact
        ``start + k/hz`` grid (as the original scalar implementation's
        ``np.arange`` did) and the draws match it draw-for-draw.
        """
        times = start + np.arange(n_samples) / hz
        return self.read_block_at(times)
