"""Reproducible, named random-number streams.

Every stochastic component (signal noise, radio loss, resident error
model, RL exploration, ...) draws from its own stream, derived
deterministically from one master seed and the stream's name.  Adding
a new component therefore never perturbs the draws -- and hence the
results -- of existing ones, which keeps experiment outputs stable as
the codebase grows.
"""

from __future__ import annotations

import hashlib
from operator import length_hint
from typing import Dict, List

import numpy as np

__all__ = [
    "Pcg64Draws",
    "RandomStreams",
    "derive_seed",
    "generator_draws",
    "seeded_generator",
]

_LOW32 = 0xFFFFFFFF
#: ``Generator.random()``'s scale: a word's top 53 bits times 2**-53.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
#: Words drawn per refill once a draw-ahead runs out.
_REFILL_WORDS = 64


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from ``master_seed`` and ``name``.

    Uses SHA-256 so the mapping is stable across Python processes and
    versions (unlike ``hash()``, which is salted).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def seeded_generator(seed: int) -> np.random.Generator:
    """A fresh generator for an *explicit* seed.

    The one sanctioned construction point outside
    :class:`RandomStreams` (the DET001 lint rule pins every other
    module to this module): experiment cells that are parameterised
    by a literal seed -- ablation sweeps, offline trainers -- call
    this instead of ``np.random.default_rng`` so that auditing "who
    can create randomness?" stays a one-file job.  Draw-for-draw
    identical to ``default_rng(seed)``.
    """
    return np.random.default_rng(seed)


class Pcg64Draws:
    """``random()`` and ``integers`` of a PCG64 generator, decoded from
    raw words drawn ahead.

    numpy's ``Generator.random()`` is one 64-bit word ``w`` scaled as
    ``(w >> 11) * 2**-53``.  ``Generator.integers(n)`` is Lemire's
    method on 32-bit halves: a half is the low 32 bits of a fresh word
    whose high 32 bits the bit generator buffers (``has_uint32`` /
    ``uinteger``) for the next 32-bit request.  Decoding those in
    Python skips numpy's per-call dispatch, which costs more than the
    draw itself at one value per call.  Words are drawn ``reserve``
    at a time up front, then in small refills; :meth:`close` rewinds
    the words not consumed and writes the buffered half back, leaving
    the generator exactly as numpy's own calls would.  Until then
    nothing else may draw from the generator.
    """

    __slots__ = ("_bitgen", "_iter", "_next", "_has", "_half", "_start")

    def __init__(self, rng: np.random.Generator, reserve: int) -> None:
        bitgen = rng.bit_generator
        state = bitgen.state
        self._bitgen = bitgen
        self._start = (state["has_uint32"], state["uinteger"])
        # numpy leaves ``uinteger`` stale once the half is taken.
        self._has, self._half = self._start
        self._draw_ahead(reserve)

    def _draw_ahead(self, count: int) -> None:
        self._iter = iter(self._bitgen.random_raw(max(count, 1)).tolist())
        self._next = self._iter.__next__

    def _word(self) -> int:
        try:
            return self._next()
        except StopIteration:
            self._draw_ahead(_REFILL_WORDS)
            return self._next()

    def random(self) -> float:
        """``Generator.random()``."""
        try:
            word = self._next()
        except StopIteration:
            word = self._word()
        return (word >> 11) * _DOUBLE_UNIT

    def integers(self, n: int, k: int) -> List[int]:
        """``Generator.integers(n, size=k).tolist()``, ``1 <= n <= 2**32``."""
        if n == 1:
            # A one-value range draws nothing.
            return [0] * k
        low32 = _LOW32
        next_word = self._next
        has, half = self._has, self._half
        out = []
        for _ in range(k):
            while True:
                if has:
                    has = 0
                    m = half * n
                else:
                    try:
                        fresh = next_word()
                    except StopIteration:
                        fresh = self._word()
                        next_word = self._next
                    has, half = 1, fresh >> 32
                    m = (fresh & low32) * n
                # Reject only a low half under (2**32 - n) % n, which
                # is itself under n.
                if m & low32 >= n or m & low32 >= ((1 << 32) - n) % n:
                    break
            out.append(m >> 32)
        self._has, self._half = has, half
        return out

    def close(self) -> None:
        """Hand the generator back at the last decoded draw."""
        unused = length_hint(self._iter)
        if unused:
            # ``advance`` also clears the half buffer, rewritten below.
            self._bitgen.advance(-unused)
        if unused or (self._has, self._half) != self._start:
            state = self._bitgen.state
            state["has_uint32"], state["uinteger"] = self._has, self._half
            self._bitgen.state = state


class _GeneratorDraws:
    """The :class:`Pcg64Draws` interface over numpy's own calls."""

    __slots__ = ("random", "_integers")

    def __init__(self, rng: np.random.Generator) -> None:
        self.random = rng.random
        self._integers = rng.integers

    def integers(self, n: int, k: int) -> List[int]:
        return self._integers(n, size=k).tolist()

    def close(self) -> None:
        pass


def generator_draws(rng: np.random.Generator, reserve: int):
    """``random()``/``integers(n, k)``/``close()`` draws of ``rng``:
    decoded by :class:`Pcg64Draws` for a PCG64 generator (every
    generator this package builds), numpy's own calls otherwise.
    ``reserve`` is the number of 64-bit words the caller expects to
    consume."""
    if type(rng.bit_generator) is np.random.PCG64:
        return Pcg64Draws(rng, reserve)
    return _GeneratorDraws(rng)


class RandomStreams:
    """A factory of independent named :class:`numpy.random.Generator` s.

    Streams are cached: asking twice for the same name returns the
    same generator object, so a component can re-fetch its stream
    instead of threading it through every call.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            seed = derive_seed(self.master_seed, name)
            self._streams[name] = np.random.default_rng(seed)
        return self._streams[name]

    def fork(self, name: str) -> "RandomStreams":
        """Return a child ``RandomStreams`` rooted at a derived seed.

        Useful for running many residents or trials, each with a fully
        independent family of streams.
        """
        return RandomStreams(derive_seed(self.master_seed, f"fork:{name}"))

    def spawned(self) -> int:
        """Number of distinct streams created so far."""
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RandomStreams(master_seed={self.master_seed}, "
            f"streams={len(self._streams)})"
        )
