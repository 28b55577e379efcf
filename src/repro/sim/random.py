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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "Pcg64Draws",
    "RandomStreams",
    "StreamBatch",
    "derive_seed",
    "generator_draws",
    "seed_sequence_words",
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


# numpy's ``SeedSequence`` mixing constants (``numpy/random/bit_generator.pyx``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
#: ``SeedSequence``'s default pool size, in 32-bit words.
_POOL_SIZE = 4


def _hash_steps(init: int, mult: int, count: int) -> List[Tuple[np.uint32, np.uint32]]:
    """``(xor, multiplier)`` of ``count`` successive ``SeedSequence``
    hashes: a hash xors its value with ``hash_const``, advances
    ``hash_const *= mult`` and multiplies the value by the new one.
    The constants never depend on the data."""
    steps = []
    for _ in range(count):
        following = (init * mult) & _LOW32
        steps.append((np.uint32(init), np.uint32(following)))
        init = following
    return steps


#: ``mix_entropy`` hashes 4 entropy words, then 12 pool words;
#: ``generate_state`` hashes 8 output words.
_MIX_STEPS = _hash_steps(_INIT_A, _MULT_A, 16)
_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_SHIFT = np.uint32(16)


def seed_sequence_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every
    seed in ``[0, 2**64)``, as one ``(len(seeds), 4)`` array.

    numpy's ``SeedSequence`` mixes a seed's 32-bit words into a
    4-word pool in scalar code; here every step runs across all seeds
    at once, in ``uint32`` arithmetic that wraps as numpy's does.  A
    seed below ``2**32`` (one entropy word) mixes exactly as its
    two-word form with a zero high word, since a missing word hashes
    as 0.
    """
    entropy = np.array(seeds, dtype=np.uint64)
    steps = iter(_MIX_STEPS)

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(steps)
        value = (value ^ xor) * mult
        value ^= value >> _SHIFT
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        result ^= result >> _SHIFT
        return result

    zeros = np.zeros(entropy.shape, dtype=np.uint32)
    pool = [
        hashmix((entropy & _LOW32).astype(np.uint32)),
        hashmix((entropy >> np.uint64(32)).astype(np.uint32)),
        hashmix(zeros),
        hashmix(zeros),
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    state = np.empty((entropy.shape[0], 2 * _POOL_SIZE), dtype="<u4")
    for index, (xor, mult) in enumerate(_STATE_STEPS):
        value = (pool[index % _POOL_SIZE] ^ xor) * mult
        value ^= value >> _SHIFT
        state[:, index] = value
    return state.view("<u8").astype(np.uint64)


class _PresetSeedSequence(ISeedSequence):
    """A seed sequence that hands ``PCG64`` words computed ahead."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError("preset words serve PCG64 seeding only")
        return self._words


class StreamBatch:
    """Generators for many named streams, seeded in one vectorised pass.

    ``requests`` are ``(master seed, name)`` pairs, as a
    :class:`RandomStreams` rooted at that master seed would ask for
    them.  :meth:`take` hands out each generator once; it is
    draw-for-draw the ``default_rng(derive_seed(master, name))`` that
    :meth:`RandomStreams.get` builds without a batch, at a fraction of
    the cost of seeding it through ``SeedSequence`` one at a time.
    """

    __slots__ = ("_rows", "_words")

    def __init__(self, requests: Iterable[Tuple[int, str]]) -> None:
        rows: Dict[Tuple[int, str], int] = {}
        seeds = []
        for master, name in requests:
            if (master, name) not in rows:
                rows[master, name] = len(seeds)
                seeds.append(derive_seed(master, name))
        self._rows = rows
        self._words = seed_sequence_words(seeds)

    def take(self, master_seed: int, name: str) -> Optional[np.random.Generator]:
        """The generator of stream ``name`` under ``master_seed``, or
        ``None`` when the batch does not hold it (or gave it out)."""
        row = self._rows.pop((master_seed, name), None)
        if row is None:
            return None
        return np.random.Generator(
            np.random.PCG64(_PresetSeedSequence(self._words[row]))
        )

    def __len__(self) -> int:
        """Streams not yet taken."""
        return len(self._rows)


class RandomStreams:
    """A factory of independent named :class:`numpy.random.Generator` s.

    Streams are cached: asking twice for the same name returns the
    same generator object, so a component can re-fetch its stream
    instead of threading it through every call.

    ``batch`` optionally supplies streams seeded ahead in a
    :class:`StreamBatch` (forks share it); a stream it does not hold
    is seeded on its own, with the same draws either way.
    """

    def __init__(
        self, master_seed: int = 0, batch: Optional[StreamBatch] = None
    ) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._batch = batch

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            if self._batch is not None:
                rng = self._batch.take(self.master_seed, name)
            if rng is None:
                rng = np.random.default_rng(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RandomStreams":
        """Return a child ``RandomStreams`` rooted at a derived seed.

        Useful for running many residents or trials, each with a fully
        independent family of streams.
        """
        return RandomStreams(
            derive_seed(self.master_seed, f"fork:{name}"), self._batch
        )

    def spawned(self) -> int:
        """Number of distinct streams created so far."""
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RandomStreams(master_seed={self.master_seed}, "
            f"streams={len(self._streams)})"
        )
