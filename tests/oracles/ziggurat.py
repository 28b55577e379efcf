"""numpy's standard-normal ziggurat, probed through its own generator.

:class:`~repro.sensors.signals.SignalSource` decodes active-sample
normals straight from raw PCG64 words with the ``KI``/``WI`` tables of
:mod:`repro.sim.ziggurat`.  Those tables are numpy's, read back here
without reading numpy's source: a ``Generator`` over a crafted
:class:`~numpy.random.MT19937` draws a normal from a chosen 64-bit
word, and how far the generator's ``pos`` moved tells whether the word
took the one-word fast path.

* The MT19937 key holds the *untempered* 32-bit halves of the chosen
  words, with ``pos`` 0, so the generator emits them verbatim; a 64-bit
  draw takes the high half first.
* ``WI[i]`` is the normal drawn from word ``i | 1 << 9`` (``rabs`` 1,
  sign bit clear).
* ``KI[i]`` is the smallest ``rabs`` whose word with index ``i`` leaves
  the fast path, i.e. whose draw moves ``pos`` by more than 2.

:func:`check_tables` is the cheap pin (about 770 probes) that tier-1
runs; ``python -m tests.oracles.ziggurat`` re-derives both tables with
a full binary search and rewrites the literal module, for when numpy's
ziggurat changes.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["ZigguratProbe", "check_tables", "derive_tables", "render_module"]

#: Mask of the 52-bit magnitude field of a ziggurat word.
RABS_MASK = (1 << 52) - 1
#: The literal module :func:`main` rewrites.
MODULE_PATH = Path(__file__).resolve().parents[2] / "src/repro/sim/ziggurat.py"
#: Every word after the probed one: ``next_double`` of it is 0.5 (so a
#: slow-path acceptance test terminates), and as a normal word it has
#: index 0 and ``rabs`` 0, which is always fast.
_TAIL_WORD = 1 << 63


def untemper(y: int) -> int:
    """Invert MT19937's output tempering of one 32-bit word."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(2):
        x = y ^ (x >> 11)
    return x & 0xFFFFFFFF


class ZigguratProbe:
    """Draws one standard normal from a chosen 64-bit generator word."""

    def __init__(self) -> None:
        self._bitgen = np.random.MT19937(0)
        self._gen = np.random.Generator(self._bitgen)
        self._key = np.full(
            624, untemper(_TAIL_WORD >> 32), dtype=np.uint32
        )
        self._key[1::2] = untemper(_TAIL_WORD & 0xFFFFFFFF)

    def draw(self, word: int) -> Tuple[float, int]:
        """``(normal, 32-bit words consumed)`` drawn from ``word``."""
        key = self._key.copy()
        key[0] = untemper(word >> 32)
        key[1] = untemper(word & 0xFFFFFFFF)
        self._bitgen.state = {
            "bit_generator": "MT19937",
            "state": {"key": key, "pos": 0},
        }
        z = self._gen.standard_normal()
        return z, self._bitgen.state["state"]["pos"]

    def is_fast(self, index: int, rabs: int) -> bool:
        """True if the word ``(index, rabs)`` takes the one-word path."""
        return self.draw(index | (rabs << 9))[1] == 2


def derive_tables() -> Tuple[List[int], List[float]]:
    """Read ``(KI, WI)`` back from numpy by binary search (~13k probes)."""
    probe = ZigguratProbe()
    ki: List[int] = []
    wi: List[float] = []
    for index in range(256):
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            if probe.is_fast(index, mid):
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
        wi.append(probe.draw(index | (1 << 9))[0])
    return ki, wi


def check_tables(ki: Sequence[int], wi: Sequence[float]) -> List[str]:
    """Probe every index at its ``KI`` boundary and its ``WI`` value.

    Returns one line per disagreement with numpy (empty when the
    tables are exact): a ``rabs = KI - 1`` word must be fast, a
    ``rabs = KI`` word slow, and ``WI`` must be the drawn normal bit
    for bit.
    """
    probe = ZigguratProbe()
    problems: List[str] = []
    for index in range(256):
        bound = ki[index]
        if bound > 0 and not probe.is_fast(index, bound - 1):
            problems.append(f"KI[{index}]: rabs {bound - 1} is not fast")
        if bound <= RABS_MASK and probe.is_fast(index, bound):
            problems.append(f"KI[{index}]: rabs {bound} is fast")
        z = probe.draw(index | (1 << 9))[0]
        if np.float64(z).tobytes() != np.float64(wi[index]).tobytes():
            problems.append(f"WI[{index}]: {wi[index]!r} != drawn {z!r}")
    return problems


def render_module(ki: Sequence[int], wi: Sequence[float]) -> str:
    """The source of :mod:`repro.sim.ziggurat` for these tables."""
    lines = [
        '"""numpy\'s standard-normal ziggurat tables, as literals.',
        "",
        "``random_standard_normal`` splits one 64-bit generator word ``w``",
        "into ``idx = w & 0xff``, a sign bit ``(w >> 8) & 1`` and",
        "``rabs = (w >> 9) & (2**52 - 1)``.  When ``rabs < KI[idx]`` (about",
        "98% of words) the normal is ``rabs * WI[idx]``, negated if the sign",
        "bit is set, and the draw consumed that one word; otherwise numpy",
        "takes a slow path that consumes more words.",
        "",
        "Generated by ``python -m tests.oracles.ziggurat`` (``make",
        "ziggurat-tables``), which reads both tables back from numpy's own",
        "``Generator``; a tier-1 test pins them.  No generator is built here.",
        '"""',
        "",
        "from typing import Tuple",
        "",
        '__all__ = ["KI", "WI"]',
        "",
        "#: Fast-path bound on ``rabs`` per ziggurat index.",
        "KI: Tuple[int, ...] = (",
    ]
    lines.extend(f"    {value}," for value in ki)
    lines.append(")")
    lines.append("")
    lines.append("#: Normal per unit of ``rabs`` per ziggurat index.")
    lines.append("WI: Tuple[float, ...] = (")
    lines.extend(f"    {value!r}," for value in wi)
    lines.append(")")
    return "\n".join(lines) + "\n"


def main() -> None:
    ki, wi = derive_tables()
    problems = check_tables(ki, wi)
    if problems:
        raise SystemExit(
            "derived tables fail their own check:\n" + "\n".join(problems)
        )
    MODULE_PATH.write_text(render_module(ki, wi), encoding="utf-8")
    print(f"wrote {MODULE_PATH}")


if __name__ == "__main__":
    main()
