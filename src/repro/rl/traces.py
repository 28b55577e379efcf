"""Eligibility-trace kinds for TD(λ) methods.

Traces give credit for a TD error to recently visited state-action
pairs, which is what makes TD(λ) converge in dozens rather than
hundreds of episodes on the paper's short ADL chains.  Both classic
variants are supported (the traces themselves are
:class:`~repro.rl.dense.DenseTraces`):

* **accumulating** -- ``e(s,a) += 1`` on a visit;
* **replacing** -- ``e(s,a) = 1`` on a visit (often more stable).
"""

from __future__ import annotations

import enum

__all__ = ["TraceKind"]


class TraceKind(enum.Enum):
    """The two standard eligibility-trace update rules."""

    ACCUMULATING = "accumulating"
    REPLACING = "replacing"
