"""Medians, quartiles and the regression rule for two result files.

For each (metric, workload) pair the change B is held against the
parent A:

* worse by more than the metric's bound -> ``regression``;
* either side's quartile spread, as a share of its median, wider than
  the bound -> ``unresolved``, unless every sample of B beats every
  sample of A;
* otherwise ``ok``.

The win fraction pairs A's and B's samples in run order (ties count
for neither side); a gain needs at least nine tenths.  A workload with
a block whose calibration kernel drifted is flagged ``noisy``: its
verdict cannot pass silently as a win or a regression.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "compare_files",
    "quartiles",
    "spread",
    "verdict",
    "win_fraction",
]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); Python's default ``quantiles`` method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _better(lower_is_better: bool, b: float, a: float) -> bool:
    return b < a if lower_is_better else b > a


def win_fraction(
    a: Sequence[float], b: Sequence[float], lower_is_better: bool
) -> float:
    """Share of run-order pairs (a_i, b_i) that B wins; ties win nothing."""
    pairs = list(zip(a, b))
    if not pairs:
        return 0.0
    wins = sum(1 for x, y in pairs if _better(lower_is_better, y, x))
    return wins / len(pairs)


def verdict(
    a: Sequence[float], b: Sequence[float], bound: float, lower_is_better: bool
) -> Tuple[str, float]:
    """(``ok`` | ``regression`` | ``unresolved``, change as a share of A).

    The change is signed so that positive means worse.
    """
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    change = (median_b - median_a) / median_a if median_a else 0.0
    if not lower_is_better:
        change = -change
    if max(spread(a), spread(b)) > bound:
        if all(_better(lower_is_better, y, x) for x in a for y in b):
            return "ok", change
        return "unresolved", change
    if change > bound:
        return "regression", change
    return "ok", change


def compare_files(
    path_a: Path, path_b: Path, end_to_end: Sequence[Dict[str, object]]
) -> Tuple[List[str], int]:
    """The comparison table and the number of regressions."""
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    lines = [
        f"{'workload':<22} {'metric':<12} {'A median [q1, q3]':<30} "
        f"{'B median [q1, q3]':<30} {'change':>8} {'wins':>5}  verdict"
    ]
    regressions = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        noisy = wa["noisy_blocks"] or wb["noisy_blocks"]
        for metric in end_to_end:
            key = metric["name"]
            sa, sb = wa["samples"].get(key), wb["samples"].get(key)
            if not sa or not sb:
                continue
            lower = metric["better"] == "lower"
            result, change = verdict(sa, sb, metric["bound"], lower)
            regressions += result == "regression"
            if noisy:
                result += " (noisy)"
            lines.append(
                f"{name:<22} {key:<12} {_cell(sa):<30} {_cell(sb):<30} "
                f"{change:>+8.1%} {win_fraction(sa, sb, lower):>5.0%}  {result}"
            )
        failed_a, failed_b = wa["error_rate"], wb["error_rate"]
        if failed_b > failed_a:
            regressions += 1
            lines.append(
                f"{name:<22} error_rate   {failed_a:.3f} -> {failed_b:.3f}  regression"
            )
    return lines, regressions


def _cell(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"
