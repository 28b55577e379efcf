"""Quartiles, the bound rule and win fractions of ``python -m bench compare``."""

from __future__ import annotations

import json
import statistics

import pytest

from bench.compare import compare_files, quartiles, spread, verdict, win_fraction

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
RATE = {"name": "homes_per_s", "unit": "homes/s", "better": "higher", "bound": 0.1}


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.5]) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0]) == pytest.approx((3.75 - 1.25) / 2.5)


def test_within_the_bound_is_ok():
    a = [1.00, 1.01, 0.99, 1.00, 1.02]
    b = [1.05, 1.06, 1.04, 1.05, 1.07]
    result, change = verdict(a, b, 0.1, lower_is_better=True)
    assert result == "ok"
    assert change == pytest.approx(0.05)


def test_worse_than_the_bound_is_a_regression():
    a = [1.00, 1.01, 0.99, 1.00, 1.02]
    b = [1.20, 1.21, 1.19, 1.20, 1.22]
    assert verdict(a, b, 0.1, lower_is_better=True)[0] == "regression"


def test_higher_is_better_flips_the_sign():
    a = [100.0, 101.0, 99.0, 100.0]
    b = [80.0, 81.0, 79.0, 80.0]
    result, change = verdict(a, b, 0.1, lower_is_better=False)
    assert result == "regression"
    assert change == pytest.approx(0.2)
    assert verdict(b, a, 0.1, lower_is_better=False)[0] == "ok"


def test_spread_wider_than_the_bound_is_unresolved():
    a = [1.0, 1.3, 0.8, 1.1, 0.9]
    b = [1.0, 1.0, 1.0, 1.0, 1.0]
    assert spread(a) > 0.1
    assert verdict(a, b, 0.1, lower_is_better=True)[0] == "unresolved"


def test_wide_spread_resolves_when_every_run_of_b_is_better():
    a = [2.0, 2.6, 1.6, 2.2, 1.8]
    b = [1.0, 1.3, 0.8, 1.1, 0.9]
    assert verdict(a, b, 0.1, lower_is_better=True)[0] == "ok"


def test_win_fraction_pairs_in_order_and_ties_win_nothing():
    a = [1.0, 1.0, 1.0, 1.0]
    b = [0.9, 1.0, 1.1, 0.8]
    assert win_fraction(a, b, lower_is_better=True) == 0.5
    assert win_fraction(a, b, lower_is_better=False) == 0.25
    assert win_fraction([], [], lower_is_better=True) == 0.0


def _result(path, walls, error_rate=0.0, noisy=0):
    workload = {
        "samples": {
            "wall_s": walls,
            "homes_per_s": [1000 / wall for wall in walls],
        },
        "error_rate": error_rate,
        "noisy_blocks": noisy,
    }
    path.write_text(json.dumps({"workloads": {"fleet-warm": workload}}))
    return path


def test_compare_files_counts_regressions_per_metric(tmp_path):
    a = _result(tmp_path / "a.json", [3.0, 3.01, 2.99, 3.0])
    same = _result(tmp_path / "same.json", [3.02, 3.0, 3.01, 2.98])
    slow = _result(tmp_path / "slow.json", [3.6, 3.61, 3.59, 3.6])
    failing = _result(tmp_path / "fail.json", [3.0, 3.0, 3.0, 3.0], 0.25, 1)
    lines, regressions = compare_files(a, same, [WALL, RATE])
    assert regressions == 0
    assert all(line.endswith("ok") for line in lines[1:])
    _, regressions = compare_files(a, slow, [WALL, RATE])
    assert regressions == 2
    lines, regressions = compare_files(a, failing, [WALL, RATE])
    assert regressions == 1
    assert any("(noisy)" in line for line in lines)
    assert "error_rate" in lines[-1]
