"""Sensitivity benches: learning rate α and exploration schedule ε.

Together with the λ ablation these pin the reproduction's central
engineering finding: on the paper's short ADL chains, convergence
speed is governed **entirely by the exploration schedule** -- α and λ
barely matter -- and the paper's "update all the while" setting
(ε never decaying) never satisfies the convergence criterion even
though the greedy policy is perfect.
"""

from repro.evalx.parallel import run_section
from repro.evalx.sensitivity import plan_alpha_sweep, plan_epsilon_sweep

SEEDS = tuple(range(8))


def _rows(table, prefix=None):
    rows = []
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 4 and cells[1] not in ("Mean iterations (95%)",):
            if prefix is None or cells[0].startswith(prefix):
                rows.append(cells)
    return rows


def test_sensitivity_alpha(benchmark, registry):
    adl = registry.get("tea-making").adl
    table = benchmark.pedantic(
        run_section,
        args=(plan_alpha_sweep(adl, seeds=SEEDS),),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)
    rows = _rows(table)
    assert len(rows) == 5
    iterations = [float(row[1]) for row in rows]
    # α-insensitive: every α converges, spread stays tight.
    assert all(row[2] == "100%" for row in rows)
    assert all(row[3] == "100%" for row in rows)
    assert max(iterations) - min(iterations) <= 15


def test_sensitivity_epsilon(benchmark, registry):
    adl = registry.get("tea-making").adl
    table = benchmark.pedantic(
        run_section,
        args=(plan_epsilon_sweep(adl, seeds=SEEDS),),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)
    rows = {row[0]: row for row in _rows(table)}
    # More exploration -> later convergence (monotone in ε0).
    decaying = [rows[f"eps0={e} decay=0.978"] for e in (0.1, 0.2, 0.4)]
    iterations = [float(row[1]) for row in decaying]
    assert iterations == sorted(iterations)
    # The paper's "update all the while" mode: never converges, yet
    # the greedy policy is perfect.
    always = rows["eps0=0.4 decay=1.0"]
    assert always[1] == "-"
    assert always[2] == "0%"
    assert always[3] == "100%"
