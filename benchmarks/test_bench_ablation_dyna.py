"""Ablation bench: Dyna-Q (the "fast learning" future-work item).

Finding (documented in EXPERIMENTS.md): with the default optimistic
initialization, iterations-to-converge are bound by the ε-greedy
exploration schedule, so model-based replay cannot shorten the curve
-- the fast-learning demand of the paper's future work is already met
by the optimistic-initialization design.  The bench asserts Dyna-Q is
a safe drop-in (100% convergence, same band), and the unit tests
(tests/test_rl_dyna.py) show the regime where planning *does*
accelerate value propagation.
"""

from repro.evalx.ablations import plan_dyna_sweep
from repro.evalx.parallel import run_section


def test_ablation_dyna(benchmark, registry):
    adl = registry.get("tea-making").adl
    table = benchmark.pedantic(
        run_section,
        args=(
            plan_dyna_sweep(
                adl, planning_steps=(0, 5, 20), seeds=tuple(range(8))
            ),
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)
    rows = [
        line
        for line in table.splitlines()
        if line.startswith("TD(") or line.startswith("Dyna-Q")
    ]
    assert len(rows) == 4
    for row in rows:
        cells = [cell.strip() for cell in row.split("|")]
        assert cells[2] == "100%"
        assert float(cells[1]) <= 120
