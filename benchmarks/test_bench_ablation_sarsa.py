"""Ablation bench: Watkins Q(λ) vs SARSA(λ) on logged routine data.

CoReDA trains *off-policy* from logged episodes (the user's recorded
routine runs), which is exactly Q-learning's regime.  On-policy
SARSA(λ) lacks the strict trace cut and lets wrong-prompt TD errors
bleed into correct pairs, so it underperforms on the same logs --
evidence for the paper's choice of Q-learning.
"""

from repro.evalx.ablations import plan_sarsa_comparison
from repro.evalx.parallel import run_section


def test_ablation_sarsa(benchmark, registry):
    adl = registry.get("tea-making").adl
    table = benchmark.pedantic(
        run_section,
        args=(plan_sarsa_comparison(adl, seeds=tuple(range(8))),),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)
    lines = table.splitlines()
    q_row = next(line for line in lines if line.startswith("Watkins"))
    sarsa_row = next(line for line in lines if line.startswith("SARSA"))
    q_cells = [cell.strip() for cell in q_row.split("|")]
    assert q_cells[2] == "100%"
    accuracy = float(
        sarsa_row.split("accuracy")[1].split(")")[0].strip().rstrip("%")
    ) / 100
    assert accuracy < 1.0
