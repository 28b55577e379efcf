"""Ablation bench: the correctness-contingent reward interpretation.

DESIGN.md documents the one interpretive step the reproduction takes:
the paper's 1000/100/50 rewards must be paid only when the prompt is
*followed into the observed next step*.  This bench is the evidence:
with wrong prompts paid 0 the policy learns the routine perfectly;
paying wrong prompts like correct ones (100) destroys the learning
signal entirely.
"""

from repro.evalx.ablations import plan_wrong_reward_sweep
from repro.evalx.parallel import run_section


def test_ablation_wrong_reward(benchmark, registry):
    adl = registry.get("tea-making").adl
    table = benchmark.pedantic(
        run_section,
        args=(
            plan_wrong_reward_sweep(
                adl, wrong_rewards=(0.0, 50.0, 100.0), seeds=tuple(range(5))
            ),
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)
    accuracies = {}
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 2 and cells[0].replace(".", "").isdigit():
            accuracies[float(cells[0])] = float(cells[1].rstrip("%")) / 100
    assert accuracies[0.0] == 1.0
    # Paying unfollowed prompts the full correct-prompt amount removes
    # the signal; accuracy collapses toward chance.
    assert accuracies[100.0] < 0.7
    assert accuracies[100.0] < accuracies[0.0]
