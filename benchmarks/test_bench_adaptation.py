"""Bench: online adaptation speed (the §3.2 always-learning mode).

After a user changes their routine, how many lived episodes until the
deployed policy tracks the new one?  Single-digit episode counts --
far below the 120 of initial training, because the optimistic
rule-out only has to re-decide the states whose successors changed.
"""

from repro.evalx.ablations import plan_adaptation_speed
from repro.evalx.parallel import run_section

EPSILONS = (0.05, 0.1, 0.3)


def test_adaptation_speed(benchmark, registry):
    adl = registry.get("tea-making").adl
    table = benchmark.pedantic(
        run_section,
        args=(
            plan_adaptation_speed(
                adl, epsilons=EPSILONS, seeds=tuple(range(5))
            ),
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)
    episodes = []
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 2 and cells[0].replace(".", "").isdigit():
            episodes.append(float(cells[1]))
    assert len(episodes) == len(EPSILONS)
    # Every ε re-learns within a handful of episodes -- orders of
    # magnitude below the 120-episode initial training.
    assert all(count <= 20 for count in episodes)
