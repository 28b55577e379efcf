"""Bench: the multi-routine extension (paper future-work item 1).

A dressing user with two personal routines: the multi-routine planner
identifies the routine in progress from the observed prefix and
predicts every following step; a single Q-table trained on the mixed
log cannot serve both routines.
"""

from repro.evalx.ablations import plan_multi_routine_comparison
from repro.evalx.parallel import run_section


def test_multi_routine_dressing(benchmark):
    table = benchmark.pedantic(
        run_section,
        args=(plan_multi_routine_comparison(episodes_per_routine=60),),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)
    lines = [line for line in table.splitlines() if line.startswith("routine")]
    assert len(lines) == 2
    singles = []
    for line in lines:
        cells = [cell.strip() for cell in line.split("|")]
        multi, single = cells[1], cells[2]
        assert multi == "100%"
        singles.append(single)
    # The two dressing routines share the ⟨shirt, trousers⟩ state with
    # different successors; a single Q-table can only serve one of
    # them, so at least one routine must degrade.
    assert any(single != "100%" for single in singles)
