"""Ablation bench: escalation vs low minimal-prompt compliance.

A resident who notices only ~35% of minimal prompts stalls on every
step.  Escalation upgrades unanswered minimal prompts to specific
(98% noticed), so rescue takes fewer repeats: the prompt load per
episode drops measurably versus a never-escalating policy.  This
validates the escalation design on exactly the population it exists
for.
"""

from repro.evalx.ablations import plan_escalation_ablation
from repro.evalx.parallel import run_section


def _parse(table):
    rows = {}
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 3 and ("escalate" in cells[0] or "never" in cells[0]):
            rows[cells[0]] = float(cells[1])
    return rows


def test_ablation_escalation(benchmark, registry):
    definition = registry.get("tea-making")
    table = benchmark.pedantic(
        run_section,
        args=(plan_escalation_ablation(definition, episodes=8),),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)
    rows = _parse(table)
    assert set(rows) == {
        "escalate after 1 miss", "escalate after 2", "never escalate",
    }
    # Escalating needs fewer reminders per episode than never escalating.
    assert rows["escalate after 1 miss"] < rows["never escalate"]
