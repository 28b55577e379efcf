"""Ablation bench: radio frame loss vs end-to-end extract precision.

A frame survives if *any* ARQ attempt's data half crosses the air
(a lost ack only causes a duplicate, which the base station filters),
so with 4 attempts even 40% loss leaves ~97% of frames delivered.
Only extreme loss rates erode the mean extract precision.
"""

from repro.evalx.ablations import plan_radio_sweep
from repro.evalx.parallel import run_section

LOSS_RATES = (0.0, 0.05, 0.4, 0.8)


def _parse(table):
    rows = {}
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 2 and cells[0].endswith("%") and "loss" not in cells[0]:
            rows[float(cells[0].rstrip("%")) / 100] = (
                float(cells[1].rstrip("%")) / 100
            )
    return rows


def test_ablation_radio(benchmark, registry):
    definition = registry.get("tea-making")
    table = benchmark.pedantic(
        run_section,
        args=(
            plan_radio_sweep(
                definition, loss_rates=LOSS_RATES, samples_per_step=25, seed=0
            ),
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)
    rows = _parse(table)
    assert set(rows) == set(LOSS_RATES)
    # ARQ absorbs even heavy loss (within sampling noise).
    assert abs(rows[0.05] - rows[0.0]) <= 0.05
    assert abs(rows[0.4] - rows[0.0]) <= 0.08
    # Extreme loss finally erodes precision.
    assert rows[0.8] < rows[0.0]
