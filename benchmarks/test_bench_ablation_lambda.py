"""Ablation bench: eligibility-trace decay λ.

Finding (documented in EXPERIMENTS.md): on the paper's short ADL
chains with correctness-contingent rewards and optimistic
initialization, convergence speed is bound by exploration rather than
by value propagation, so λ barely moves the needle -- TD(λ) is
*compatible* with the paper's setup rather than critical to it.  The
bench asserts robustness: every λ converges within the budget and no
λ is catastrophically worse.
"""

from repro.evalx.ablations import plan_lambda_sweep
from repro.evalx.parallel import run_section

LAMBDAS = (0.0, 0.3, 0.7, 0.9)


def test_ablation_lambda(benchmark, registry):
    adl = registry.get("tea-making").adl
    table = benchmark.pedantic(
        run_section,
        args=(plan_lambda_sweep(adl, lambdas=LAMBDAS, seeds=tuple(range(8))),),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)
    rows = [line for line in table.splitlines() if line[:1].isdigit()]
    assert len(rows) == len(LAMBDAS)
    iterations = []
    for row in rows:
        cells = [cell.strip() for cell in row.split("|")]
        assert cells[2] == "100%"  # every λ converges on every seed
        iterations.append(float(cells[1]))
    assert max(iterations) <= 120
    # Robustness: the spread across λ stays small.
    assert max(iterations) - min(iterations) <= 25
