"""Bench: baseline comparison on personalized routines.

The paper's critique of pre-planned systems, quantified: learning
systems (CoReDA, n-grams) track every user's personal routine;
pre-planned systems (fixed sequence, canonical-model MDP planner) are
only right for users who happen to match the canonical plan.
"""

from repro.evalx.baseline_compare import plan_baseline_comparison
from repro.evalx.parallel import run_section


def test_baseline_comparison(benchmark, registry):
    adl = registry.get("tea-making").adl
    result = benchmark.pedantic(
        run_section,
        args=(
            plan_baseline_comparison(
                adl, n_users=20, episodes=120, shuffle_probability=1.0
            ),
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.to_table())
    coreda = result.row_for("CoReDA (TD-lambda Q)")
    fixed = result.row_for("fixed sequence")
    mdp = result.row_for("MDP planner (canonical)")
    assert coreda.mean_accuracy == 1.0
    assert coreda.perfect_users == 20
    assert result.row_for("trigram").mean_accuracy == 1.0
    # Pre-planned systems fail on personalized users (with two interior
    # steps, about half the cohort shuffles away from canonical).
    assert fixed.mean_accuracy < 1.0
    assert mdp.mean_accuracy < 1.0
    assert fixed.perfect_users < 20
