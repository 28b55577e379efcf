"""Bench: caregiver-burden study (the paper's motivation, quantified).

Without a guidance system every resident error needs a caregiver;
with CoReDA deployed, errors are absorbed by prompts.  Shape asserted:
errors grow with dementia severity while caregiver interventions stay
near zero -- the burden-reduction claim of the paper's introduction.
"""

from repro.evalx.burden import plan_burden_study
from repro.evalx.parallel import run_section

SEVERITIES = (0.2, 0.5, 0.8)


def test_burden_study(benchmark, registry):
    definition = registry.get("tea-making")
    result = benchmark.pedantic(
        run_section,
        args=(
            plan_burden_study(definition, severities=SEVERITIES, episodes=10),
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.to_table())
    errors = [row.errors_per_episode for row in result.rows]
    # Severity drives error rate (monotone, and severe >> mild).
    assert errors == sorted(errors)
    assert errors[-1] >= 2 * errors[0]
    for row in result.rows:
        # Every episode still completes under guidance.
        assert row.completed == row.episodes
        # CoReDA absorbs (nearly) every error without a caregiver.
        reduction = row.burden_reduction
        if reduction is not None:
            assert reduction >= 0.8
