"""Function-level tests for the ablation sections (small parameters).

The benches run these at paper scale; here each section is exercised
quickly so a regression in table construction or parsing surfaces in
the unit suite, not only under --benchmark-only.
"""

import pytest

from repro.evalx.ablations import (
    plan_adaptation_speed,
    plan_detector_sweep,
    plan_dyna_sweep,
    plan_escalation_ablation,
    plan_lambda_sweep,
    plan_multi_routine_comparison,
    plan_sarsa_comparison,
    plan_wrong_reward_sweep,
)
from repro.evalx.parallel import run_section
from repro.evalx.sensitivity import plan_alpha_sweep, plan_epsilon_sweep


class TestSweepTables:
    def test_lambda_sweep_rows(self, tea_adl):
        table = run_section(
            plan_lambda_sweep(tea_adl, lambdas=(0.0, 0.7), seeds=(0, 1))
        )
        assert "0.0" in table and "0.7" in table
        assert "Mean iterations" in table

    def test_wrong_reward_sweep_shows_collapse(self, tea_adl):
        table = run_section(
            plan_wrong_reward_sweep(
                tea_adl, wrong_rewards=(0.0, 100.0), seeds=(0,)
            )
        )
        lines = table.splitlines()
        zero_row = next(line for line in lines if line.startswith("0 "))
        hundred_row = next(line for line in lines if line.startswith("100"))
        assert "100.0%" in zero_row
        assert "100.0%" not in hundred_row

    def test_detector_sweep_monotone(self):
        table = run_section(
            plan_detector_sweep(ks=(1, 3, 5), trials=60, seed=0)
        )
        rates = []
        for line in table.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) == 3 and "-of-" in cells[0]:
                rates.append(float(cells[1].rstrip("%")))
        assert rates == sorted(rates, reverse=True)

    def test_dyna_sweep_has_reference_row(self, tea_adl):
        table = run_section(
            plan_dyna_sweep(tea_adl, planning_steps=(0,), seeds=(0, 1))
        )
        assert "TD(lambda) Q" in table
        assert "Dyna-Q (0 planning steps)" in table

    def test_sarsa_comparison_rows(self, tea_adl):
        table = run_section(plan_sarsa_comparison(tea_adl, seeds=(0, 1)))
        assert "Watkins Q(lambda)" in table
        assert "SARSA(lambda)" in table

    def test_alpha_sweep_all_converge(self, tea_adl):
        table = run_section(
            plan_alpha_sweep(tea_adl, alphas=(0.2, 0.5), seeds=(0, 1))
        )
        assert table.count("100%") >= 2

    def test_epsilon_sweep_constant_never_converges(self, tea_adl):
        table = run_section(
            plan_epsilon_sweep(
                tea_adl, schedules=((0.2, 0.978), (0.4, 1.0)), seeds=(0, 1)
            )
        )
        always_row = next(
            line for line in table.splitlines() if "decay=1.0" in line
        )
        assert "| -" in always_row


class TestExtensionTables:
    def test_multi_routine_table(self):
        table = run_section(
            plan_multi_routine_comparison(episodes_per_routine=10, seed=0)
        )
        assert "routine A" in table and "routine B" in table

    def test_adaptation_speed_small(self, tea_adl):
        table = run_section(
            plan_adaptation_speed(tea_adl, epsilons=(0.1,), seeds=(0,))
        )
        assert "0.10" in table

    def test_adaptation_speed_needs_three_steps(self, registry):
        # A 2-step ADL cannot be permuted.
        from repro.core.adl import ADL, ADLStep, SensorType, Tool

        tiny = ADL(
            "tiny",
            [
                ADLStep("a", Tool(71, "a", SensorType.ACCELEROMETER)),
                ADLStep("b", Tool(72, "b", SensorType.ACCELEROMETER)),
            ],
        )
        with pytest.raises(ValueError):
            plan_adaptation_speed(tiny)


class TestEscalationAblation:
    def test_table_shape(self, registry):
        table = run_section(
            plan_escalation_ablation(registry.get("tea-making"), episodes=2)
        )
        assert "never escalate" in table
        assert "Reminders/episode" in table
