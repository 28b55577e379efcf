"""Table-construction tests for the ablation and extension sections.

Each table is read from the shared full-report run (the
``full_report`` fixture), so a regression in table construction
surfaces here; the claims the numbers carry are pinned in
``tests/test_experiment_claims.py``.
"""

import pytest

from repro.evalx.ablations import plan_adaptation_speed


class TestSweepTables:
    def test_lambda_sweep_rows(self, full_report):
        table = full_report["ablation.lambda.tea-making"].result
        assert "0.0" in table and "0.7" in table
        assert "Mean iterations" in table

    def test_wrong_reward_sweep_shows_collapse(self, full_report):
        table = full_report["ablation.wrong-reward.tea-making"].result
        lines = table.splitlines()
        zero_row = next(line for line in lines if line.startswith("0 "))
        hundred_row = next(line for line in lines if line.startswith("100"))
        assert "100.0%" in zero_row
        assert "100.0%" not in hundred_row

    def test_detector_sweep_monotone(self, full_report):
        table = full_report["ablation.detector"].result
        rates = []
        for line in table.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) == 3 and "-of-" in cells[0]:
                rates.append(float(cells[1].rstrip("%")))
        assert rates == sorted(rates, reverse=True)

    def test_dyna_sweep_has_reference_row(self, full_report):
        table = full_report["ablation.dyna.tea-making"].result
        assert "TD(lambda) Q" in table
        assert "Dyna-Q (0 planning steps)" in table

    def test_sarsa_comparison_rows(self, full_report):
        table = full_report["ablation.sarsa.tea-making"].result
        assert "Watkins Q(lambda)" in table
        assert "SARSA(lambda)" in table

    def test_alpha_sweep_all_converge(self, full_report):
        table = full_report["sensitivity.alpha.tea-making"].result
        assert table.count("100%") >= 5

    def test_epsilon_sweep_constant_never_converges(self, full_report):
        table = full_report["sensitivity.epsilon.tea-making"].result
        always_row = next(
            line for line in table.splitlines() if "decay=1.0" in line
        )
        assert "| -" in always_row


class TestExtensionTables:
    def test_multi_routine_table(self, full_report):
        table = full_report["extension.multi-routine"].result
        assert "routine A" in table and "routine B" in table

    def test_adaptation_speed_small(self, full_report):
        table = full_report["extension.adaptation.tea-making"].result
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
    def test_table_shape(self, full_report):
        table = full_report["ablation.escalation.tea-making"].result
        assert "never escalate" in table
        assert "Reminders/episode" in table
