"""Every other EXPERIMENTS.md claim, pinned at the report's parameters.

``tests/test_paper_numbers.py`` covers the paper's own Tables 1-4 and
Figures 1 and 4; this module covers the rest of EXPERIMENTS.md, one
class per section (one per ablation row).  Each class asserts:

* the shape of the claim (who wins, which way a sweep moves), on the
  section of the shared full-report run (the ``full_report``
  fixture), and, where a study used to be checked at other inputs
  too, at those inputs as well;
* the exact cells EXPERIMENTS.md quotes.

The studies that are not part of ``repro report`` (gappy training
logs, sampling rate, field training) run here at their own
parameters.  A pinned cell changes only by hand, together with
EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adls.tea_making import POT, TEACUP
from repro.core.adl import Routine
from repro.core.config import CoReDAConfig, SensingConfig
from repro.core.metrics import mean, sample_sd
from repro.core.system import CoReDA
from repro.evalx.ablations import (
    plan_adaptation_speed,
    plan_detector_sweep,
    plan_wrong_reward_sweep,
)
from repro.evalx import baseline_compare
from repro.evalx.baseline_compare import plan_baseline_comparison
from repro.evalx.parallel import run_section
from repro.planning.state import episode_states
from repro.planning.trainer import RoutineTrainer
from repro.recognition import repair
from repro.recognition.repair import EpisodeRepairer
from repro.resident.routines import noisy_episodes
from repro.sensors.battery import PowerProfile, estimate_lifetime_days
from repro.sensors.detector import KofNDetector
from repro.sensors.signals import SignalProfile, SignalSource


def _cells(table):
    """A rendered table's data rows: first cell -> the other cells."""
    lines = table.splitlines()
    start = next(
        index for index, line in enumerate(lines) if set(line) <= set("-+")
    )
    rows = {}
    for line in lines[start + 1:]:
        cells = [cell.strip() for cell in line.split("|")]
        rows[cells[0]] = tuple(cells[1:])
    return rows


class TestBaselineComparison:
    """Learning systems track every personal routine; pre-planned ones
    are right only for users who match the canonical plan."""

    #: Interior-shuffle probability -> system -> (mean accuracy,
    #: perfect users), 20 users; the report runs at 0.8.
    CELLS = {
        0.8: {
            "CoReDA (TD-lambda Q)": ("100.0%", "20/20"),
            "bigram": ("100.0%", "20/20"),
            "trigram": ("100.0%", "20/20"),
            "fixed sequence": ("65.0%", "13/20"),
            "MDP planner (canonical)": ("65.0%", "13/20"),
        },
        1.0: {
            "CoReDA (TD-lambda Q)": ("100.0%", "20/20"),
            "bigram": ("100.0%", "20/20"),
            "trigram": ("100.0%", "20/20"),
            "fixed sequence": ("70.0%", "14/20"),
            "MDP planner (canonical)": ("70.0%", "14/20"),
        },
    }

    @pytest.fixture(
        scope="class", params=[0.8, 1.0], ids=["report", "all-shuffled"]
    )
    def shuffled(self, request, full_report, tea_definition):
        """``(shuffle probability, comparison result)``."""
        if request.param == 0.8:
            return 0.8, full_report["baseline.tea-making"].result
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baseline_compare, "SHUFFLE_PROBABILITY", request.param)
            section = plan_baseline_comparison(
                tea_definition.adl, n_users=20, episodes=120
            )
        return request.param, run_section(section)

    def test_baseline_comparison(self, shuffled):
        _, result = shuffled
        coreda = result.row_for("CoReDA (TD-lambda Q)")
        fixed = result.row_for("fixed sequence")
        mdp = result.row_for("MDP planner (canonical)")
        assert coreda.mean_accuracy == 1.0
        assert coreda.perfect_users == 20
        assert result.row_for("trigram").mean_accuracy == 1.0
        # Pre-planned systems fail on personalized users (with two
        # interior steps, about half the cohort shuffles away from
        # canonical).
        assert fixed.mean_accuracy < 1.0
        assert mdp.mean_accuracy < 1.0
        assert fixed.perfect_users < 20

    def test_cells(self, shuffled):
        shuffle, result = shuffled
        assert {
            system: cells[:2]
            for system, cells in _cells(result.to_table()).items()
        } == self.CELLS[shuffle]


class TestAblationLambda:
    """Convergence is exploration-bound: λ barely moves it."""

    LAMBDAS = (0.0, 0.3, 0.7, 0.9)

    def test_ablation_lambda(self, full_report):
        table = full_report["ablation.lambda.tea-making"].result
        rows = [line for line in table.splitlines() if line[:1].isdigit()]
        assert len(rows) == len(self.LAMBDAS)
        iterations = []
        for row in rows:
            cells = [cell.strip() for cell in row.split("|")]
            assert cells[2] == "100%"  # every λ converges on every seed
            iterations.append(float(cells[1]))
        assert max(iterations) <= 120
        # Robustness: the spread across λ stays small.
        assert max(iterations) - min(iterations) <= 25

    def test_cells(self, full_report):
        assert _cells(full_report["ablation.lambda.tea-making"].result) == {
            f"{lam:.1f}": ("25.4", "100%") for lam in self.LAMBDAS
        }


class TestAblationWrongReward:
    """Paying unfollowed prompts like followed ones destroys learning."""

    CELLS = {"0": ("100.0%",), "50": ("100.0%",), "100": ("33.3%",)}

    @pytest.fixture(
        scope="class", params=[3, 5], ids=["report-3-seeds", "5-seeds"]
    )
    def table(self, request, full_report, tea_definition):
        if request.param == 3:
            return full_report["ablation.wrong-reward.tea-making"].result
        return run_section(
            plan_wrong_reward_sweep(
                tea_definition.adl, seeds=tuple(range(request.param))
            )
        )

    def test_ablation_wrong_reward(self, table):
        accuracies = {}
        for line in table.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) == 2 and cells[0].replace(".", "").isdigit():
                accuracies[float(cells[0])] = float(cells[1].rstrip("%")) / 100
        assert accuracies[0.0] == 1.0
        # Paying unfollowed prompts the full correct-prompt amount
        # removes the signal; accuracy collapses toward chance.
        assert accuracies[100.0] < 0.7
        assert accuracies[100.0] < accuracies[0.0]

    def test_cells(self, full_report):
        table = full_report["ablation.wrong-reward.tea-making"].result
        assert _cells(table) == self.CELLS


class TestAblationDetector:
    """The 3-of-10 rule: good short-step detection, no idle noise."""

    #: Rule -> (short-step detection, idle false triggers), 300 trials.
    CELLS = {
        "1-of-10": ("99.7%", "0.00/min"),
        "2-of-10": ("97.7%", "0.00/min"),
        "3-of-10": ("86.0%", "0.00/min"),
        "5-of-10": ("33.7%", "0.00/min"),
    }

    @staticmethod
    def _parse(table):
        rows = {}
        for line in table.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) == 3 and "-of-" in cells[0]:
                detection = float(cells[1].rstrip("%")) / 100
                false_per_min = float(cells[2].split("/")[0])
                rows[cells[0]] = (detection, false_per_min)
        return rows

    @pytest.fixture(
        scope="class", params=[300, 400],
        ids=["report-300-trials", "400-trials"],
    )
    def table(self, request, full_report):
        if request.param == 300:
            return full_report["ablation.detector"].result
        return run_section(
            plan_detector_sweep(trials=request.param)
        )

    def test_ablation_detector(self, table):
        rows = self._parse(table)
        assert set(rows) == {"1-of-10", "2-of-10", "3-of-10", "5-of-10"}
        # Detection of short handling decreases monotonically with k.
        detections = [rows[f"{k}-of-10"][0] for k in (1, 2, 3, 5)]
        assert detections == sorted(detections, reverse=True)
        # The paper's operating point: good detection, zero idle noise.
        detection_3, false_3 = rows["3-of-10"]
        assert detection_3 >= 0.75
        assert false_3 == 0.0
        # k=5 cripples short-step detection.
        assert rows["5-of-10"][0] < 0.5

    def test_cells(self, full_report):
        assert _cells(full_report["ablation.detector"].result) == self.CELLS


class TestAblationDyna:
    """Dyna-Q is a safe drop-in: every learner converges, no speed-up."""

    #: Learner -> (mean iterations to 95%, converged), 8 seeds.
    CELLS = {
        "TD(lambda) Q": ("25.4", "100%"),
        "Dyna-Q (0 planning steps)": ("25.4", "100%"),
        "Dyna-Q (5 planning steps)": ("46.6", "100%"),
        "Dyna-Q (20 planning steps)": ("34.0", "100%"),
    }
    #: The per-learner seed SD of those iterations, same order.
    SEED_SD = ["9.6", "9.6", "16.0", "14.4"]

    def test_ablation_dyna(self, full_report):
        table = full_report["ablation.dyna.tea-making"].result
        rows = [
            line
            for line in table.splitlines()
            if line.startswith("TD(") or line.startswith("Dyna-Q")
        ]
        assert len(rows) == 4
        for row in rows:
            cells = [cell.strip() for cell in row.split("|")]
            assert cells[2] == "100%"
            assert float(cells[1]) <= 120

    def test_cells(self, full_report):
        run = full_report["ablation.dyna.tea-making"]
        assert _cells(run.result) == self.CELLS
        per_learner = [run.cells[index:index + 8] for index in range(0, 32, 8)]
        assert [
            f"{sample_sd(iterations):.1f}" for iterations in per_learner
        ] == self.SEED_SD


class TestAblationRadio:
    """ARQ absorbs even heavy frame loss; only extreme loss erodes."""

    LOSS_RATES = (0.0, 0.05, 0.4, 0.8)
    CELLS = {
        "0%": ("91.0%",), "5%": ("91.0%",), "40%": ("91.0%",),
        "80%": ("64.0%",),
    }

    @staticmethod
    def _parse(table):
        rows = {}
        for line in table.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if (len(cells) == 2 and cells[0].endswith("%")
                    and "loss" not in cells[0]):
                rows[float(cells[0].rstrip("%")) / 100] = (
                    float(cells[1].rstrip("%")) / 100
                )
        return rows

    def test_ablation_radio(self, full_report):
        rows = self._parse(full_report["ablation.radio.tea-making"].result)
        assert set(rows) == set(self.LOSS_RATES)
        # ARQ absorbs even heavy loss (within sampling noise).
        assert abs(rows[0.05] - rows[0.0]) <= 0.05
        assert abs(rows[0.4] - rows[0.0]) <= 0.08
        # Extreme loss finally erodes precision.
        assert rows[0.8] < rows[0.0]

    def test_cells(self, full_report):
        table = full_report["ablation.radio.tea-making"].result
        assert _cells(table) == self.CELLS


class TestAblationSarsa:
    """Off-policy Q(λ) learns the logged routine; SARSA(λ) wedges."""

    CELLS = {
        "Watkins Q(lambda)": ("25.4", "100%"),
        "Expected SARSA": ("(final greedy accuracy 100.0%)", "-"),
        "SARSA(lambda)": ("(final greedy accuracy 66.7%)", "-"),
    }

    def test_ablation_sarsa(self, full_report):
        lines = full_report["ablation.sarsa.tea-making"].result.splitlines()
        q_row = next(line for line in lines if line.startswith("Watkins"))
        sarsa_row = next(line for line in lines if line.startswith("SARSA"))
        q_cells = [cell.strip() for cell in q_row.split("|")]
        assert q_cells[2] == "100%"
        accuracy = float(
            sarsa_row.split("accuracy")[1].split(")")[0].strip().rstrip("%")
        ) / 100
        assert accuracy < 1.0

    def test_cells(self, full_report):
        table = full_report["ablation.sarsa.tea-making"].result
        assert _cells(table) == self.CELLS


def _sensitivity_rows(table, prefix=None):
    rows = []
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 4 and cells[1] not in ("Mean iterations (95%)",):
            if prefix is None or cells[0].startswith(prefix):
                rows.append(cells)
    return rows


class TestSensitivityAlpha:
    """α is a free parameter: every rate converges at the same speed."""

    ALPHAS = ("0.05", "0.10", "0.20", "0.50", "1.00")

    def test_sensitivity_alpha(self, full_report):
        rows = _sensitivity_rows(
            full_report["sensitivity.alpha.tea-making"].result
        )
        assert len(rows) == 5
        iterations = [float(row[1]) for row in rows]
        # α-insensitive: every α converges, spread stays tight.
        assert all(row[2] == "100%" for row in rows)
        assert all(row[3] == "100%" for row in rows)
        assert max(iterations) - min(iterations) <= 15

    def test_cells(self, full_report):
        table = full_report["sensitivity.alpha.tea-making"].result
        assert _cells(table) == {
            alpha: ("25.4", "100%", "100%") for alpha in self.ALPHAS
        }


class TestSensitivityEpsilon:
    """The exploration schedule is the one knob that moves the curve."""

    CELLS = {
        "eps0=0.1 decay=0.978": ("18.1", "100%", "100%"),
        "eps0=0.2 decay=0.978": ("25.4", "100%", "100%"),
        "eps0=0.4 decay=0.978": ("70.0", "100%", "100%"),
        "eps0=0.4 decay=1.0": ("-", "0%", "100%"),
    }

    def test_sensitivity_epsilon(self, full_report):
        table = full_report["sensitivity.epsilon.tea-making"].result
        rows = {row[0]: row for row in _sensitivity_rows(table)}
        # More exploration -> later convergence (monotone in ε0).
        decaying = [rows[f"eps0={e} decay=0.978"] for e in (0.1, 0.2, 0.4)]
        iterations = [float(row[1]) for row in decaying]
        assert iterations == sorted(iterations)
        # The paper's "update all the while" mode: never converges, yet
        # the greedy policy is perfect.
        always = rows["eps0=0.4 decay=1.0"]
        assert always[1] == "-"
        assert always[2] == "0%"
        assert always[3] == "100%"

    def test_cells(self, full_report):
        table = full_report["sensitivity.epsilon.tea-making"].result
        assert _cells(table) == self.CELLS


class TestAblationNoisyTraining:
    """Gappy logs corrupt raw training; HMM repair restores it."""

    MISS_RATES = (0.0, 0.1, 0.2)
    SEEDS = tuple(range(5))
    #: Miss rate -> (raw-log accuracy, repaired-log accuracy).
    CELLS = {
        0.0: ("100%", "100%"), 0.1: ("60%", "100%"), 0.2: ("40%", "100%"),
    }

    @pytest.fixture(scope="class")
    def rows(self, tea_definition):
        adl = tea_definition.adl
        routine = adl.canonical_routine()
        rows = []
        for miss in self.MISS_RATES:
            raw_accuracy = []
            repaired_accuracy = []
            for seed in self.SEEDS:
                rng = np.random.default_rng(1000 + seed)
                log = noisy_episodes(routine, 120, rng, miss_probability=miss)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(repair, "MISS_PROBABILITY", max(miss, 0.01))
                    repairer = EpisodeRepairer(routine)
                repaired = repairer.repair_all(log)
                for episodes, bucket in ((log, raw_accuracy),
                                         (repaired, repaired_accuracy)):
                    trainer = RoutineTrainer(
                        adl, rng=np.random.default_rng(seed)
                    )
                    result = trainer.train(episodes, routine=routine)
                    bucket.append(result.curve.greedy_accuracy[-1])
            rows.append((miss, mean(raw_accuracy), mean(repaired_accuracy)))
        return rows

    def test_ablation_noisy_training(self, rows):
        by_miss = {miss: (raw, repaired) for miss, raw, repaired in rows}
        # Clean logs: both perfect.
        assert by_miss[0.0][0] == 1.0
        assert by_miss[0.0][1] == 1.0
        # Gappy logs corrupt raw training...
        assert by_miss[0.2][0] < 0.9
        # ...and repair restores it.
        assert by_miss[0.1][1] == 1.0
        assert by_miss[0.2][1] == 1.0

    def test_cells(self, rows):
        assert {
            miss: (f"{raw:.0%}", f"{repaired:.0%}")
            for miss, raw, repaired in rows
        } == self.CELLS


class TestAblationSamplingRate:
    """10 Hz is the knee of the detection-vs-battery-life curve."""

    RATES = (2.0, 5.0, 10.0, 20.0)
    #: The paper's hardest step: a 1.5 s pour with sparse pressure bursts.
    POUR = SignalProfile(burst_probability=0.30)
    HANDLING = 1.5
    #: Rate -> (short-step detection, node lifetime in days).
    CELLS = {
        2.0: ("2%", "1933"), 5.0: ("44%", "858"),
        10.0: ("79%", "445"), 20.0: ("97%", "227"),
    }

    def _detection_rate(self, hz, trials=500, seed=0):
        rng = np.random.default_rng(seed)
        source = SignalSource(self.POUR, rng)
        config = SensingConfig(sampling_hz=hz)
        hits = 0
        for _ in range(trials):
            detector = KofNDetector(
                threshold=config.usage_threshold,
                k=config.threshold_count,
                n=config.window_size,
            )
            source.begin_use(0.0, self.HANDLING)
            trace = source.read_trace(
                0.0, int(self.HANDLING * hz) + 2 * int(hz), hz
            )
            source.end_use()
            if detector.observe_trace(trace) > 0:
                hits += 1
        return hits / trials

    @pytest.fixture(scope="class")
    def by_rate(self):
        profile = PowerProfile()
        return {
            hz: (self._detection_rate(hz), estimate_lifetime_days(profile, hz))
            for hz in self.RATES
        }

    def test_ablation_sampling_rate(self, by_rate):
        # Lifetime decreases monotonically with the rate.
        lifetimes = [by_rate[hz][1] for hz in self.RATES]
        assert lifetimes == sorted(lifetimes, reverse=True)
        # Detection increases monotonically with the rate.
        detections = [by_rate[hz][0] for hz in self.RATES]
        assert detections == sorted(detections)
        # The paper's 10 Hz detects the short step most of the time;
        # 2 Hz essentially cannot.
        assert by_rate[10.0][0] >= 0.6
        assert by_rate[2.0][0] <= 0.2
        # And 10 Hz still leaves a practical battery life (> 100 days).
        assert by_rate[10.0][1] > 100

    def test_cells(self, by_rate):
        assert {
            hz: (f"{detection:.0%}", f"{days:.0f}")
            for hz, (detection, days) in by_rate.items()
        } == self.CELLS


class TestAblationEscalation:
    """Escalation rescues low-compliance users with less prompting."""

    #: Policy -> reminders per episode at 35% minimal-prompt compliance.
    CELLS = {
        "escalate after 1 miss": 6.0,
        "escalate after 2": 7.1,
        "never escalate": 8.4,
    }

    @staticmethod
    def _parse(table):
        rows = {}
        for line in table.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) == 3 and (
                "escalate" in cells[0] or "never" in cells[0]
            ):
                rows[cells[0]] = float(cells[1])
        return rows

    def test_ablation_escalation(self, full_report):
        rows = self._parse(full_report["ablation.escalation.tea-making"].result)
        assert set(rows) == {
            "escalate after 1 miss", "escalate after 2", "never escalate",
        }
        # Escalating needs fewer reminders per episode than never
        # escalating.
        assert rows["escalate after 1 miss"] < rows["never escalate"]

    def test_cells(self, full_report):
        table = full_report["ablation.escalation.tea-making"].result
        assert "minimal response 35%" in table.splitlines()[0]
        assert self._parse(table) == self.CELLS
        # ≈29% less prompting than never escalating.
        saving = 1 - self.CELLS["escalate after 1 miss"] / (
            self.CELLS["never escalate"]
        )
        assert f"{saving:.0%}" == "29%"


class TestCaregiverBurden:
    """Errors grow with severity; guidance absorbs them all."""

    #: Severity -> (completed, errors/episode, caregiver interventions,
    #: burden reduction), 10 guided episodes each.
    CELLS = {
        "0.2": ("10/10", "0.3", "0", "100%"),
        "0.5": ("10/10", "0.9", "0", "100%"),
        "0.8": ("10/10", "1.4", "0", "100%"),
    }

    def test_burden_study(self, full_report):
        result = full_report["burden.tea-making"].result
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

    def test_cells(self, full_report):
        table = full_report["burden.tea-making"].blocks[0]
        assert _cells(table) == self.CELLS


class TestMultiRoutine:
    """The multi-routine planner serves both dressing routines."""

    CELLS = {"routine A": ("100%", "100%"), "routine B": ("100%", "80%")}

    def test_multi_routine_dressing(self, full_report):
        table = full_report["extension.multi-routine"].result
        lines = [
            line for line in table.splitlines() if line.startswith("routine")
        ]
        assert len(lines) == 2
        singles = []
        for line in lines:
            cells = [cell.strip() for cell in line.split("|")]
            multi, single = cells[1], cells[2]
            assert multi == "100%"
            singles.append(single)
        # The two dressing routines share the ⟨shirt, trousers⟩ state
        # with different successors; a single Q-table can only serve
        # one of them, so at least one routine must degrade.
        assert any(single != "100%" for single in singles)

    def test_cells(self, full_report):
        table = full_report["extension.multi-routine"].result
        assert _cells(table) == self.CELLS


class TestFieldTraining:
    """A handful of watched episodes make a deployment ready to guide."""

    OBSERVED_COUNTS = (5, 10, 20)
    SEEDS = (0, 1, 2)
    PERSONAL = [1, 3, 2, 4]
    RELIABLE = {POT.tool_id: 6.0, TEACUP.tool_id: 5.0}
    #: Observed episodes -> (routine inferred, policy correct, seeds).
    CELLS = {5: (3, 3, 3), 10: (3, 3, 3), 20: (3, 3, 3)}

    def _trial(self, definition, observed, seed):
        system = CoReDA.build(definition, CoReDAConfig(seed=300 + seed))
        routine = Routine(definition.adl, self.PERSONAL)
        for index in range(observed):
            resident = system.create_resident(
                routine=routine,
                handling_overrides=self.RELIABLE,
                name=f"watch-{index}",
            )
            system.observe_episode(resident)
            system.sim.run_until(system.sim.now + 120.0)
        result = system.train_from_history()
        routine_ok = list(result.routine.step_ids) == self.PERSONAL
        states = episode_states(self.PERSONAL)
        predictions_ok = all(
            system.predictor.predict(states[i]).tool_id
            == states[i + 1].current
            for i in range(len(states) - 1)
        )
        return routine_ok, predictions_ok

    @pytest.fixture(scope="class")
    def by_count(self, tea_definition):
        by_count = {}
        for observed in self.OBSERVED_COUNTS:
            routine_hits = 0
            prediction_hits = 0
            for seed in self.SEEDS:
                routine_ok, predictions_ok = self._trial(
                    tea_definition, observed, seed
                )
                routine_hits += int(routine_ok)
                prediction_hits += int(predictions_ok)
            by_count[observed] = (routine_hits, prediction_hits,
                                  len(self.SEEDS))
        return by_count

    def test_field_training(self, by_count):
        # Ten watched episodes suffice on every seed.
        routine, policy, total = by_count[10]
        assert routine == total
        assert policy == total
        routine, policy, total = by_count[20]
        assert routine == total and policy == total

    def test_cells(self, by_count):
        assert by_count == self.CELLS


class TestOnlineAdaptation:
    """The always-learning mode re-learns a changed routine quickly."""

    EPSILONS = (0.05, 0.1, 0.3)
    #: Adaptation ε -> mean episodes to track the new routine, 3 seeds.
    CELLS = {"0.05": ("6.0",), "0.10": ("6.0",), "0.30": ("8.0",)}

    @pytest.fixture(
        scope="class", params=[3, 5], ids=["report-3-seeds", "5-seeds"]
    )
    def table(self, request, full_report, tea_definition):
        if request.param == 3:
            return full_report["extension.adaptation.tea-making"].result
        return run_section(
            plan_adaptation_speed(
                tea_definition.adl, seeds=tuple(range(request.param))
            )
        )

    def test_adaptation_speed(self, table):
        episodes = []
        for line in table.splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) == 2 and cells[0].replace(".", "").isdigit():
                episodes.append(float(cells[1]))
        assert len(episodes) == len(self.EPSILONS)
        # Every ε re-learns within a handful of episodes -- orders of
        # magnitude below the 120-episode initial training.
        assert all(count <= 20 for count in episodes)

    def test_cells(self, full_report):
        table = full_report["extension.adaptation.tea-making"].result
        assert _cells(table) == self.CELLS
