"""Ablation studies over CoReDA's design choices.

Each ``plan_*`` function returns the
:class:`~repro.evalx.parallel.Section` for one ablation table; run it
with :func:`~repro.evalx.parallel.run_section`, or let the runner fan
the cells of every ablation out over worker processes:

* :func:`plan_lambda_sweep` -- eligibility-trace decay λ vs
  convergence speed (why TD(λ) rather than TD(0));
* :func:`plan_wrong_reward_sweep` -- the correctness-contingent reward
  interpretation (DESIGN.md) vs paying prompts unconditionally;
* :func:`plan_detector_sweep` -- the 3-of-10 rule: detection of the
  hardest step vs idle false triggers as k varies;
* :func:`plan_dyna_sweep` -- the fast-learning future-work item:
  Dyna-Q planning steps vs iterations-to-converge;
* :func:`plan_radio_sweep` -- frame-loss rate vs end-to-end extract
  precision;
* :func:`plan_sarsa_comparison` -- on-policy SARSA(λ) vs Watkins Q(λ);
* :func:`plan_escalation_ablation` -- prompt escalation for users who
  miss minimal prompts;
* :func:`plan_adaptation_speed` -- episodes the always-adapting mode
  needs to track a changed routine;
* :func:`plan_multi_routine_comparison` -- the multi-routine planner
  vs a single Q-table on a two-routine dressing user.

Every sweep is decomposed into pure, picklable cells (one seed of one
configuration each), so the merged report is byte-identical at any
``--jobs``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.adls.dressing import dressing_definition, dressing_routines
from repro.adls.library import ADLDefinition
from repro.core.adl import ADL
from repro.core.config import CoReDAConfig, PlanningConfig, RadioConfig
from repro.core.metrics import mean
from repro.evalx.extract_precision import plan_extract_precision
from repro.evalx.parallel import Cell, Section, run_section
from repro.evalx.tables import format_table
from repro.planning.multi_routine import MultiRoutinePlanner
from repro.planning.state import episode_states
from repro.planning.store import PolicyCache, train_routine_cached
from repro.planning.trainer import RoutineTrainer
from repro.rl.expected_sarsa import ExpectedSarsaLearner
from repro.rl.sarsa import SarsaLambdaLearner
from repro.sensors.detector import KofNDetector
from repro.sensors.signals import SignalProfile, SignalSource
from repro.sim.random import seeded_generator

__all__ = [
    "plan_lambda_sweep",
    "plan_wrong_reward_sweep",
    "plan_detector_sweep",
    "plan_dyna_sweep",
    "plan_radio_sweep",
    "plan_sarsa_comparison",
    "plan_multi_routine_comparison",
    "plan_adaptation_speed",
    "plan_escalation_ablation",
]


#: Training episodes per learner (the paper's 120 samples).
EPISODES = 120
#: The convergence criterion the sweeps report: 95% greedy accuracy.
CRITERION = 0.95


# ---------------------------------------------------------------------------
# Cells: one pure unit of work each (picklable, seed-explicit)
# ---------------------------------------------------------------------------


def _convergence_cell(
    adl: ADL,
    config: PlanningConfig,
    seed: int,
    learner_spec: Optional[Tuple],
    cache_dir: Optional[str],
) -> Optional[int]:
    """One seed's iterations-to-criterion (``None`` = never converged)."""
    cache = PolicyCache(cache_dir) if cache_dir else None
    trained = train_routine_cached(
        adl,
        list(adl.canonical_routine().step_ids),
        config,
        seed,
        EPISODES,
        criteria=(CRITERION,),
        cache=cache,
        learner_spec=learner_spec,
    )
    return trained.convergence[CRITERION]


def _final_accuracy_cell(
    adl: ADL,
    config: PlanningConfig,
    seed: int,
    cache_dir: Optional[str],
) -> float:
    """One seed's final greedy accuracy after training."""
    cache = PolicyCache(cache_dir) if cache_dir else None
    trained = train_routine_cached(
        adl,
        list(adl.canonical_routine().step_ids),
        config,
        seed,
        EPISODES,
        criteria=(0.95, 0.98),
        cache=cache,
    )
    return trained.curve.greedy_accuracy[-1]


#: The detector sweep: the k values, the window n, the towel profile
#: (the paper's hardest accelerometer step), its handling time and the
#: idle stretch that counts false triggers.
DETECTOR_KS = (1, 2, 3, 5)
DETECTOR_WINDOW = 10
TOWEL_PROFILE = SignalProfile(burst_probability=0.30)
TOWEL_HANDLING_S = 1.8
IDLE_SECONDS = 600.0


def _detector_cell(k: int, trials: int) -> Tuple[int, int]:
    """One k of the k-of-n rule: (handling hits, idle false triggers)."""
    hz = 10.0
    rng = seeded_generator(0)
    source = SignalSource(TOWEL_PROFILE, rng)
    hits = 0
    for _ in range(trials):
        detector = KofNDetector(threshold=1.0, k=k, n=DETECTOR_WINDOW)
        source.begin_use(0.0, TOWEL_HANDLING_S)
        trace = source.read_trace(0.0, int(TOWEL_HANDLING_S * hz) + 20, hz)
        source.end_use()
        if detector.observe_trace(trace) > 0:
            hits += 1
    idle_detector = KofNDetector(threshold=1.0, k=k, n=DETECTOR_WINDOW)
    idle_trace = source.read_trace(0.0, int(IDLE_SECONDS * hz), hz)
    false_triggers = idle_detector.observe_trace(idle_trace)
    return hits, false_triggers


def _radio_cell(
    definition: ADLDefinition, loss: float, samples_per_step: int
) -> float:
    """Mean extract precision at one frame-loss rate."""
    config = CoReDAConfig(radio=RadioConfig(loss_probability=loss))
    result = run_section(
        plan_extract_precision(
            [definition], samples_per_step=samples_per_step, config=config
        )
    )
    return mean([row.precision for row in result.rows])


def _expected_sarsa_cell(adl: ADL, seed: int) -> float:
    """Final greedy accuracy of Expected SARSA on the canonical logs."""
    routine = adl.canonical_routine()
    log = [list(routine.step_ids)] * EPISODES
    # A constant ε of 0.1: behaviour and bootstrap explore alike.
    config = PlanningConfig(epsilon=0.1, epsilon_decay=1.0)
    learner = ExpectedSarsaLearner(config)
    trainer = RoutineTrainer(
        adl, config, learner=learner, rng=seeded_generator(seed)
    )
    result = trainer.train(log, routine=routine)
    return result.curve.greedy_accuracy[-1]


def _sarsa_cell(adl: ADL, seed: int) -> float:
    """Final greedy accuracy of naive SARSA(λ) on the canonical logs."""
    routine = adl.canonical_routine()
    log = [list(routine.step_ids)] * EPISODES
    config = PlanningConfig()
    trainer = RoutineTrainer(
        adl, config, learner=SarsaLambdaLearner(config),
        rng=seeded_generator(seed),
    )
    result = trainer.train(log, routine=routine)
    return result.curve.greedy_accuracy[-1]


def _adaptation_cell(adl: ADL, epsilon: float, seed: int) -> float:
    """Episodes the always-adapting mode needs to track a new routine."""
    from repro.core.adl import Routine
    from repro.core.events import StepEvent
    from repro.planning.online import OnlineAdaptation

    ids = list(adl.step_ids)
    new_ids = [ids[0]] + ids[1:-1][::-1] + [ids[-1]]
    Routine(adl, new_ids)  # validates the permutation
    trainer = RoutineTrainer(adl, rng=seeded_generator(seed))
    result = trainer.train(
        [list(adl.step_ids)] * EPISODES, routine=adl.canonical_routine()
    )
    adaptation = OnlineAdaptation(
        adl,
        result.learner,
        rng=seeded_generator(1000 + seed),
        epsilon=epsilon,
    )
    for episode in range(1, ADAPTATION_MAX_EPISODES + 1):
        for event_index, step_id in enumerate(new_ids):
            adaptation.on_step(
                StepEvent(
                    time=0.0,
                    step_id=step_id,
                    previous_step_id=new_ids[event_index - 1]
                    if event_index
                    else 0,
                )
            )
        if _tracks_routine(result.learner, trainer.actions, new_ids):
            return float(episode)
    return float(ADAPTATION_MAX_EPISODES)


def _escalation_cell(
    definition: ADLDefinition, escalate_after: int, episodes: int
) -> Tuple[float, int]:
    """One escalation policy: (mean reminders/episode, self-recoveries)."""
    from repro.core.system import CoReDA
    from repro.resident.compliance import ComplianceModel
    from repro.resident.dementia import DementiaProfile

    config = replace(
        CoReDAConfig(seed=0),
        reminding=replace(
            CoReDAConfig().reminding,
            escalate_after=escalate_after,
            max_reminders_per_step=10_000,
        ),
    )
    system = CoReDA.build(definition, config)
    system.train_offline()
    reliable = {
        step.step_id: max(step.handling_duration, 5.0)
        for step in definition.adl.steps
    }
    compliance = ComplianceModel(
        minimal_response=ESCALATION_MINIMAL_RESPONSE, specific_response=0.98
    )
    reminders = []
    recoveries_before = system.trace.count("resident.self_recovery")
    for index in range(episodes):
        resident = system.create_resident(
            dementia=DementiaProfile(stall_probability=0.9),
            compliance=compliance,
            handling_overrides=reliable,
            name=f"escalation.{escalate_after}.{index}",
        )
        outcome = system.run_episode(resident, horizon=7200.0)
        reminders.append(outcome.reminders_seen)
    recoveries = (
        system.trace.count("resident.self_recovery") - recoveries_before
    )
    return mean(reminders), recoveries


def _multi_routine_cell(episodes_per_routine: int) -> List[Tuple[str, str, str]]:
    """The whole multi-routine comparison (one shared training run)."""
    definition = dressing_definition()
    adl = definition.adl
    routines = dressing_routines(adl)
    log: List[List[int]] = []
    for routine in routines:
        log.extend([list(routine.step_ids)] * episodes_per_routine)
    rng = seeded_generator(0)
    order = rng.permutation(len(log))
    mixed = [log[i] for i in order]

    planner = MultiRoutinePlanner(adl, rng=seeded_generator(1))
    planner.train(mixed)
    single = RoutineTrainer(adl, rng=seeded_generator(2))
    single_result = single.train(mixed, routine=routines[0])

    rows = []
    for label, routine in zip(("routine A", "routine B"), routines):
        steps = list(routine.step_ids)
        states = episode_states(steps)
        multi_correct = 0
        single_correct = 0
        total = len(steps) - 1
        for index in range(total):
            prefix = steps[: index + 1]
            if planner.predict(prefix).tool_id == steps[index + 1]:
                multi_correct += 1
            greedy = single_result.learner.q.best_action(
                states[index], single.actions
            )
            if greedy.tool_id == steps[index + 1]:
                single_correct += 1
        rows.append(
            (
                label,
                f"{multi_correct / total:.0%}",
                f"{single_correct / total:.0%}",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Shared aggregation helpers
# ---------------------------------------------------------------------------


def _convergence_row(
    label: str, results: Sequence[Optional[int]]
) -> Tuple[str, str, str]:
    """(label, mean-iterations, converged-rate) from per-seed cells."""
    iterations = [r for r in results if r is not None]
    mean_text = f"{mean(iterations):.1f}" if iterations else "-"
    return label, mean_text, f"{len(iterations) / len(results):.0%}"


# ---------------------------------------------------------------------------
# Sweeps: plan_* builds the Section
# ---------------------------------------------------------------------------


#: The trace decays λ the λ sweep compares.
LAMBDAS = (0.0, 0.3, 0.7, 0.9)


def plan_lambda_sweep(
    adl: ADL,
    seeds: Sequence[int] = tuple(range(8)),
    cache_dir: Optional[str] = None,
) -> Section:
    """Trace decay λ vs mean iterations to the 95% criterion."""
    cells = [
        Cell(
            _convergence_cell,
            (adl, replace(PlanningConfig(), trace_decay=lam), seed, None,
             cache_dir),
            label=f"lambda.{lam}[{seed}]",
        )
        for lam in LAMBDAS
        for seed in seeds
    ]

    def merge(results: List[Optional[int]]) -> str:
        rows = []
        for index, lam in enumerate(LAMBDAS):
            chunk = results[index * len(seeds):(index + 1) * len(seeds)]
            label, mean_text, rate = _convergence_row(f"{lam:.1f}", chunk)
            rows.append((label, mean_text, rate))
        return format_table(
            ["lambda", "Mean iterations (95%)", "Converged"],
            rows,
            title=f"Ablation: eligibility-trace decay ({adl.name})",
        )

    return Section(f"ablation.lambda.{adl.name}", cells, merge)


#: Rewards for an unfollowed prompt: CoReDA's 0 up to a followed
#: prompt's 100.
WRONG_REWARDS = (0.0, 50.0, 100.0)


def plan_wrong_reward_sweep(
    adl: ADL,
    seeds: Sequence[int] = tuple(range(5)),
    cache_dir: Optional[str] = None,
) -> Section:
    """Reward for unfollowed prompts vs final greedy accuracy.

    At 0 (CoReDA's scheme, correctness-contingent) the policy learns
    the routine; paying wrong prompts like correct ones (100) removes
    the learning signal entirely.
    """
    cells = [
        Cell(
            _final_accuracy_cell,
            (adl, replace(PlanningConfig(), wrong_prompt_reward=wrong), seed,
             cache_dir),
            label=f"wrong-reward.{wrong}[{seed}]",
        )
        for wrong in WRONG_REWARDS
        for seed in seeds
    ]

    def merge(results: List[float]) -> str:
        rows = []
        for index, wrong in enumerate(WRONG_REWARDS):
            chunk = results[index * len(seeds):(index + 1) * len(seeds)]
            rows.append((f"{wrong:.0f}", f"{mean(chunk):.1%}"))
        return format_table(
            ["Wrong-prompt reward", "Final greedy accuracy"],
            rows,
            title=f"Ablation: correctness-contingent reward ({adl.name})",
        )

    return Section(f"ablation.wrong-reward.{adl.name}", cells, merge)


def plan_detector_sweep(trials: int = 300) -> Section:
    """The k of the k-of-n rule: hard-step detection vs idle noise.

    Uses the towel profile (the paper's hardest accelerometer step).
    Lower k detects short handling more often but trips on idle
    noise; the paper's k=3 buys a near-zero false-trigger rate.
    """
    cells = [
        Cell(
            _detector_cell,
            (k, trials),
            label=f"detector.{k}-of-{DETECTOR_WINDOW}",
        )
        for k in DETECTOR_KS
    ]

    def merge(results: List[Tuple[int, int]]) -> str:
        rows = [
            (
                f"{k}-of-{DETECTOR_WINDOW}",
                f"{hits / trials:.1%}",
                f"{false_triggers / (IDLE_SECONDS / 60):.2f}/min",
            )
            for k, (hits, false_triggers) in zip(DETECTOR_KS, results)
        ]
        return format_table(
            ["Rule", "Short-step detection", "Idle false triggers"],
            rows,
            title="Ablation: usage-detection rule (towel-profile handling)",
        )

    return Section("ablation.detector", cells, merge)


#: The Dyna-Q planning-step counts the Dyna sweep compares.
PLANNING_STEPS = (0, 5, 20)


def plan_dyna_sweep(
    adl: ADL,
    seeds: Sequence[int] = tuple(range(8)),
    cache_dir: Optional[str] = None,
) -> Section:
    """Dyna-Q planning steps vs convergence speed (fast learning)."""
    base = PlanningConfig()
    specs: List[Tuple[str, Optional[Tuple]]] = [("TD(lambda) Q", None)]
    specs.extend(
        (f"Dyna-Q ({steps} planning steps)", ("dyna", steps))
        for steps in PLANNING_STEPS
    )
    cells = [
        Cell(
            _convergence_cell,
            (adl, base, seed, spec, cache_dir),
            label=f"dyna.{label}[{seed}]",
        )
        for label, spec in specs
        for seed in seeds
    ]

    def merge(results: List[Optional[int]]) -> str:
        rows = []
        for index, (label, _) in enumerate(specs):
            chunk = results[index * len(seeds):(index + 1) * len(seeds)]
            rows.append(_convergence_row(label, chunk))
        return format_table(
            ["Learner", "Mean iterations (95%)", "Converged"],
            rows,
            title=f"Ablation: fast learning via Dyna-Q ({adl.name})",
        )

    return Section(f"ablation.dyna.{adl.name}", cells, merge)


#: The frame-loss probabilities the radio sweep compares.
LOSS_RATES = (0.0, 0.05, 0.4, 0.8)


def plan_radio_sweep(
    definition: ADLDefinition, samples_per_step: int = 25
) -> Section:
    """Frame-loss probability vs mean end-to-end extract precision."""
    cells = [
        Cell(
            _radio_cell,
            (definition, loss, samples_per_step),
            label=f"radio.{loss}",
        )
        for loss in LOSS_RATES
    ]

    def merge(results: List[float]) -> str:
        rows = [
            (f"{loss:.0%}", f"{precision:.1%}")
            for loss, precision in zip(LOSS_RATES, results)
        ]
        return format_table(
            ["Frame loss", "Mean extract precision"],
            rows,
            title=f"Ablation: radio loss ({definition.adl.name})",
        )

    return Section(f"ablation.radio.{definition.adl.name}", cells, merge)


def plan_sarsa_comparison(
    adl: ADL,
    seeds: Sequence[int] = tuple(range(8)),
    cache_dir: Optional[str] = None,
) -> Section:
    """SARSA(λ) / Expected SARSA vs Watkins Q(λ) on the same logs.

    Naive SARSA(λ) lacks the strict trace cut and wedges below full
    accuracy; Expected SARSA (no traces, expectation bootstrap)
    matches Q-learning on this near-deterministic problem.
    """
    config = PlanningConfig()
    cells = [
        Cell(
            _convergence_cell,
            (adl, config, seed, None, cache_dir),
            label=f"sarsa.q[{seed}]",
        )
        for seed in seeds
    ]
    cells.extend(
        Cell(
            _expected_sarsa_cell, (adl, seed),
            label=f"sarsa.expected[{seed}]",
        )
        for seed in seeds
    )
    cells.extend(
        Cell(_sarsa_cell, (adl, seed), label=f"sarsa.naive[{seed}]")
        for seed in seeds
    )

    def merge(results: List) -> str:
        n = len(seeds)
        q_results = results[:n]
        expected_final = results[n:2 * n]
        sarsa_final = results[2 * n:]
        q_label, q_mean, q_rate = _convergence_row(
            "Watkins Q(lambda)", q_results
        )
        rows = [
            (q_label, q_mean, q_rate),
            (
                "Expected SARSA",
                f"(final greedy accuracy {mean(expected_final):.1%})",
                "-",
            ),
            (
                "SARSA(lambda)",
                f"(final greedy accuracy {mean(sarsa_final):.1%})",
                "-",
            ),
        ]
        return format_table(
            ["Learner", "Mean iterations (95%)", "Converged"],
            rows,
            title=f"Ablation: on-policy vs off-policy ({adl.name})",
        )

    return Section(f"ablation.sarsa.{adl.name}", cells, merge)


#: The share of minimal prompts the escalation ablation's resident
#: notices.
ESCALATION_MINIMAL_RESPONSE = 0.35


def plan_escalation_ablation(
    definition: ADLDefinition, episodes: int = 8
) -> Section:
    """Does escalation rescue users who miss minimal prompts?

    A resident who notices only ``ESCALATION_MINIMAL_RESPONSE`` of minimal
    prompts (but nearly all specific ones) stalls on every step.
    With escalation enabled, unanswered minimal prompts are upgraded
    to specific after ``escalate_after`` repeats; with it effectively
    disabled, the resident depends on lucky minimal prompts or
    self-recovery (a caregiver intervention in burden terms).
    """
    policies = (
        ("escalate after 1 miss", 1),
        ("escalate after 2", 2),
        ("never escalate", 10_000),
    )
    cells = [
        Cell(
            _escalation_cell,
            (definition, escalate_after, episodes),
            label=f"escalation.{escalate_after}",
        )
        for _, escalate_after in policies
    ]

    def merge(results: List[Tuple[float, int]]) -> str:
        rows = [
            (label, f"{mean_reminders:.1f}", recoveries)
            for (label, _), (mean_reminders, recoveries) in zip(
                policies, results
            )
        ]
        return format_table(
            ["Escalation policy", "Reminders/episode", "Self-recoveries"],
            rows,
            title=(
                f"Ablation: escalation with low minimal-prompt compliance "
                f"({definition.adl.name}, minimal response "
                f"{ESCALATION_MINIMAL_RESPONSE:.0%})"
            ),
        )

    return Section(f"ablation.escalation.{definition.adl.name}", cells, merge)


#: The constant exploration ε values the adaptation study compares,
#: and the live episodes it allows before giving up.
ADAPTATION_EPSILONS = (0.05, 0.1, 0.3)
ADAPTATION_MAX_EPISODES = 60


def plan_adaptation_speed(
    adl: ADL, seeds: Sequence[int] = tuple(range(5))
) -> Section:
    """Online adaptation: episodes to re-learn a changed routine.

    Trains on the canonical routine, switches the user to a permuted
    routine, and counts the live episodes the always-adapting mode
    (paper §3.2) needs before the greedy policy tracks the new
    routine perfectly, as a function of the constant exploration ε.
    """
    if len(adl.step_ids) < 3:
        raise ValueError("need at least 3 steps to permute a routine")
    cells = [
        Cell(
            _adaptation_cell,
            (adl, epsilon, seed),
            label=f"adaptation.{epsilon}[{seed}]",
        )
        for epsilon in ADAPTATION_EPSILONS
        for seed in seeds
    ]

    def merge(results: List[float]) -> str:
        rows = []
        for index, epsilon in enumerate(ADAPTATION_EPSILONS):
            chunk = results[index * len(seeds):(index + 1) * len(seeds)]
            rows.append((f"{epsilon:.2f}", f"{mean(chunk):.1f}"))
        return format_table(
            ["Adaptation epsilon", "Episodes to track new routine"],
            rows,
            title=f"Extension: online adaptation speed ({adl.name})",
        )

    return Section(f"extension.adaptation.{adl.name}", cells, merge)


def _tracks_routine(learner, actions, step_ids) -> bool:
    states = episode_states(list(step_ids))
    return all(
        learner.greedy_action(states[i], actions).tool_id
        == states[i + 1].current
        for i in range(len(states) - 1)
    )


def plan_multi_routine_comparison(episodes_per_routine: int = 60) -> Section:
    """Multi-routine planner vs a single Q-table on mixed dressing logs."""
    cells = [
        Cell(
            _multi_routine_cell, (episodes_per_routine,), label="multi-routine"
        )
    ]

    def merge(results: List[List[Tuple[str, str, str]]]) -> str:
        return format_table(
            ["User routine", "Multi-routine planner", "Single Q-table"],
            results[0],
            title="Extension: multi-routine dressing (future-work item 1)",
        )

    return Section("extension.multi-routine", cells, merge)
