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

import numpy as np

from repro.adls.dressing import dressing_definition, dressing_routines
from repro.adls.library import ADLDefinition
from repro.core.adl import ADL
from repro.core.config import (
    CoReDAConfig,
    PlanningConfig,
    RadioConfig,
    SensingConfig,
)
from repro.core.metrics import mean
from repro.evalx.extract_precision import plan_extract_precision
from repro.evalx.parallel import Cell, Section, run_section
from repro.evalx.tables import format_table
from repro.planning.action import action_space
from repro.planning.multi_routine import MultiRoutinePlanner
from repro.planning.rewards_coreda import CoReDAReward
from repro.planning.state import episode_states
from repro.planning.store import PolicyCache, train_routine_cached
from repro.planning.trainer import RoutineTrainer
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


# ---------------------------------------------------------------------------
# Cells: one pure unit of work each (picklable, seed-explicit)
# ---------------------------------------------------------------------------


def _convergence_cell(
    adl: ADL,
    config: PlanningConfig,
    seed: int,
    episodes: int = 120,
    criterion: float = 0.95,
    learner_spec: Optional[Tuple] = None,
    cache_dir: Optional[str] = None,
) -> Optional[int]:
    """One seed's iterations-to-criterion (``None`` = never converged)."""
    cache = PolicyCache(cache_dir) if cache_dir else None
    trained = train_routine_cached(
        adl,
        list(adl.canonical_routine().step_ids),
        config,
        seed,
        episodes,
        criteria=(criterion,),
        cache=cache,
        learner_spec=learner_spec,
    )
    return trained.convergence[criterion]


def _final_accuracy_cell(
    adl: ADL,
    config: PlanningConfig,
    seed: int,
    episodes: int = 120,
    cache_dir: Optional[str] = None,
) -> float:
    """One seed's final greedy accuracy after training."""
    cache = PolicyCache(cache_dir) if cache_dir else None
    trained = train_routine_cached(
        adl,
        list(adl.canonical_routine().step_ids),
        config,
        seed,
        episodes,
        criteria=(0.95, 0.98),
        cache=cache,
    )
    return trained.curve.greedy_accuracy[-1]


def _detector_cell(
    k: int,
    window: int,
    trials: int,
    seed: int,
    profile: SignalProfile,
    handling_duration: float,
    idle_seconds: float,
) -> Tuple[int, int]:
    """One k of the k-of-n rule: (handling hits, idle false triggers)."""
    hz = 10.0
    rng = seeded_generator(seed)
    source = SignalSource(profile, rng)
    hits = 0
    for _ in range(trials):
        detector = KofNDetector(threshold=1.0, k=k, n=window)
        source.begin_use(0.0, handling_duration)
        trace = source.read_trace(0.0, int(handling_duration * hz) + 20, hz)
        source.end_use()
        if detector.observe_trace(trace) > 0:
            hits += 1
    idle_detector = KofNDetector(threshold=1.0, k=k, n=window)
    idle_trace = source.read_trace(0.0, int(idle_seconds * hz), hz)
    false_triggers = idle_detector.observe_trace(idle_trace)
    return hits, false_triggers


def _radio_cell(
    definition: ADLDefinition,
    loss: float,
    samples_per_step: int,
    seed: int,
    sensing: Optional[SensingConfig] = None,
) -> float:
    """Mean extract precision at one frame-loss rate."""
    config = CoReDAConfig(radio=RadioConfig(loss_probability=loss))
    if sensing is not None:
        config = replace(config, sensing=sensing)
    result = run_section(
        plan_extract_precision(
            [definition],
            samples_per_step=samples_per_step,
            config=config,
            seed=seed,
        )
    )
    return mean([row.precision for row in result.rows])


def _expected_sarsa_cell(adl: ADL, seed: int, episodes: int) -> float:
    """Final greedy accuracy of Expected SARSA on the canonical logs."""
    from repro.rl.expected_sarsa import ExpectedSarsaLearner

    routine = adl.canonical_routine()
    log = [list(routine.step_ids)] * episodes
    # A constant ε of 0.1: behaviour and bootstrap explore alike.
    config = PlanningConfig(epsilon=0.1, epsilon_decay=1.0)
    learner = ExpectedSarsaLearner(config)
    trainer = RoutineTrainer(
        adl, config, learner=learner, rng=seeded_generator(seed)
    )
    result = trainer.train(log, routine=routine)
    return result.curve.greedy_accuracy[-1]


def _sarsa_cell(adl: ADL, seed: int, episodes: int) -> float:
    """Final greedy accuracy of naive SARSA(λ) on the canonical logs."""
    routine = adl.canonical_routine()
    log = [list(routine.step_ids)] * episodes
    return _train_sarsa(
        adl, PlanningConfig(), log, seeded_generator(seed)
    )


def _adaptation_cell(
    adl: ADL, epsilon: float, seed: int, max_episodes: int
) -> float:
    """Episodes the always-adapting mode needs to track a new routine."""
    from repro.core.adl import Routine
    from repro.core.events import StepEvent
    from repro.planning.online import OnlineAdaptation

    ids = list(adl.step_ids)
    new_ids = [ids[0]] + ids[1:-1][::-1] + [ids[-1]]
    Routine(adl, new_ids)  # validates the permutation
    trainer = RoutineTrainer(adl, rng=seeded_generator(seed))
    result = trainer.train(
        [list(adl.step_ids)] * 120, routine=adl.canonical_routine()
    )
    adaptation = OnlineAdaptation(
        adl,
        result.learner,
        rng=seeded_generator(1000 + seed),
        epsilon=epsilon,
    )
    for episode in range(1, max_episodes + 1):
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
    return float(max_episodes)


def _escalation_cell(
    definition: ADLDefinition,
    escalate_after: int,
    minimal_response: float,
    episodes: int,
    seed: int,
) -> Tuple[float, int]:
    """One escalation policy: (mean reminders/episode, self-recoveries)."""
    from repro.core.system import CoReDA
    from repro.resident.compliance import ComplianceModel
    from repro.resident.dementia import DementiaProfile

    config = replace(
        CoReDAConfig(seed=seed),
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
        minimal_response=minimal_response, specific_response=0.98
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


def _multi_routine_cell(
    episodes_per_routine: int, seed: int
) -> List[Tuple[str, str, str]]:
    """The whole multi-routine comparison (one shared training run)."""
    definition = dressing_definition()
    adl = definition.adl
    routines = dressing_routines(adl)
    log: List[List[int]] = []
    for routine in routines:
        log.extend([list(routine.step_ids)] * episodes_per_routine)
    rng = seeded_generator(seed)
    order = rng.permutation(len(log))
    mixed = [log[i] for i in order]

    planner = MultiRoutinePlanner(adl, rng=seeded_generator(seed + 1))
    planner.train(mixed)
    single = RoutineTrainer(adl, rng=seeded_generator(seed + 2))
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


def plan_lambda_sweep(
    adl: ADL,
    lambdas: Sequence[float] = (0.0, 0.3, 0.7, 0.9),
    seeds: Sequence[int] = tuple(range(8)),
    cache_dir: Optional[str] = None,
) -> Section:
    """Trace decay λ vs mean iterations to the 95% criterion."""
    cells = [
        Cell(
            _convergence_cell,
            (adl, replace(PlanningConfig(), trace_decay=lam), seed, 120,
             0.95, None, cache_dir),
            label=f"lambda.{lam}[{seed}]",
        )
        for lam in lambdas
        for seed in seeds
    ]

    def merge(results: List[Optional[int]]) -> str:
        rows = []
        for index, lam in enumerate(lambdas):
            chunk = results[index * len(seeds):(index + 1) * len(seeds)]
            label, mean_text, rate = _convergence_row(f"{lam:.1f}", chunk)
            rows.append((label, mean_text, rate))
        return format_table(
            ["lambda", "Mean iterations (95%)", "Converged"],
            rows,
            title=f"Ablation: eligibility-trace decay ({adl.name})",
        )

    return Section(f"ablation.lambda.{adl.name}", cells, merge)


def plan_wrong_reward_sweep(
    adl: ADL,
    wrong_rewards: Sequence[float] = (0.0, 50.0, 100.0),
    seeds: Sequence[int] = tuple(range(5)),
    episodes: int = 120,
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
             episodes, cache_dir),
            label=f"wrong-reward.{wrong}[{seed}]",
        )
        for wrong in wrong_rewards
        for seed in seeds
    ]

    def merge(results: List[float]) -> str:
        rows = []
        for index, wrong in enumerate(wrong_rewards):
            chunk = results[index * len(seeds):(index + 1) * len(seeds)]
            rows.append((f"{wrong:.0f}", f"{mean(chunk):.1%}"))
        return format_table(
            ["Wrong-prompt reward", "Final greedy accuracy"],
            rows,
            title=f"Ablation: correctness-contingent reward ({adl.name})",
        )

    return Section(f"ablation.wrong-reward.{adl.name}", cells, merge)


def plan_detector_sweep(
    ks: Sequence[int] = (1, 2, 3, 5),
    window: int = 10,
    trials: int = 300,
    seed: int = 0,
    profile: Optional[SignalProfile] = None,
    handling_duration: float = 1.8,
    idle_seconds: float = 600.0,
) -> Section:
    """The k of the k-of-n rule: hard-step detection vs idle noise.

    Uses the towel profile (the paper's hardest accelerometer step).
    Lower k detects short handling more often but trips on idle
    noise; the paper's k=3 buys a near-zero false-trigger rate.
    """
    profile = profile if profile is not None else SignalProfile(
        burst_probability=0.30
    )
    cells = [
        Cell(
            _detector_cell,
            (k, window, trials, seed, profile, handling_duration,
             idle_seconds),
            label=f"detector.{k}-of-{window}",
        )
        for k in ks
    ]

    def merge(results: List[Tuple[int, int]]) -> str:
        rows = [
            (
                f"{k}-of-{window}",
                f"{hits / trials:.1%}",
                f"{false_triggers / (idle_seconds / 60):.2f}/min",
            )
            for k, (hits, false_triggers) in zip(ks, results)
        ]
        return format_table(
            ["Rule", "Short-step detection", "Idle false triggers"],
            rows,
            title="Ablation: usage-detection rule (towel-profile handling)",
        )

    return Section("ablation.detector", cells, merge)


def plan_dyna_sweep(
    adl: ADL,
    planning_steps: Sequence[int] = (0, 5, 20),
    seeds: Sequence[int] = tuple(range(8)),
    cache_dir: Optional[str] = None,
) -> Section:
    """Dyna-Q planning steps vs convergence speed (fast learning)."""
    base = PlanningConfig()
    specs: List[Tuple[str, Optional[Tuple]]] = [("TD(lambda) Q", None)]
    specs.extend(
        (f"Dyna-Q ({steps} planning steps)", ("dyna", steps))
        for steps in planning_steps
    )
    cells = [
        Cell(
            _convergence_cell,
            (adl, base, seed, 120, 0.95, spec, cache_dir),
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


def plan_radio_sweep(
    definition: ADLDefinition,
    loss_rates: Sequence[float] = (0.0, 0.05, 0.4, 0.8),
    samples_per_step: int = 25,
    seed: int = 0,
    sensing: Optional[SensingConfig] = None,
) -> Section:
    """Frame-loss probability vs mean end-to-end extract precision.

    ``sensing`` overrides the sensing configuration (the sensing
    fast-path tests use it to run the sweep under a given
    configuration); cell argument tuples are unchanged when it is
    ``None``.
    """
    cells = [
        Cell(
            _radio_cell,
            (definition, loss, samples_per_step, seed)
            + ((sensing,) if sensing is not None else ()),
            label=f"radio.{loss}",
        )
        for loss in loss_rates
    ]

    def merge(results: List[float]) -> str:
        rows = [
            (f"{loss:.0%}", f"{precision:.1%}")
            for loss, precision in zip(loss_rates, results)
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
    episodes: int = 120,
    criterion: float = 0.95,
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
            (adl, config, seed, episodes, criterion, None, cache_dir),
            label=f"sarsa.q[{seed}]",
        )
        for seed in seeds
    ]
    cells.extend(
        Cell(
            _expected_sarsa_cell, (adl, seed, episodes),
            label=f"sarsa.expected[{seed}]",
        )
        for seed in seeds
    )
    cells.extend(
        Cell(_sarsa_cell, (adl, seed, episodes), label=f"sarsa.naive[{seed}]")
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


def _train_sarsa(
    adl: ADL,
    config: PlanningConfig,
    log: Sequence[Sequence[int]],
    rng: np.random.Generator,
) -> float:
    """Train SARSA(λ) on logged episodes; return final greedy accuracy."""
    actions = tuple(action_space(adl))
    learner = SarsaLambdaLearner(config)
    routine_steps = list(log[0])
    reward_fn = CoReDAReward(config, routine_steps[-1])
    for iteration, episode in enumerate(log):
        states = episode_states(list(episode))
        learner.begin_episode()
        action, _ = learner.select_action(states[0], actions, rng, step=iteration)
        for index in range(len(states) - 1):
            state, next_state = states[index], states[index + 1]
            reward = reward_fn.reward(state, action, next_state)
            done = next_state.current == reward_fn.terminal_step_id
            if done:
                learner.observe(state, action, reward, next_state, None, True)
                break
            next_action, _ = learner.select_action(
                next_state, actions, rng, step=iteration
            )
            learner.observe(state, action, reward, next_state, next_action, False)
            action = next_action
    # Greedy probe against the routine.
    states = episode_states(routine_steps)
    total = len(states) - 1
    correct = sum(
        1
        for index in range(total)
        if learner.greedy_action(states[index], actions).tool_id
        == states[index + 1].current
    )
    return correct / total


def plan_escalation_ablation(
    definition: ADLDefinition,
    minimal_response: float = 0.35,
    episodes: int = 8,
    seed: int = 0,
) -> Section:
    """Does escalation rescue users who miss minimal prompts?

    A resident who notices only ``minimal_response`` of minimal
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
            (definition, escalate_after, minimal_response, episodes, seed),
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
                f"{minimal_response:.0%})"
            ),
        )

    return Section(f"ablation.escalation.{definition.adl.name}", cells, merge)


def plan_adaptation_speed(
    adl: ADL,
    epsilons: Sequence[float] = (0.05, 0.1, 0.3),
    seeds: Sequence[int] = tuple(range(5)),
    max_episodes: int = 60,
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
            (adl, epsilon, seed, max_episodes),
            label=f"adaptation.{epsilon}[{seed}]",
        )
        for epsilon in epsilons
        for seed in seeds
    ]

    def merge(results: List[float]) -> str:
        rows = []
        for index, epsilon in enumerate(epsilons):
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


def plan_multi_routine_comparison(
    episodes_per_routine: int = 60,
    seed: int = 0,
) -> Section:
    """Multi-routine planner vs a single Q-table on mixed dressing logs."""
    cells = [
        Cell(
            _multi_routine_cell,
            (episodes_per_routine, seed),
            label="multi-routine",
        )
    ]

    def merge(results: List[List[Tuple[str, str, str]]]) -> str:
        return format_table(
            ["User routine", "Multi-routine planner", "Single Q-table"],
            results[0],
            title="Extension: multi-routine dressing (future-work item 1)",
        )

    return Section("extension.multi-routine", cells, merge)
