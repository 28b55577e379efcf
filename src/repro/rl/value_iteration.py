"""Value iteration and policy extraction on a :class:`TabularMDP`.

This is the planning substrate behind the Boger-style baseline (a
pre-planned MDP guidance system) and the oracle used by tests to
verify that TD(λ) Q-learning converges to the optimal policy on the
paper's routine MDPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable

from repro.rl.mdp import TabularMDP

__all__ = ["ValueIterationResult", "value_iteration", "extract_policy", "q_values"]

State = Hashable
Action = Hashable

#: The discount γ, the sup-norm residual that counts as solved, and
#: the sweep budget.
DISCOUNT = 0.9
TOLERANCE = 1e-8
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class ValueIterationResult:
    """Converged state values plus solver diagnostics."""

    values: Dict[State, float]
    iterations: int
    residual: float


def value_iteration(mdp: TabularMDP) -> ValueIterationResult:
    """Solve ``mdp`` to within ``TOLERANCE`` (sup-norm residual)."""
    discount, tolerance, max_iterations = DISCOUNT, TOLERANCE, MAX_ITERATIONS
    values: Dict[State, float] = {state: 0.0 for state in mdp.states()}
    residual = float("inf")
    iterations = 0
    while residual > tolerance and iterations < max_iterations:
        residual = 0.0
        for state in mdp.states():
            if mdp.is_terminal(state):
                continue
            actions = mdp.actions(state)
            if not actions:
                continue
            best = max(
                _backup(mdp, values, state, action, discount) for action in actions
            )
            residual = max(residual, abs(best - values[state]))
            values[state] = best
        iterations += 1
    return ValueIterationResult(values=values, iterations=iterations, residual=residual)


def q_values(
    mdp: TabularMDP, values: Dict[State, float]
) -> Dict[State, Dict[Action, float]]:
    """Q(s, a) induced by state values ``values``."""
    discount = DISCOUNT
    table: Dict[State, Dict[Action, float]] = {}
    for state in mdp.states():
        if mdp.is_terminal(state):
            continue
        table[state] = {
            action: _backup(mdp, values, state, action, discount)
            for action in mdp.actions(state)
        }
    return table


def extract_policy(
    mdp: TabularMDP, values: Dict[State, float]
) -> Dict[State, Action]:
    """The greedy policy under ``values`` (deterministic tie-break)."""
    policy: Dict[State, Action] = {}
    for state, action_values in q_values(mdp, values).items():
        if not action_values:
            continue
        policy[state] = max(
            sorted(action_values, key=repr), key=lambda a: action_values[a]
        )
    return policy


def _backup(
    mdp: TabularMDP,
    values: Dict[State, float],
    state: State,
    action: Action,
    discount: float,
) -> float:
    total = 0.0
    for outcome in mdp.outcomes(state, action):
        future: float = 0.0
        if not mdp.is_terminal(outcome.next_state):
            future = values.get(outcome.next_state, 0.0)
        total += outcome.probability * (outcome.reward + discount * future)
    return total
