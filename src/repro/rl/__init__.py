"""A from-scratch tabular reinforcement-learning toolbox.

This package replaces the paper's dependency on RL Toolbox 2.0.  It
provides the TD(λ) Q-learning algorithm the planning subsystem runs
on, plus the companions needed for baselines and ablations: SARSA(λ),
Expected SARSA, Dyna-Q, Double Q-learning, value iteration and
convergence detection.  Every learner is built from a
:class:`~repro.core.config.PlanningConfig` and explores ε-greedily
(:class:`~repro.rl.learner.TabularLearner`).
"""

from repro.rl.convergence import ConvergenceDetector, convergence_iteration
from repro.rl.dense import DenseQTable, DenseTraces, StateActionIndex
from repro.rl.double_q import DoubleQLearner
from repro.rl.dyna import DynaQLearner
from repro.rl.expected_sarsa import ExpectedSarsaLearner
from repro.rl.learner import TabularLearner
from repro.rl.mdp import TabularMDP, TransitionOutcome
from repro.rl.sarsa import SarsaLambdaLearner
from repro.rl.tdlambda import TDLambdaQLearner
from repro.rl.value_iteration import (
    ValueIterationResult,
    extract_policy,
    q_values,
    value_iteration,
)

__all__ = [
    "ConvergenceDetector",
    "DenseQTable",
    "DenseTraces",
    "DoubleQLearner",
    "DynaQLearner",
    "ExpectedSarsaLearner",
    "SarsaLambdaLearner",
    "StateActionIndex",
    "TabularLearner",
    "TabularMDP",
    "TDLambdaQLearner",
    "TransitionOutcome",
    "ValueIterationResult",
    "convergence_iteration",
    "extract_policy",
    "q_values",
    "value_iteration",
]
