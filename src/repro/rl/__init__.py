"""A from-scratch tabular reinforcement-learning toolbox.

This package replaces the paper's dependency on RL Toolbox 2.0.  It
provides the TD(λ) Q-learning algorithm the planning subsystem runs
on, plus the companions needed for baselines, ablations and the
paper's future-work extensions: SARSA(λ), Dyna-Q, value iteration,
behaviour policies, schedules, eligibility traces and convergence
detection.
"""

from repro.rl.convergence import ConvergenceDetector, convergence_iteration
from repro.rl.dense import DenseQTable, DenseTraces, StateActionIndex
from repro.rl.double_q import DoubleQLearner
from repro.rl.dyna import DynaQLearner
from repro.rl.expected_sarsa import ExpectedSarsaLearner
from repro.rl.mdp import TabularMDP, TransitionOutcome
from repro.rl.policies import (
    EpsilonGreedyPolicy,
    GreedyPolicy,
    Policy,
    SoftmaxPolicy,
)
from repro.rl.rewards import RewardFunction
from repro.rl.sarsa import SarsaLambdaLearner
from repro.rl.schedules import (
    ConstantSchedule,
    ExponentialDecay,
    HarmonicDecay,
    LinearDecay,
    Schedule,
)
from repro.rl.tdlambda import TDLambdaQLearner
from repro.rl.traces import TraceKind
from repro.rl.value_iteration import (
    ValueIterationResult,
    extract_policy,
    q_values,
    value_iteration,
)

__all__ = [
    "ConstantSchedule",
    "ConvergenceDetector",
    "DenseQTable",
    "DenseTraces",
    "DoubleQLearner",
    "DynaQLearner",
    "EpsilonGreedyPolicy",
    "ExpectedSarsaLearner",
    "ExponentialDecay",
    "GreedyPolicy",
    "HarmonicDecay",
    "LinearDecay",
    "Policy",
    "RewardFunction",
    "SarsaLambdaLearner",
    "Schedule",
    "SoftmaxPolicy",
    "StateActionIndex",
    "TabularMDP",
    "TDLambdaQLearner",
    "TraceKind",
    "TransitionOutcome",
    "ValueIterationResult",
    "convergence_iteration",
    "extract_policy",
    "q_values",
    "value_iteration",
]
