"""Every learner is built from a PlanningConfig, checked by its domain table."""

import inspect
from dataclasses import replace

import pytest

from repro.core.config import PlanningConfig
from repro.core.errors import ConfigurationError
from repro.rl.double_q import DoubleQLearner
from repro.rl.dyna import DynaQLearner
from repro.rl.expected_sarsa import ExpectedSarsaLearner
from repro.rl.sarsa import SarsaLambdaLearner
from repro.rl.tdlambda import TDLambdaQLearner

LEARNERS = (
    TDLambdaQLearner,
    SarsaLambdaLearner,
    ExpectedSarsaLearner,
    DynaQLearner,
    DoubleQLearner,
)

#: (field, value, the domain table's message).
OUT_OF_DOMAIN = (
    ("learning_rate", float("nan"), "learning_rate must be in (0, 1], got nan"),
    ("learning_rate", -1.0, "learning_rate must be in (0, 1], got -1.0"),
    ("initial_q", float("inf"), "initial_q must be in (-inf, inf), got inf"),
    ("epsilon", 5.0, "epsilon must be in [0, 1], got 5.0"),
)


@pytest.mark.parametrize("kind", LEARNERS, ids=lambda kind: kind.__name__)
def test_a_config_is_the_only_setting(kind):
    """α, γ, λ, ε, ε-decay and initial Q come from the config alone."""
    extra = ["planning_steps"] if kind is DynaQLearner else []
    assert list(inspect.signature(kind).parameters) == ["config"] + extra
    config = PlanningConfig(
        learning_rate=0.3, discount=0.8, trace_decay=0.6, epsilon=0.4,
        epsilon_decay=0.5, initial_q=7.0,
    )
    learner = kind(config)
    assert (learner.learning_rate, learner.discount) == (0.3, 0.8)
    assert learner.epsilon_at(0) == 0.4
    assert learner.epsilon_at(2) == 0.4 * 0.5**2
    assert learner.q.value("unseen", "prompt") == 7.0


@pytest.mark.parametrize("kind", LEARNERS, ids=lambda kind: kind.__name__)
@pytest.mark.parametrize(
    "field, value, message", OUT_OF_DOMAIN,
    ids=[f"{field}={value}" for field, value, _ in OUT_OF_DOMAIN],
)
def test_out_of_domain_settings_are_refused(kind, field, value, message):
    config = PlanningConfig()
    kind(config)
    with pytest.raises(ConfigurationError) as refused:
        kind(replace(config, **{field: value}))
    assert str(refused.value) == message


@pytest.mark.parametrize("steps", [2.5, True, -1])
def test_dyna_refuses_a_non_integer_planning_step_count(steps):
    with pytest.raises(ConfigurationError) as refused:
        DynaQLearner(PlanningConfig(), steps)
    assert str(refused.value) == (
        f"planning_steps must be an integer in [0, inf), got {steps!r}"
    )
