"""Unit tests for configuration validation and profiles."""

import math
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.config import (
    CoReDAConfig,
    PlanningConfig,
    RadioConfig,
    RemindingConfig,
    SensingConfig,
)
from repro.core.errors import ConfigurationError, CoReDAError
from repro.resident.compliance import ComplianceModel
from repro.resident.dementia import DementiaProfile
from repro.sensors.battery import PowerProfile

NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestSensingConfig:
    def test_paper_defaults(self):
        config = SensingConfig()
        assert config.sampling_hz == 10.0
        assert config.threshold_count == 3
        assert config.window_size == 10
        assert config.idle_timeout == 30.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sampling_hz": 0},
            {"threshold_count": 0},
            {"threshold_count": 11},
            {"idle_timeout": 0},
            {"refractory_period": -1},
            {"window_size": 2.5, "threshold_count": 2},
            {"window_size": 10.0},
            {"window_size": 10**30},
            {"sampling_hz": 1e300},
            {"refractory_period": 1e308},
            {"sampling_hz": True},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SensingConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            (field, value)
            for field in (
                "sampling_hz",
                "usage_threshold",
                "idle_timeout",
                "refractory_period",
            )
            for value in NON_FINITE
        ],
    )
    def test_non_finite_names_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SensingConfig(**{field: value})


class TestRadioConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"loss_probability": 1.0}, {"loss_probability": -0.1}, {"latency": -1},
         {"max_retries": -1}, {"max_retries": 2.5}, {"max_retries": 10**9},
         {"loss_probability": "0.5"}],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RadioConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("retry_interval", -1.0)]
        + [
            (field, value)
            for field in ("latency", "retry_interval")
            for value in NON_FINITE
        ],
    )
    def test_non_finite_or_out_of_range_names_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            RadioConfig(**{field: value})

    def test_immediate_retries_allowed(self):
        assert RadioConfig(retry_interval=0.0).retry_interval == 0.0


class TestPlanningConfig:
    def test_paper_rewards(self):
        config = PlanningConfig()
        assert config.terminal_reward == 1000.0
        assert config.minimal_reward == 100.0
        assert config.specific_reward == 50.0

    def test_minimal_must_dominate_specific(self):
        with pytest.raises(ConfigurationError):
            PlanningConfig(minimal_reward=40.0, specific_reward=50.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"discount": 1.0},
            {"trace_decay": 1.1},
            {"epsilon": -0.1},
            {"convergence_criterion": 0.0},
            {"convergence_patience": 0},
            {"epsilon": "0.2"},
            {"convergence_patience": True},
            {"terminal_reward": None},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PlanningConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epsilon_decay", float("nan")),
            ("epsilon_decay", 0.0),
            ("epsilon_decay", 1.5),
            ("epsilon_decay", float("inf")),
        ]
        + [
            (field, value)
            for field in (
                "initial_q",
                "terminal_reward",
                "minimal_reward",
                "specific_reward",
                "wrong_prompt_reward",
            )
            for value in (float("nan"), float("inf"), float("-inf"))
        ],
    )
    def test_non_finite_or_out_of_range_names_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            PlanningConfig(**{field: value})

    def test_epsilon_decay_bounds_are_inclusive_of_one(self):
        assert PlanningConfig(epsilon_decay=1.0).epsilon_decay == 1.0


class TestRemindingConfig:
    def test_minimal_blinks_fewer_than_specific(self):
        with pytest.raises(ConfigurationError):
            RemindingConfig(minimal_blinks=8, specific_blinks=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stall_timeout": 0},
            {"minimal_blinks": 0},
            {"escalate_after": 0},
            {"max_reminders_per_step": 0},
            {"user_title": 5},
            {"statistical_timeout": "no"},
            {"praise_enabled": 1},
            {"stall_timeout": 1e-300},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RemindingConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("stall_sd_factor", -1.0)]
        + [
            (field, value)
            for field in ("stall_timeout", "stall_sd_factor")
            for value in NON_FINITE
        ],
    )
    def test_non_finite_or_out_of_range_names_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            RemindingConfig(**{field: value})


class TestCoReDAConfig:
    def test_with_seed_copies(self):
        config = CoReDAConfig(seed=1)
        other = config.with_seed(9)
        assert other.seed == 9
        assert config.seed == 1
        assert other.planning == config.planning

    def test_elderly_friendly_profile(self):
        config = CoReDAConfig.elderly_friendly("Mrs. Sato")
        assert config.reminding.escalate_after == 1
        assert config.reminding.stall_timeout > CoReDAConfig().reminding.stall_timeout
        assert config.reminding.user_title == "Mrs. Sato"

    def test_frozen(self):
        config = CoReDAConfig()
        with pytest.raises(AttributeError):
            config.seed = 5

    @pytest.mark.parametrize("seed", [1.5, 2.0, None, True, "3"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            CoReDAConfig(seed=seed)
        with pytest.raises(ConfigurationError, match="seed"):
            CoReDAConfig().with_seed(seed)

    def test_values_are_never_converted(self):
        config = SensingConfig(sampling_hz=10, idle_timeout=30)
        assert type(config.sampling_hz) is int
        assert type(config.idle_timeout) is int
        assert CoReDAConfig(seed=2**70).seed == 2**70


class TestOneErrorType:
    def test_configuration_error_is_also_a_value_error(self):
        assert issubclass(ConfigurationError, CoReDAError)
        assert issubclass(ConfigurationError, ValueError)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PlanningConfig(epsilon="0.2"),
             "epsilon must be in [0, 1], got '0.2'"),
            (lambda: PlanningConfig(epsilon=1.5),
             "epsilon must be in [0, 1], got 1.5"),
            (lambda: SensingConfig(window_size=2.5),
             "window_size must be an integer in [1, 1000], got 2.5"),
            (lambda: RemindingConfig(user_title=5),
             "user_title must be a string, got 5"),
            (lambda: RemindingConfig(praise_enabled="yes"),
             "praise_enabled must be a bool, got 'yes'"),
        ],
    )
    def test_message_names_field_domain_and_value(self, build, message):
        with pytest.raises(ConfigurationError) as excinfo:
            build()
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (DementiaProfile, "stall_probability", math.nan),
            (DementiaProfile, "wrong_tool_probability", -0.1),
            (ComplianceModel, "delay_mean", math.nan),
            (ComplianceModel, "delay_mean", math.inf),
            (ComplianceModel, "delay_sd", math.nan),
            (ComplianceModel, "delay_sd", -1.0),
            (ComplianceModel, "minimal_response", 1.5),
            (PowerProfile, "sample_cost_mj", math.nan),
            (PowerProfile, "led_blink_cost_mj", -1.0),
        ],
    )
    def test_model_profiles_refuse_values_outside_their_domain(
        self, cls, field, value
    ):
        with pytest.raises(ConfigurationError, match=field):
            cls(**{field: value})


#: The sections of a ``--config`` document, in the order the docs list them.
SECTIONS = (
    ("sensing", SensingConfig),
    ("radio", RadioConfig),
    ("planning", PlanningConfig),
    ("reminding", RemindingConfig),
    ("top level", CoReDAConfig),
)


def render_domain_table():
    """The domain table of every declared configuration field."""
    lines = ["| Section | Field | Type | Domain |", "| --- | --- | --- | --- |"]
    for section, cls in SECTIONS:
        for spec in fields(cls):
            if "domain" in spec.metadata:
                interval = spec.metadata["domain"] or "any"
                lines.append(
                    f"| {section} | `{spec.name}` | {spec.type} | {interval} |"
                )
    return "\n".join(lines) + "\n"


class TestDomainTable:
    def test_every_field_is_declared(self):
        for _, cls in SECTIONS[:-1]:
            for spec in fields(cls):
                assert "domain" in spec.metadata, spec.name

    def test_extending_doc_prints_the_table(self):
        doc = Path(__file__).resolve().parent.parent / "docs" / "extending.md"
        assert render_domain_table() in doc.read_text(encoding="utf-8")
