"""Unit tests for configuration validation and profiles."""

import pytest

from repro.core.config import (
    CoReDAConfig,
    PlanningConfig,
    RadioConfig,
    RemindingConfig,
    SensingConfig,
)
from repro.core.errors import ConfigurationError

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
         {"max_retries": -1}],
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
