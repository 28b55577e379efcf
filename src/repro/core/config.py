"""Configuration dataclasses for every CoReDA subsystem.

Defaults are taken from the paper wherever it states a number:

* 10 Hz sampling, usage declared when 3 of 10 samples surpass the
  threshold (section 2.1);
* rewards 1000 (terminal), 100 (minimal prompt), 50 (specific prompt)
  (section 2.2);
* 30 s stall timeout, which the paper notes "should be determined from
  the statistical data of how long a user will use this tool" -- we
  implement both the fixed value and the statistical rule;
* convergence criteria 95% and 98% (section 3.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.errors import ConfigurationError

__all__ = [
    "SensingConfig",
    "RadioConfig",
    "PlanningConfig",
    "RemindingConfig",
    "CoReDAConfig",
]


def _require_finite(config, *names: str) -> None:
    """Reject a NaN or infinite value in any of ``config``'s ``names``
    fields, naming the field."""
    for name in names:
        if not math.isfinite(getattr(config, name)):
            raise ConfigurationError(f"{name} must be finite")


@dataclass(frozen=True)
class SensingConfig:
    """Sensing-subsystem parameters (paper section 2.1)."""

    #: Samples per second taken by each node ("10 times in one second").
    sampling_hz: float = 10.0
    #: Window length for the usage rule (the "10" of 3-of-10).
    window_size: int = 10
    #: Samples that must surpass the threshold ("three of these 10").
    threshold_count: int = 3
    #: Signal magnitude a sample must exceed to count as activity.
    usage_threshold: float = 1.0
    #: Seconds without any tool usage before StepID 0 (idle) is emitted.
    idle_timeout: float = 30.0
    #: Refractory period after a detection before the same node may
    #: report again (keeps one physical use = one usage event).
    refractory_period: float = 2.0

    def __post_init__(self) -> None:
        _require_finite(
            self, "sampling_hz", "usage_threshold", "idle_timeout",
            "refractory_period",
        )
        if self.sampling_hz <= 0:
            raise ConfigurationError("sampling_hz must be positive")
        if not 1 <= self.threshold_count <= self.window_size:
            raise ConfigurationError(
                "threshold_count must be within [1, window_size]; got "
                f"{self.threshold_count} of {self.window_size}"
            )
        if self.idle_timeout <= 0:
            raise ConfigurationError("idle_timeout must be positive")
        if self.refractory_period < 0:
            raise ConfigurationError("refractory_period must be >= 0")


@dataclass(frozen=True)
class RadioConfig:
    """CC1000-like radio model parameters."""

    #: Probability an individual frame is lost in the air.
    loss_probability: float = 0.02
    #: One-way latency, seconds (sub-millisecond on the real CC1000;
    #: kept configurable for stress tests).
    latency: float = 0.005
    #: Link-layer retransmissions before a frame is dropped for good.
    max_retries: int = 3
    #: Delay between retransmissions, seconds.
    retry_interval: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError("loss_probability must be in [0, 1)")
        _require_finite(self, "latency", "retry_interval")
        if self.latency < 0:
            raise ConfigurationError("latency must be >= 0")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.retry_interval < 0:
            raise ConfigurationError("retry_interval must be >= 0")


@dataclass(frozen=True)
class PlanningConfig:
    """TD(λ) Q-learning parameters (paper section 2.2).

    The paper's reward statement is conditioned on the prompt being
    *followed into the correct next step*: a prompt whose tool does
    not match the observed next step earns ``wrong_prompt_reward``
    (default 0), otherwise the policy could never distinguish correct
    from incorrect guidance.
    """

    #: Learning rate α.
    learning_rate: float = 0.2
    #: Discount factor (the paper's "converge factor" β).
    discount: float = 0.9
    #: Eligibility-trace decay λ of TD(λ).
    trace_decay: float = 0.7
    #: ε of the ε-greedy behaviour policy during training.
    epsilon: float = 0.2
    #: Multiplicative ε decay applied per training iteration.  The
    #: default lands the paper's Figure 4 numbers: the behaviour
    #: accuracy crosses 95% near iteration 50 and 98% near 90.
    epsilon_decay: float = 0.978
    #: Reward for completing the ADL (terminal step reached).
    terminal_reward: float = 1000.0
    #: Reward for a correct *minimal* prompt on an intermediate step.
    minimal_reward: float = 100.0
    #: Reward for a correct *specific* prompt on an intermediate step.
    specific_reward: float = 50.0
    #: Reward when the prompted tool does not match the next step.
    wrong_prompt_reward: float = 0.0
    #: Default convergence criterion (fraction of correct predictions).
    convergence_criterion: float = 0.95
    #: Consecutive iterations at/above the criterion to declare converged.
    convergence_patience: int = 3
    #: Optimistic initial Q value.  Initialising at the terminal
    #: reward makes untried prompts look as good as the best known
    #: one, so the greedy policy systematically rules actions out
    #: instead of waiting for ε-exploration to stumble on the correct
    #: tool (8 actions × rare ε hits would need far more than the
    #: paper's 120 samples).
    initial_q: float = 1000.0

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigurationError("learning_rate must be in (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigurationError("discount must be in [0, 1)")
        if not 0.0 <= self.trace_decay <= 1.0:
            raise ConfigurationError("trace_decay must be in [0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError("epsilon must be in [0, 1]")
        if not 0.0 < self.epsilon_decay <= 1.0:
            raise ConfigurationError("epsilon_decay must be in (0, 1]")
        _require_finite(
            self, "initial_q", "terminal_reward", "minimal_reward",
            "specific_reward", "wrong_prompt_reward",
        )
        if not 0.0 < self.convergence_criterion <= 1.0:
            raise ConfigurationError("convergence_criterion must be in (0, 1]")
        if self.convergence_patience < 1:
            raise ConfigurationError("convergence_patience must be >= 1")
        if self.minimal_reward < self.specific_reward:
            raise ConfigurationError(
                "minimal_reward must be >= specific_reward (the paper "
                "rewards minimal prompting more to promote independence)"
            )


@dataclass(frozen=True)
class RemindingConfig:
    """Reminding-subsystem parameters (paper section 2.3)."""

    #: Fallback stall timeout in seconds (Figure 1 uses 30 s).
    stall_timeout: float = 30.0
    #: If True, the stall timeout for a step is derived from the
    #: statistics of how long the user usually takes, as the paper's
    #: footnote 1 prescribes: mean + ``stall_sd_factor`` * sd.
    statistical_timeout: bool = True
    #: Standard deviations above the mean step duration before a
    #: stall prompt fires (only with ``statistical_timeout``).
    stall_sd_factor: float = 3.0
    #: LED blink counts: "minimal gives ... less blinks".
    minimal_blinks: int = 3
    #: "specific gives ... more blinks".
    specific_blinks: int = 8
    #: Escalate minimal -> specific after this many unanswered
    #: reminders for the same step.
    escalate_after: int = 2
    #: Hard cap on reminders per step before giving up (a caregiver
    #: would be alerted in a deployed system).
    max_reminders_per_step: int = 5
    #: Whether to praise the user after a correctly followed prompt.
    praise_enabled: bool = True
    #: Name used in specific prompts ("Mr. Kim, use the ...").
    user_title: str = "Mr. Tanaka"

    def __post_init__(self) -> None:
        _require_finite(self, "stall_timeout", "stall_sd_factor")
        if self.stall_timeout <= 0:
            raise ConfigurationError("stall_timeout must be positive")
        if self.stall_sd_factor < 0:
            raise ConfigurationError("stall_sd_factor must be >= 0")
        if self.minimal_blinks <= 0 or self.specific_blinks <= 0:
            raise ConfigurationError("blink counts must be positive")
        if self.minimal_blinks >= self.specific_blinks:
            raise ConfigurationError(
                "minimal prompts must blink less than specific prompts"
            )
        if self.escalate_after < 1:
            raise ConfigurationError("escalate_after must be >= 1")
        if self.max_reminders_per_step < 1:
            raise ConfigurationError("max_reminders_per_step must be >= 1")


@dataclass(frozen=True)
class CoReDAConfig:
    """Top-level configuration aggregating all subsystems."""

    sensing: SensingConfig = field(default_factory=SensingConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    planning: PlanningConfig = field(default_factory=PlanningConfig)
    reminding: RemindingConfig = field(default_factory=RemindingConfig)
    #: Master seed for all random streams.
    seed: int = 0

    @classmethod
    def elderly_friendly(cls, user_title: str = "Mr. Tanaka") -> "CoReDAConfig":
        """Profile for severe dementia (paper future-work item 3).

        Longer stall windows, specific prompts escalate immediately,
        and more repetitions before giving up.
        """
        base = cls()
        return replace(
            base,
            reminding=replace(
                base.reminding,
                stall_timeout=45.0,
                stall_sd_factor=4.0,
                escalate_after=1,
                max_reminders_per_step=8,
                user_title=user_title,
            ),
        )

    def with_seed(self, seed: int) -> "CoReDAConfig":
        """A copy of this configuration using a different master seed."""
        return replace(self, seed=seed)
