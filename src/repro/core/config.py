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

import sys
from dataclasses import Field, dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.errors import ConfigurationError

__all__ = [
    "SensingConfig",
    "RadioConfig",
    "PlanningConfig",
    "RemindingConfig",
    "CoReDAConfig",
    "check_domains",
    "domain",
]


def domain(default: Any, interval: Optional[str] = None) -> Any:
    """A dataclass field with a declared domain.

    The type is the field's annotation: ``float`` takes any finite
    real but a bool, ``int`` any integer but a bool, ``bool`` only a
    bool and ``str`` only a str.  Nothing is converted.  A number must
    also lie in ``interval``, written the way errors and the docs
    print it, e.g. ``"(0, 1]"`` or ``"[0, inf)"``.  The class's
    ``__post_init__`` enforces it with :func:`check_domains`.
    """
    return field(default=default, metadata={"domain": interval})


#: A finite real beyond this cannot become a float: arithmetic on it
#: would overflow, so a float field refuses it.
_FLOAT_MAX = sys.float_info.max

#: Annotation -> (the type accepted at a glance, the check any other
#: value's type gets, what an error says the value must be).
_KINDS: Dict[str, Tuple[type, Callable[[Any], bool], str]] = {
    "float": (
        float,
        lambda v: isinstance(v, Real) and not isinstance(v, bool)
        and -_FLOAT_MAX <= v <= _FLOAT_MAX,
        "",
    ),
    "int": (
        int,
        lambda v: isinstance(v, Integral) and not isinstance(v, bool),
        "an integer ",
    ),
    "bool": (bool, lambda v: False, "a bool"),
    "str": (str, lambda v: isinstance(v, str), "a string"),
}

#: Class -> its check plan, built at the class's first check.
_PLANS: Dict[type, Tuple[tuple, ...]] = {}


def _plan_entry(spec: Field) -> tuple:
    exact, accepts, expected = _KINDS[spec.type]
    interval = spec.metadata["domain"]
    if interval is None:
        return spec.name, exact, accepts, None, None, False, False, expected
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    return (
        spec.name, exact, accepts, low, high, interval[0] == "(",
        interval[-1] == ")", f"{expected}in {interval}",
    )


def check_domains(instance: Any) -> None:
    """Raise :class:`ConfigurationError` naming the first field of the
    dataclass ``instance`` whose value lies outside its :func:`domain`.
    """
    plan = _PLANS.get(type(instance))
    if plan is None:
        plan = _PLANS[type(instance)] = tuple(
            _plan_entry(spec)
            for spec in fields(instance)
            if "domain" in spec.metadata
        )
    for name, exact, accepts, low, high, low_open, high_open, expected in plan:
        value = getattr(instance, name)
        if (type(value) is not exact and not accepts(value)) or (
            low is not None
            and not (
                (low < value if low_open else low <= value)
                and (value < high if high_open else value <= high)
            )
        ):
            raise ConfigurationError(
                f"{name} must be {expected}, got {value!r}"
            )


@dataclass(frozen=True)
class SensingConfig:
    """Sensing-subsystem parameters (paper section 2.1)."""

    #: Samples per second taken by each node ("10 times in one second").
    sampling_hz: float = domain(10.0, "[0.1, 1000]")
    #: Window length for the usage rule (the "10" of 3-of-10).
    window_size: int = domain(10, "[1, 1000]")
    #: Samples that must surpass the threshold ("three of these 10").
    threshold_count: int = domain(3, "[1, inf)")
    #: Signal magnitude a sample must exceed to count as activity.
    usage_threshold: float = domain(1.0, "(-inf, inf)")
    #: Seconds without any tool usage before StepID 0 (idle) is emitted.
    idle_timeout: float = domain(30.0, "(0, inf)")
    #: Refractory period after a detection before the same node may
    #: report again (keeps one physical use = one usage event).
    refractory_period: float = domain(2.0, "[0, 3600]")

    def __post_init__(self) -> None:
        check_domains(self)
        if self.threshold_count > self.window_size:
            raise ConfigurationError(
                f"threshold_count ({self.threshold_count}) must not exceed "
                f"window_size ({self.window_size})"
            )


@dataclass(frozen=True)
class RadioConfig:
    """CC1000-like radio model parameters."""

    #: Probability an individual frame is lost in the air.
    loss_probability: float = domain(0.02, "[0, 1)")
    #: One-way latency, seconds (sub-millisecond on the real CC1000;
    #: kept configurable for stress tests).
    latency: float = domain(0.005, "[0, inf)")
    #: Link-layer retransmissions before a frame is dropped for good.
    max_retries: int = domain(3, "[0, 255]")
    #: Delay between retransmissions, seconds.
    retry_interval: float = domain(0.05, "[0, inf)")

    def __post_init__(self) -> None:
        check_domains(self)


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
    learning_rate: float = domain(0.2, "(0, 1]")
    #: Discount factor (the paper's "converge factor" β).
    discount: float = domain(0.9, "[0, 1)")
    #: Eligibility-trace decay λ of TD(λ).
    trace_decay: float = domain(0.7, "[0, 1]")
    #: ε of the ε-greedy behaviour policy during training.
    epsilon: float = domain(0.2, "[0, 1]")
    #: Multiplicative ε decay applied per training iteration.  The
    #: default lands the paper's Figure 4 numbers: the behaviour
    #: accuracy crosses 95% near iteration 50 and 98% near 90.
    epsilon_decay: float = domain(0.978, "(0, 1]")
    #: Reward for completing the ADL (terminal step reached).
    terminal_reward: float = domain(1000.0, "(-inf, inf)")
    #: Reward for a correct *minimal* prompt on an intermediate step.
    minimal_reward: float = domain(100.0, "(-inf, inf)")
    #: Reward for a correct *specific* prompt on an intermediate step.
    specific_reward: float = domain(50.0, "(-inf, inf)")
    #: Reward when the prompted tool does not match the next step.
    wrong_prompt_reward: float = domain(0.0, "(-inf, inf)")
    #: Default convergence criterion (fraction of correct predictions).
    convergence_criterion: float = domain(0.95, "(0, 1]")
    #: Consecutive iterations at/above the criterion to declare converged.
    convergence_patience: int = domain(3, "[1, inf)")
    #: Optimistic initial Q value.  Initialising at the terminal
    #: reward makes untried prompts look as good as the best known
    #: one, so the greedy policy systematically rules actions out
    #: instead of waiting for ε-exploration to stumble on the correct
    #: tool (8 actions × rare ε hits would need far more than the
    #: paper's 120 samples).
    initial_q: float = domain(1000.0, "(-inf, inf)")

    def __post_init__(self) -> None:
        check_domains(self)
        if self.minimal_reward < self.specific_reward:
            raise ConfigurationError(
                "minimal_reward must be >= specific_reward (the paper "
                "rewards minimal prompting more to promote independence)"
            )


@dataclass(frozen=True)
class RemindingConfig:
    """Reminding-subsystem parameters (paper section 2.3)."""

    #: Fallback stall timeout in seconds (Figure 1 uses 30 s).
    stall_timeout: float = domain(30.0, "[1, inf)")
    #: If True, the stall timeout for a step is derived from the
    #: statistics of how long the user usually takes, as the paper's
    #: footnote 1 prescribes: mean + ``stall_sd_factor`` * sd.
    statistical_timeout: bool = domain(True)
    #: Standard deviations above the mean step duration before a
    #: stall prompt fires (only with ``statistical_timeout``).
    stall_sd_factor: float = domain(3.0, "[0, inf)")
    #: LED blink counts: "minimal gives ... less blinks".
    minimal_blinks: int = domain(3, "[1, inf)")
    #: "specific gives ... more blinks".
    specific_blinks: int = domain(8, "[1, inf)")
    #: Escalate minimal -> specific after this many unanswered
    #: reminders for the same step.
    escalate_after: int = domain(2, "[1, inf)")
    #: Hard cap on reminders per step before giving up (a caregiver
    #: would be alerted in a deployed system).
    max_reminders_per_step: int = domain(5, "[1, inf)")
    #: Whether to praise the user after a correctly followed prompt.
    praise_enabled: bool = domain(True)
    #: Name used in specific prompts ("Mr. Kim, use the ...").
    user_title: str = domain("Mr. Tanaka")

    def __post_init__(self) -> None:
        check_domains(self)
        if self.minimal_blinks >= self.specific_blinks:
            raise ConfigurationError(
                "minimal prompts must blink less than specific prompts"
            )


@dataclass(frozen=True)
class CoReDAConfig:
    """Top-level configuration aggregating all subsystems."""

    sensing: SensingConfig = field(default_factory=SensingConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    planning: PlanningConfig = field(default_factory=PlanningConfig)
    reminding: RemindingConfig = field(default_factory=RemindingConfig)
    #: Master seed for all random streams.
    seed: int = domain(0, "(-inf, inf)")

    def __post_init__(self) -> None:
        check_domains(self)

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
