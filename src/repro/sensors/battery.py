"""Node energy model: batteries drain, nodes die.

The real PAVENET runs on batteries; every ADC sample, radio attempt
and LED blink costs charge.  The model keeps the accounting in
millijoules with defaults in the right ballpark for a PIC18 + CC1000
class node on two AA cells, and the node firmware integrates it: a
depleted node simply stops -- which the failure-injection tests show
presents downstream exactly like any dead node.

The interesting knob is the sampling rate: the paper's 10 Hz is what
makes 3-of-10 detection of a 1.5-2 s handling possible, and it is
also the dominant energy draw.  ``estimate_lifetime`` and the
sampling-rate ablation bench chart that trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import check_domains, domain

__all__ = ["PowerProfile", "Battery", "estimate_lifetime_days"]


@dataclass(frozen=True)
class PowerProfile:
    """Energy cost of node operations, in millijoules."""

    #: One ADC sample + detector update.
    sample_cost_mj: float = domain(0.05, "[0, inf)")
    #: One radio transmission attempt (data + ack listen).
    tx_attempt_cost_mj: float = domain(1.0, "[0, inf)")
    #: One LED flash.
    led_blink_cost_mj: float = domain(5.0, "[0, inf)")
    #: Sleep-mode draw per second.
    idle_cost_mj_per_s: float = domain(0.01, "[0, inf)")

    def __post_init__(self) -> None:
        check_domains(self)


#: Two AA alkaline cells, usable energy (~20 kJ), in millijoules.
TWO_AA_CAPACITY_MJ = 20_000_000.0


class Battery:
    """A finite energy store with drain accounting."""

    def __init__(self, capacity_mj: float = TWO_AA_CAPACITY_MJ) -> None:
        if capacity_mj <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_mj = float(capacity_mj)
        self.drained_mj = 0.0

    def drain(self, amount_mj: float) -> bool:
        """Consume ``amount_mj``; returns False once depleted.

        Draining a depleted battery stays depleted (no negative
        charge); the caller (node firmware) is expected to stop.
        """
        if amount_mj < 0:
            raise ValueError("cannot drain a negative amount")
        if self.depleted:
            return False
        self.drained_mj = min(self.drained_mj + amount_mj, self.capacity_mj)
        return not self.depleted

    @property
    def depleted(self) -> bool:
        return self.drained_mj >= self.capacity_mj

    @property
    def remaining_fraction(self) -> float:
        return 1.0 - self.drained_mj / self.capacity_mj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Battery({self.remaining_fraction:.1%} remaining)"


def estimate_lifetime_days(
    profile: PowerProfile,
    sampling_hz: float,
    reports_per_hour: float = 10.0,
    blinks_per_hour: float = 5.0,
    capacity_mj: float = TWO_AA_CAPACITY_MJ,
) -> float:
    """Analytic node lifetime under a steady workload, in days."""
    if sampling_hz <= 0:
        raise ValueError("sampling_hz must be positive")
    per_second = (
        profile.idle_cost_mj_per_s
        + sampling_hz * profile.sample_cost_mj
        + reports_per_hour / 3600.0 * profile.tx_attempt_cost_mj
        + blinks_per_hour / 3600.0 * profile.led_blink_cost_mj
    )
    return capacity_mj / per_second / 86_400.0
