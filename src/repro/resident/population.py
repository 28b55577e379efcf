"""Population generation for cohort studies.

The paper's partner NPO cares for 25 patients aged 72-91 with varying
dementia severity.  :func:`generate_population` produces a comparable
synthetic cohort: each member gets their own routine (per care
principle 1, "keep the dementia patients do ADLs as they did
before"), severity and compliance behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.adl import ADL, Routine
from repro.core.config import check_domains, domain
from repro.core.errors import ConfigurationError
from repro.resident.compliance import ComplianceModel
from repro.resident.dementia import DementiaProfile
from repro.resident.routines import personalized_routine
from repro.sim.random import RandomStreams

__all__ = ["ResidentProfile", "CohortBounds", "generate_population"]


@dataclass(frozen=True)
class ResidentProfile:
    """The static description of one cohort member."""

    name: str
    age: int
    severity: float
    routine: Routine
    dementia: DementiaProfile
    compliance: ComplianceModel


@dataclass(frozen=True)
class CohortBounds:
    """The ranges :func:`generate_population` draws a cohort from;
    constructing one checks them."""

    min_age: int = domain(72, "[0, inf)")
    max_age: int = domain(91, "[0, inf)")
    #: Severity is uniform in [0.1, ``max_severity``].
    max_severity: float = domain(0.8, "[0.1, 1.0]")

    def __post_init__(self) -> None:
        check_domains(self)
        if self.min_age > self.max_age:
            raise ConfigurationError(
                f"min_age ({self.min_age}) must not exceed max_age "
                f"({self.max_age})"
            )


def generate_population(
    adl: ADL,
    count: int,
    streams: RandomStreams,
    min_age: int = 72,
    max_age: int = 91,
    max_severity: float = 0.8,
) -> List[ResidentProfile]:
    """A synthetic cohort of ``count`` residents for one ADL.

    Ages are uniform over the NPO cohort's range; severity is uniform
    in [0.1, ``max_severity``]; roughly half the cohort uses a
    personalized (non-canonical) routine.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    CohortBounds(min_age, max_age, max_severity)
    rng = streams.get("population")
    profiles = []
    for index in range(count):
        severity = float(rng.uniform(0.1, max_severity))
        compliance = ComplianceModel(
            minimal_response=float(rng.uniform(0.7, 0.95)),
            specific_response=float(rng.uniform(0.95, 1.0)),
            delay_mean=float(rng.uniform(2.0, 6.0)),
            delay_sd=1.0,
        )
        profiles.append(
            ResidentProfile(
                name=f"resident-{index:02d}",
                age=int(rng.integers(min_age, max_age + 1)),
                severity=severity,
                routine=personalized_routine(adl, rng),
                dementia=DementiaProfile.from_severity(severity),
                compliance=compliance,
            )
        )
    return profiles
