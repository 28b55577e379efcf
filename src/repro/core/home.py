"""A care-home deployment: several ADLs, one simulated world.

A real CoReDA installation does not guide a single activity -- the
same resident brushes their teeth, dresses and makes tea over one
day.  :class:`CareHome` composes one :class:`~repro.core.system.CoReDA`
per ADL over a *shared* simulator, random-stream family and trace, so
simulated time flows continuously across activities while each
deployment keeps its own radio network and event bus (tool uid
spaces are globally unique across the shipped ADLs, so nothing can
cross-talk even in principle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adls.library import ADLDefinition
from repro.core.config import CoReDAConfig
from repro.core.errors import CoReDAError, UnknownADLError
from repro.core.system import CoReDA
from repro.reporting.caregiver import CaregiverReport
from repro.resident.dementia import DementiaProfile
from repro.resident.model import EpisodeOutcome
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.sim.tracing import TraceRecorder

__all__ = ["ScheduledActivity", "DayResult", "CareHome"]


@dataclass(frozen=True)
class ScheduledActivity:
    """One entry of a resident's daily schedule."""

    adl_name: str
    #: Simulated clock time (seconds from day start) to begin at; the
    #: home waits if the previous activity is still running.
    start_at: float = 0.0


@dataclass
class DayResult:
    """Outcomes of one scheduled day."""

    outcomes: List[Tuple[str, EpisodeOutcome]]

    @property
    def completed(self) -> int:
        return sum(1 for _, outcome in self.outcomes if outcome.completed)

    @property
    def total_reminders(self) -> int:
        return sum(outcome.reminders_seen for _, outcome in self.outcomes)


class CareHome:
    """Multiple ADL deployments sharing one simulated world."""

    def __init__(
        self,
        definitions: Sequence[ADLDefinition],
        config: Optional[CoReDAConfig] = None,
    ) -> None:
        if not definitions:
            raise ValueError("a care home needs at least one ADL deployment")
        self.config = config if config is not None else CoReDAConfig()
        self.sim = Simulator()
        self.streams = RandomStreams(self.config.seed)
        self.trace = TraceRecorder()
        self.systems: Dict[str, CoReDA] = {}
        for definition in definitions:
            self.systems[definition.adl.name] = CoReDA(
                definition,
                self.config,
                sim=self.sim,
                streams=self.streams,
                trace=self.trace,
            )

    def system(self, adl_name: str) -> CoReDA:
        """The deployment for one ADL."""
        try:
            return self.systems[adl_name]
        except KeyError:
            raise UnknownADLError(
                f"no deployment for {adl_name!r}; have {sorted(self.systems)}"
            ) from None

    def train_all(self) -> None:
        """Learn the (canonical) routine of every deployed ADL.

        Training runs in deployment (insertion) order -- made explicit
        with ``list`` per the DET003 source invariant.  Order cannot
        leak between systems anyway: each forks its own stream family
        off the ADL name.
        """
        for system in list(self.systems.values()):
            system.train_offline()

    def run_day(
        self,
        schedule: Sequence[ScheduledActivity],
        dementia: Optional[DementiaProfile] = None,
    ) -> DayResult:
        """Run a resident through a daily schedule of activities.

        Activities run in schedule order on the shared clock; each
        starts at its ``start_at`` mark or as soon as the previous
        activity finished, whichever is later.
        """
        if any(system.training is None
               for system in list(self.systems.values())):
            raise CoReDAError("train_all must run before a scheduled day")
        outcomes: List[Tuple[str, EpisodeOutcome]] = []
        for index, activity in enumerate(sorted(schedule, key=lambda a: a.start_at)):
            system = self.system(activity.adl_name)
            if activity.start_at > self.sim.now:
                self.sim.run_until(activity.start_at)
            reliable = {
                step.step_id: max(step.handling_duration, 5.0)
                for step in system.adl.steps
            }
            resident = system.create_resident(
                dementia=dementia,
                handling_overrides=reliable,
                name=f"day.{index}.{activity.adl_name}",
            )
            outcome = system.run_episode(resident, horizon=3600.0)
            outcomes.append((activity.adl_name, outcome))
        return DayResult(outcomes=outcomes)

    def caregiver_reports(self) -> List[CaregiverReport]:
        """One report per deployed ADL, in ADL-name order."""
        reports = []
        for name in sorted(self.systems):
            system = self.systems[name]
            alerts = (
                system.reminding.caregiver_alerts
                if system.reminding is not None
                else 0
            )
            reports.append(
                CaregiverReport.from_session(
                    system.session, system.adl, caregiver_alerts=alerts
                )
            )
        return reports

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CareHome(adls={sorted(self.systems)}, t={self.sim.now:.0f}s)"
