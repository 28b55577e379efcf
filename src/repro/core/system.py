"""The CoReDA orchestrator: Figure 2's three subsystems, wired.

Typical lifecycle::

    from repro import CoReDA, CoReDAConfig
    from repro.adls import default_registry

    definition = default_registry().get("tea-making")
    system = CoReDA.build(definition, CoReDAConfig(seed=7))

    routine = definition.adl.canonical_routine()
    system.train_offline(routine, episodes=120)   # learn the routine
    system.start()                                # boot the network

    resident = system.create_resident(routine)
    outcome = system.run_episode(resident)        # live guided episode

Training is offline (from logged step sequences, like the paper's 120
samples); deployment is online (the trained policy drives prompts in
simulated real time).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.adls.library import ADLDefinition
from repro.core.adl import ADL, Routine
from repro.core.bus import EventBus
from repro.core.config import CoReDAConfig
from repro.core.errors import CoReDAError
from repro.core.session import SessionLog
from repro.planning.online import OnlineAdaptation
from repro.planning.predictor import NextStepPredictor
from repro.planning.subsystem import PlanningSubsystem
from repro.planning.trainer import RoutineTrainer, TrainingResult
from repro.reminding.display import Display
from repro.reminding.led import LedController
from repro.reminding.subsystem import RemindingSubsystem
from repro.resident.compliance import ComplianceModel
from repro.resident.dementia import DementiaProfile, ScriptedError
from repro.resident.model import EpisodeOutcome, Resident
from repro.resident.routines import training_episodes
from repro.sensing.subsystem import SensingSubsystem
from repro.sensors.network import SensorNetwork
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.sim.tracing import TraceRecorder

__all__ = ["CoReDA", "system_streams"]

#: Simulated seconds an observed (unguided) episode may take.
_OBSERVE_HORIZON = 1800.0


def system_streams(streams: RandomStreams, adl: ADL) -> RandomStreams:
    """The stream family of ``adl``'s deployment under ``streams``."""
    return streams.fork(f"system.{adl.name}")


class CoReDA:
    """The Context-aware Reminding system for Daily Activities."""

    def __init__(
        self,
        definition: ADLDefinition,
        config: Optional[CoReDAConfig] = None,
        sim: Optional[Simulator] = None,
        streams: Optional[RandomStreams] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        """Build a deployment for one ADL.

        ``sim`` / ``streams`` / ``trace`` may be shared across several
        systems (a :class:`~repro.core.home.CareHome` runs multiple
        ADLs in one simulated world); each system still gets its own
        event bus and sensor network, so deployments cannot cross-talk.
        """
        self.definition = definition
        self.adl = definition.adl
        self.config = config if config is not None else CoReDAConfig()
        self.sim = sim if sim is not None else Simulator()
        if streams is None:
            streams = RandomStreams(self.config.seed)
        self.streams = system_streams(streams, self.adl)
        self.trace = trace if trace is not None else TraceRecorder()
        self.bus = EventBus()
        self.network = SensorNetwork(
            sim=self.sim,
            adl=self.adl,
            sensing_config=self.config.sensing,
            radio_config=self.config.radio,
            streams=self.streams,
            trace=self.trace,
            profiles=definition.signal_profiles,
        )
        self.sensing = SensingSubsystem(
            sim=self.sim,
            adl=self.adl,
            bus=self.bus,
            config=self.config.sensing,
            base_station=self.network.base_station,
            trace=self.trace,
        )
        self.display = Display(self.sim, bus=self.bus, trace=self.trace)
        self.leds = LedController(
            self.sim, self.network.base_station, self.config.reminding, bus=self.bus
        )
        self.session = SessionLog().attach(self.bus)
        self.training: Optional[TrainingResult] = None
        self.predictor: Optional[NextStepPredictor] = None
        self.planning: Optional[PlanningSubsystem] = None
        self.reminding: Optional[RemindingSubsystem] = None
        self.adaptation: Optional[OnlineAdaptation] = None
        self._started = False

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(
        cls,
        definition: ADLDefinition,
        config: Optional[CoReDAConfig] = None,
    ) -> "CoReDA":
        """Construct a system for one ADL deployment."""
        return cls(definition, config)

    # ------------------------------------------------------------------
    # training

    def train_offline(
        self,
        routine: Optional[Routine] = None,
        episodes: int = 120,
        episode_log: Optional[Sequence[Sequence[int]]] = None,
        require_converged: bool = True,
    ) -> TrainingResult:
        """Learn the user's routine and deploy planning + reminding.

        Either pass ``episode_log`` (recorded step sequences) or a
        ``routine`` from which ``episodes`` clean samples are
        generated, mirroring the paper's 120 training samples.
        """
        if episode_log is None:
            if routine is None:
                routine = self.adl.canonical_routine()
            episode_log = training_episodes(routine, episodes)
        trainer = RoutineTrainer(
            self.adl,
            self.config.planning,
            rng=self.streams.get(f"planning.training.{self.adl.name}"),
        )
        self.training = trainer.train(
            episode_log, routine=routine, criteria=(0.95, 0.98)
        )
        self.predictor = NextStepPredictor.from_training(
            self.training, require_converged=require_converged
        )
        self._deploy()
        return self.training

    def deploy_predictor(self, predictor: NextStepPredictor) -> None:
        """Deploy an externally trained or restored policy.

        The fleet layer trains each distinct routine once through the
        content-addressed :class:`~repro.planning.store.PolicyCache`
        and hands the restored predictor straight to the live planning
        and reminding subsystems -- many homes, one training.  Online
        adaptation stays unavailable (it needs the live learner that
        only :meth:`train_offline` keeps).
        """
        self.predictor = predictor
        self._deploy()

    def _deploy(self) -> None:
        if self.predictor is None:
            raise CoReDAError("cannot deploy before training")
        self.planning = PlanningSubsystem(
            sim=self.sim,
            adl=self.adl,
            bus=self.bus,
            predictor=self.predictor,
            stall_timeout_for=self.stall_timeout_for,
            trace=self.trace,
        )
        self.reminding = RemindingSubsystem(
            sim=self.sim,
            adl=self.adl,
            bus=self.bus,
            config=self.config.reminding,
            display=self.display,
            leds=self.leds,
            trace=self.trace,
        )

    def observe_episode(self, resident: Resident) -> EpisodeOutcome:
        """Run one episode with sensing only (no guidance).

        The field-training flow: before any policy exists, the system
        just watches -- the resident performs the activity unaided and
        every detection lands in the usage history.  Raises
        :class:`CoReDAError` on a stuck episode, like
        :meth:`run_episode`.
        """
        self.start()
        process = resident.start_episode()
        deadline = self.sim.now + _OBSERVE_HORIZON
        while not process.done and self.sim.now < deadline:
            next_time = self.sim.peek()
            if next_time is None or next_time > deadline:
                break
            self.sim.step()
        if not process.done:
            raise CoReDAError(
                f"observed episode did not complete within {_OBSERVE_HORIZON}s"
            )
        self.sensing.reset_episode()
        if self.planning is not None:
            self.planning.reset_episode()
        assert resident.outcome is not None
        return resident.outcome

    def train_from_history(self) -> TrainingResult:
        """Field training: learn from the system's own usage history.

        Segments the continuous detection stream into episodes at
        idle gaps, infers the user's routine as the modal complete
        episode, repairs gappy episodes against it with the routine
        HMM, replicates the training set to the paper's budget if
        fewer episodes were observed, and trains.
        """
        from repro.recognition.repair import EpisodeRepairer
        from repro.sensing.segmentation import infer_routine, segment_episodes

        episodes = segment_episodes(
            self.sensing.history, idle_gap=self.config.sensing.idle_timeout
        )
        if not episodes:
            raise CoReDAError("usage history contains no episodes yet")
        routine, support = infer_routine(self.adl, episodes)
        episodes = EpisodeRepairer(routine).repair_all(episodes)
        # The paper trains on 120 samples; if the home observed fewer,
        # replicate the log to give the ε schedule room to decay.
        log = list(episodes)
        while len(log) < 120:
            log.extend(episodes)
        return self.train_offline(routine=routine, episode_log=log)

    def enable_online_adaptation(self) -> OnlineAdaptation:
        """Turn on the paper's "learning update all the while" mode.

        The deployed predictor reads the offline learner's Q-table;
        after this call every completed live episode is replayed
        through that same learner, so the system keeps tracking the
        user's *current* routine.  Returns the adaptation object (its
        ``recent_accuracy`` is the drift signal).
        """
        if self.training is None:
            raise CoReDAError("train_offline must run before online adaptation")
        self.adaptation = OnlineAdaptation(
            adl=self.adl,
            learner=self.training.learner,
            config=self.config.planning,
            rng=self.streams.get("planning.online"),
            epsilon=0.1,
        ).attach(self.bus)
        return self.adaptation

    # ------------------------------------------------------------------
    # deployment

    def start(self) -> None:
        """Boot the sensor network (idempotent)."""
        if not self._started:
            self.network.start()
            self._started = True

    def stall_timeout_for(self, step_id: int) -> float:
        """Per-step stall timeout (paper footnote 1).

        Prefers measured dwell statistics from the usage history; if a
        step has too few observations, falls back to the ADL
        definition's duration model; the fixed configured timeout is
        the final fallback (and the only one used when
        ``statistical_timeout`` is off).
        """
        cfg = self.config.reminding
        if not cfg.statistical_timeout:
            return cfg.stall_timeout
        stats = self.sensing.history.dwell(step_id)
        if stats is not None and stats.count >= 5:
            return max(stats.timeout(cfg.stall_sd_factor), 5.0)
        if self.adl.has_step(step_id):
            step = self.adl.step(step_id)
            return max(
                step.typical_duration + cfg.stall_sd_factor * step.duration_sd,
                5.0,
            )
        return cfg.stall_timeout

    def create_resident(
        self,
        routine: Optional[Routine] = None,
        dementia: Optional[DementiaProfile] = None,
        compliance: Optional[ComplianceModel] = None,
        error_script: Optional[Dict[int, ScriptedError]] = None,
        dwell_overrides: Optional[Dict[int, float]] = None,
        handling_overrides: Optional[Dict[int, float]] = None,
        error_use_duration: float = 3.0,
        name: str = "resident",
    ) -> Resident:
        """A resident wired to this system's network and bus."""
        if routine is None:
            routine = self.adl.canonical_routine()
        return Resident(
            sim=self.sim,
            routine=routine,
            network=self.network,
            bus=self.bus,
            rng=self.streams.get(f"resident.{name}"),
            dementia=dementia,
            compliance=compliance,
            error_script=error_script,
            dwell_overrides=dwell_overrides,
            handling_overrides=handling_overrides,
            error_use_duration=error_use_duration,
            name=name,
            trace=self.trace,
        )

    def run_episode(
        self, resident: Resident, horizon: float = 1800.0
    ) -> EpisodeOutcome:
        """Run one live guided episode to completion.

        Raises :class:`CoReDAError` if the resident has not finished
        within ``horizon`` simulated seconds (a deadlock in the
        guidance loop, which tests treat as a failure).
        """
        if self.planning is None:
            raise CoReDAError("train_offline must run before live episodes")
        self.start()
        process = resident.start_episode()
        deadline = self.sim.now + horizon
        while not process.done and self.sim.now < deadline:
            next_time = self.sim.peek()
            if next_time is None or next_time > deadline:
                break
            self.sim.step()
        if not process.done:
            raise CoReDAError(
                f"episode did not complete within {horizon}s of simulated time"
            )
        self.planning.reset_episode()
        self.sensing.reset_episode()
        assert resident.outcome is not None
        return resident.outcome

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        trained = self.training is not None
        return f"CoReDA({self.adl.name!r}, trained={trained})"
