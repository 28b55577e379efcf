"""Shard simulation: one kernel, every home of the shard.

Running each home on a private :class:`~repro.sim.kernel.Simulator`
would make a 50-home shard pay for 50 kernels, 50 network boots and
50 cold caches of everything the interpreter touches per event loop.
This module loads all homes of a shard into **one** shared kernel and
lets their event streams interleave on the common clock.

Byte-identity with a private kernel per home (the oracle in
``tests/oracles/fleet.py``) falls out of three facts:

* every home starts at t=0 and its event *times* depend only on its
  own state and its own SHA-256-derived random streams, so absolute
  timestamps match the standalone run exactly;
* relative order of any two events of the *same* home is preserved
  (sequence numbers are assigned monotonically, and interleaving
  other homes' events only creates gaps, never reordering), while
  cross-home order is irrelevant -- homes share no mutable state
  (each keeps its own bus, network, trace and streams: per-home
  event namespacing);
* each home's episodes chain and harvest *inside* the finishing
  event's callback, i.e. at the exact simulated instant the
  standalone driver loop would observe, before any same-instant
  later-sequence event has fired.

The tests cross-check report-for-report equality with the oracle,
on the production and the reference event queue, and across
``--jobs``.

Memory follows the shard's lifetime.  A shard's homes are built
together, run together and die together, and their object graphs are
cyclic (bus handlers, processes and subsystems refer to each other),
so only the cyclic collector can free them.  Left running, it would
rescan the shard's live homes -- and every earlier shard's dead ones
-- in each of its generational passes.  :func:`simulate_shard`
therefore disables it for the shard's lifetime and restores the
caller's setting when the shard is dropped; the first young-generation
pass after that frees the whole shard graph at once.

Fleet homes also run untraced (:func:`~repro.fleet.home.
build_home_deployment`): the report counts errors from the residents'
episode outcomes, so a trace would only allocate entries nobody
reads.  For the full trace of one home, run it through the
``simulate_home`` oracle in ``tests/oracles/fleet.py``, which turns
tracing back on, or replay a scenario with ``repro scenario``.
"""

from __future__ import annotations

import gc
from typing import List, Optional, Sequence

from repro.adls.library import ADLDefinition
from repro.core.config import CoReDAConfig
from repro.core.errors import CoReDAError
from repro.fleet.home import (
    HomeRuntime,
    build_home_deployment,
    create_home_resident,
    harvest_home_report,
    home_stream_batch,
)
from repro.fleet.metrics import HomeReport
from repro.fleet.spec import HomeSpec
from repro.planning.store import PolicyCache
from repro.resident.model import EpisodeOutcome
from repro.rl.batch import ShardPredictor
from repro.sim.kernel import Simulator
from repro.sim.random import StreamBatch

__all__ = ["ShardSimulator", "simulate_shard"]


class _HomeRun:
    """One home's episode chain on the shared kernel."""

    __slots__ = (
        "shard",
        "home",
        "system",
        "routine",
        "reliable",
        "compliance",
        "episodes",
        "horizon",
        "outcomes",
        "report",
        "profile",
        "_watchdog",
    )

    def __init__(
        self,
        shard: "ShardSimulator",
        home: HomeSpec,
        system,
        episodes: int,
        horizon: float,
        runtime: HomeRuntime,
    ) -> None:
        self.shard = shard
        self.home = home
        self.system = system
        # Interned through the shard runtime: shard-mates share one
        # routine/compliance/profile instance per distinct scalar key.
        self.routine = runtime.routine(home)
        self.reliable = runtime.reliable()
        self.compliance = runtime.compliance(home)
        self.profile = runtime.profile(home)
        self.episodes = episodes
        self.horizon = horizon
        self.outcomes: List[EpisodeOutcome] = []
        self.report: Optional[HomeReport] = None
        self._watchdog = None

    def begin_episode(self) -> None:
        """Start the next guided episode at the current instant."""
        system = self.system
        episode = len(self.outcomes)
        resident = create_home_resident(
            system,
            self.home,
            self.routine,
            self.compliance,
            self.reliable,
            episode,
            profile=self.profile,
        )
        process = resident.start_episode()
        deadline = system.sim.now + self.horizon

        def on_timeout() -> None:
            raise CoReDAError(
                f"home {self.home.home_id}: episode {episode} did "
                f"not complete within {self.horizon}s of simulated time"
            )

        self._watchdog = system.sim.schedule_at(deadline, on_timeout)

        def on_finished(_result) -> None:
            self._watchdog.cancel()
            self._watchdog = None
            # Same order as the standalone episode driver: planning
            # first, then sensing, at the completion instant (before
            # any same-instant later-sequence event fires).
            system.planning.reset_episode()
            system.sensing.reset_episode()
            assert resident.outcome is not None
            self.outcomes.append(resident.outcome)
            if len(self.outcomes) < self.episodes:
                self.begin_episode()
            else:
                self._harvest()

        process.finished.subscribe(on_finished)

    def _harvest(self) -> None:
        self.report = harvest_home_report(self.system, self.home, self.outcomes)
        # The home is done; stop its sensor network so its recurring
        # block events stop burning shared-kernel cycles while the
        # shard's slower homes finish.  The report is already
        # captured by value, so late state changes cannot leak in.
        self.system.network.stop()
        self.shard._finished(self)


def _shard_predictor(predictor) -> ShardPredictor:
    """The shard-wide form of a restored policy.

    :meth:`HomeRuntime.predictor` applies it once per distinct
    training (per run, inside the executor's restore memo), so the
    full greedy-policy table is precomputed off the simulated clock
    and every per-step prediction inside the shared kernel is a
    single array index (byte-identical answers; see
    docs/architecture.md).
    """
    return ShardPredictor(predictor).precompute()


class ShardSimulator:
    """All homes of one fleet shard on a single event kernel.

    Build it, :meth:`load` every home, then :meth:`run`.  Reports
    come back in load order regardless of which home finishes first,
    so the shard's Welford merge order -- and therefore the fleet
    metrics -- match a home-by-home run byte for byte.  ``streams``
    seeds the homes' random streams in one batch
    (:func:`~repro.fleet.home.home_stream_batch`).
    """

    #: Simulated seconds per fused ``run_until`` segment of :meth:`run`.
    #: Coarse enough that the kernel's single-walk fast path does the
    #: driving (no per-event ``peek``/``step`` round trips), fine
    #: enough that the driver notices all homes finishing promptly.
    _CHUNK = 600.0

    def __init__(
        self,
        config: CoReDAConfig,
        runtime: Optional[HomeRuntime] = None,
        streams: Optional[StreamBatch] = None,
    ) -> None:
        self.config = config
        self.sim = Simulator()
        self._runs: List[_HomeRun] = []
        self._active = 0
        self._runtime = runtime
        self._streams = streams

    def load(
        self,
        definition: ADLDefinition,
        home: HomeSpec,
        episodes: int,
        training_episodes: int,
        cache: Optional[PolicyCache],
        horizon: float = 3600.0,
    ) -> None:
        """Deploy one home onto the shared kernel and queue episode 0."""
        runtime = self._runtime
        if runtime is None:
            runtime = self._runtime = HomeRuntime(
                definition, self.config, training_episodes, cache
            )
        predictor = runtime.predictor(home, wrap=_shard_predictor)
        system = build_home_deployment(
            definition, home, self.config, training_episodes, cache,
            sim=self.sim, predictor=predictor, streams=self._streams,
        )
        system.start()
        run = _HomeRun(self, home, system, episodes, horizon, runtime)
        self._runs.append(run)
        self._active += 1
        run.begin_episode()

    def _finished(self, run: _HomeRun) -> None:
        self._active -= 1

    def run(self) -> List[HomeReport]:
        """Drive the shared kernel until every loaded home reports.

        Advances in coarse :attr:`_CHUNK` segments through the
        kernel's fused ``run_until`` loop.  Events of already-
        finished homes that straggle inside a segment are harmless:
        their reports were captured by value at harvest time.
        """
        sim = self.sim
        while self._active > 0:
            if sim.peek() is None:
                unfinished = [
                    run.home.home_id
                    for run in self._runs
                    if run.report is None
                ]
                raise CoReDAError(
                    f"shard kernel drained with unfinished homes: "
                    f"{unfinished}"
                )
            sim.run_until(sim.now + self._CHUNK)
        reports = []
        for run in self._runs:
            assert run.report is not None
            reports.append(run.report)
        return reports


def simulate_shard(
    definition: ADLDefinition,
    homes: Sequence[HomeSpec],
    config: CoReDAConfig,
    episodes: int,
    training_episodes: int,
    cache: Optional[PolicyCache],
    horizon: float = 3600.0,
    runtime: Optional[HomeRuntime] = None,
) -> List[HomeReport]:
    """Simulate ``homes`` on one shared kernel.

    Returns the homes' reports in input order; byte-identical to
    running each home on a private kernel (see the module docstring
    for why).  ``runtime`` lends a caller-owned
    :class:`~repro.fleet.home.HomeRuntime` (the fleet executor builds
    one per shard cell); without one a private runtime is created.

    The cyclic collector is paused while the shard lives and restored
    to its prior state afterwards, also when the shard raises (see
    the module docstring).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        shard = ShardSimulator(
            config,
            runtime=runtime,
            streams=home_stream_batch(definition, homes, episodes),
        )
        for home in homes:
            shard.load(
                definition, home, episodes, training_episodes, cache, horizon
            )
        reports = shard.run()
        del shard
    finally:
        if enabled:
            gc.enable()
    return reports
