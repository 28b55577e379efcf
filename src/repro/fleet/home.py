"""Deploy and harvest one resident-home from its ``HomeSpec``.

The fleet's per-home building blocks: rebuild the home's deployment
(one :class:`~repro.core.system.CoReDA` per home, seeded from the
home's SHA-256-derived seed), resolve the trained policy through the
shared :class:`~repro.planning.store.PolicyCache`, create the resident
of each guided episode, and distill the outcome into a single
:class:`~repro.fleet.metrics.HomeReport`.  Everything here is a pure
function of the spec -- a home simulates identically whichever shard
or worker process it lands in, **and** whether it shares a kernel with
its shard-mates (:mod:`repro.fleet.shard`) or runs alone on a private
one (the oracle in ``tests/oracles/fleet.py``); both drive the helpers
below, so they cannot drift apart.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.adls.library import ADLDefinition
from repro.core.adl import ReminderLevel, Routine
from repro.core.config import CoReDAConfig
from repro.core.system import CoReDA, system_streams
from repro.fleet.metrics import HomeReport
from repro.fleet.spec import HomeSpec
from repro.planning.shm import arena_artifact
from repro.planning.store import (
    PolicyCache,
    train_routine_cached,
    training_cache_key,
    training_from_artifact,
)
from repro.resident.compliance import ComplianceModel
from repro.resident.dementia import DementiaProfile
from repro.resident.model import EpisodeOutcome
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams, StreamBatch
from repro.sim.tracing import TraceRecorder

__all__ = [
    "HomeRuntime",
    "home_stream_batch",
    "restore_memo",
    "train_home_policy",
    "resolve_home_predictor",
    "build_home_deployment",
    "home_compliance",
    "reliable_handling",
    "create_home_resident",
    "harvest_home_report",
]


class HomeRuntime:
    """Per-shard interning context: N homes share one decoded instance.

    The routine, the reliable handling overrides and above all the
    restored policy predictor are pure functions of a few keys that
    many homes share, and are immutable or stateless, so homes share
    them the way :mod:`repro.rl.dense` interns Q rows; the runtime
    memoizes each by its key.  (Each home's compliance model and
    dementia profile are keyed by continuous draws, so no two homes
    share one; the home builds its own.)

    The trained policy is restored from the shared-memory arena first
    (:func:`repro.planning.shm.arena_artifact`), then from the JSON
    document through :func:`train_routine_cached`, which retrains on
    a miss.  Every tier serves the same training, so results are
    byte-identical whichever tier answers, and each successful restore
    counts exactly one cache hit -- the hit/miss accounting cannot
    depend on the tier or the shard layout.  A runtime built inside
    :func:`restore_memo` shares its restored policies with the other
    shards of the run in this process.

    ``cache_keys`` maps training keys to their content-addressed
    cache keys when the caller already computed them (the fleet
    executor does, once per distinct training); a missing key is
    computed here.
    """

    __slots__ = (
        "definition",
        "config",
        "training_episodes",
        "cache",
        "_routines",
        "_reliable",
        "_predictors",
        "_cache_keys",
    )

    def __init__(
        self,
        definition: ADLDefinition,
        config: CoReDAConfig,
        training_episodes: int,
        cache: Optional[PolicyCache] = None,
        cache_keys: Optional[Dict[tuple, str]] = None,
    ) -> None:
        self.definition = definition
        self.config = config
        self.training_episodes = training_episodes
        self.cache = cache
        self._routines: Dict[Tuple[int, ...], Routine] = {}
        self._reliable: Optional[dict] = None
        # The run's memo when one is open, so shards share restores.
        self._predictors: dict = _RESTORED if _RESTORED is not None else {}
        self._cache_keys: Dict[tuple, str] = dict(cache_keys or {})

    def routine(self, home: HomeSpec) -> Routine:
        """The home's routine (immutable, shared across homes)."""
        key = tuple(home.routine_ids)
        routine = self._routines.get(key)
        if routine is None:
            routine = Routine(self.definition.adl, list(key))
            self._routines[key] = routine
        return routine

    def reliable(self) -> dict:
        """The shared handling-override dict (consumed read-only)."""
        if self._reliable is None:
            self._reliable = reliable_handling(self.definition)
        return self._reliable

    def cache_key(self, home: HomeSpec) -> str:
        """The home's content-addressed training key (memoized)."""
        key = self._cache_keys.get(home.training_key)
        if key is None:
            key = training_cache_key(
                self.definition.adl.name,
                list(home.routine_ids),
                self.config.planning,
                home.train_seed,
                self.training_episodes,
            )
            self._cache_keys[home.training_key] = key
        return key

    def predictor(self, home: HomeSpec, wrap: Optional[Callable] = None):
        """The home's restored policy, decoded once per training key --
        once per run in this process inside :func:`restore_memo`.

        ``wrap`` (a module-level callable) is applied once to the
        restored policy, and the wrapped policy is what is shared.
        Memoized reuse still counts as a cache hit -- the policy *was*
        served from that cache entry, and the counters must not depend
        on how homes were grouped (see
        :meth:`~repro.planning.store.PolicyCache.stats`).
        """
        key = (self.cache_key(home), wrap)
        predictor = self._predictors.get(key)
        if predictor is None:
            # A restore counts its own hit or miss.
            predictor = self._resolve(home)
            if wrap is not None:
                predictor = wrap(predictor)
            self._predictors[key] = predictor
        elif self.cache is not None:
            self.cache.hits += 1
        return predictor

    def _resolve(self, home: HomeSpec):
        cache = self.cache
        adl = self.definition.adl
        key = self.cache_key(home)
        artifact = arena_artifact(key)
        if artifact is not None and artifact.matches(adl):
            if cache is not None:
                cache.hits += 1
            return training_from_artifact(
                artifact, self.config.planning
            ).predictor(adl)
        return resolve_home_predictor(
            self.definition, home, self.config, self.training_episodes, cache,
            key=key,
        )


#: Restored policies by (cache key, wrap) for the run in progress in
#: this process (see :func:`restore_memo`); ``None`` outside a run.
_RESTORED: Optional[Dict[tuple, object]] = None


@contextmanager
def restore_memo() -> Iterator[None]:
    """Restore each distinct training once per process for the block.

    A :class:`HomeRuntime` built in the block keeps its restored
    policies in the memo, so :meth:`HomeRuntime.predictor` serves
    every shard after the first from it, counting the same cache hit
    a restore would.  The
    fleet executor opens one per run before its workers start, so a
    forked worker fills its own copy; the memo is dropped on exit, so
    the next run restores afresh (and no policy outlives the arena
    that may back it).
    """
    global _RESTORED
    outer = _RESTORED
    _RESTORED = {}
    try:
        yield
    finally:
        _RESTORED = outer


def _resident_name(home: HomeSpec, episode: int) -> str:
    return f"home-{home.home_id}.{episode}"


def home_stream_batch(
    definition: ADLDefinition, homes: Sequence[HomeSpec], episodes: int
) -> StreamBatch:
    """Every random stream of ``homes`` and their residents, seeded in
    one batch: each home's radio, one signal per tool, and one
    resident per episode (``tests/test_fleet.py`` checks the list is
    complete; a stream it missed would still be seeded exactly, on
    its own)."""
    adl = definition.adl
    names = ["radio"] + [f"signal.{tool.tool_id}" for tool in adl.tools]
    batch = StreamBatch()
    requests = []
    for home in homes:
        # Forking under the batch keeps the derived seed for the
        # deployment's own fork of the home's streams.
        master = system_streams(RandomStreams(home.seed, batch), adl).master_seed
        requests.extend((master, name) for name in names)
        requests.extend(
            (master, f"resident.{_resident_name(home, episode)}")
            for episode in range(episodes)
        )
    batch.seed(requests)
    return batch


def train_home_policy(
    definition: ADLDefinition,
    home: HomeSpec,
    config: CoReDAConfig,
    training_episodes: int,
    cache: Optional[PolicyCache],
    key: Optional[str] = None,
):
    """Resolve the home's trained policy via the content cache.

    Homes sharing (ADL, routine, planning config, seed class) resolve
    the same key, so only the first resolver trains; the executor
    pre-warms the cache with one wave over the distinct trainings to
    make that first resolver a dedicated cell rather than a race.
    ``key`` is the training's cache key, when the caller has it.
    """
    return train_routine_cached(
        definition.adl,
        list(home.routine_ids),
        config.planning,
        home.train_seed,
        training_episodes,
        cache=cache,
        key=key,
    )


def resolve_home_predictor(
    definition: ADLDefinition,
    home: HomeSpec,
    config: CoReDAConfig,
    training_episodes: int,
    cache: Optional[PolicyCache],
    key: Optional[str] = None,
):
    """The home's deployed policy, restored through the cache.

    The predictor is a read-only greedy lookup over the trained
    Q-table, so callers may share one instance across every home
    with the same :attr:`~repro.fleet.spec.HomeSpec.training_key`
    (a shared-kernel shard does) without perturbing a single byte.
    """
    cached = train_home_policy(
        definition, home, config, training_episodes, cache, key=key
    )
    return cached.predictor(definition.adl)


def build_home_deployment(
    definition: ADLDefinition,
    home: HomeSpec,
    config: CoReDAConfig,
    training_episodes: int,
    cache: Optional[PolicyCache],
    sim: Optional[Simulator] = None,
    predictor=None,
    streams: Optional[StreamBatch] = None,
) -> CoReDA:
    """One home's live deployment, policy resolved and deployed.

    ``sim`` shares a kernel across homes (a fleet shard); left
    ``None``, the home gets a private kernel.  Either way the
    home's random streams derive from its own SHA-256 seed, so the
    event *content* is identical -- only the queue it shares differs.
    ``predictor`` skips the per-home cache restore when the caller
    already holds the home's policy (see
    :func:`resolve_home_predictor`).  ``streams`` seeds the home's
    random streams from a batch (:func:`home_stream_batch`); the draws
    are the same without one.

    The home records no trace: a fleet reads nothing from it, and the
    report's counts come from the residents' episode outcomes.  Set
    ``system.trace.enabled`` to record one home in full.
    """
    if predictor is None:
        predictor = resolve_home_predictor(
            definition, home, config, training_episodes, cache
        )
    system = CoReDA(
        definition,
        config.with_seed(home.seed),
        sim=sim,
        streams=RandomStreams(home.seed, streams),
        trace=TraceRecorder(enabled=False),
    )
    system.deploy_predictor(predictor)
    return system


def home_compliance(home: HomeSpec) -> ComplianceModel:
    """The home's compliance model, rebuilt from its scalar spec."""
    return ComplianceModel(
        minimal_response=home.minimal_response,
        specific_response=home.specific_response,
        delay_mean=home.delay_mean,
        delay_sd=1.0,
    )


def reliable_handling(definition: ADLDefinition) -> dict:
    """Per-step handling durations long enough to register reliably."""
    return {
        step.step_id: max(step.handling_duration, 5.0)
        for step in definition.adl.steps
    }


def create_home_resident(
    system: CoReDA,
    home: HomeSpec,
    routine: Routine,
    compliance: ComplianceModel,
    reliable: dict,
    episode: int,
    profile: DementiaProfile,
):
    """The resident for one of the home's guided episodes (``profile``
    and ``compliance`` are built once per home and shared by its
    episodes)."""
    return system.create_resident(
        routine=routine,
        dementia=profile,
        compliance=compliance,
        handling_overrides=reliable,
        error_use_duration=5.0,
        name=_resident_name(home, episode),
    )


def harvest_home_report(
    system: CoReDA,
    home: HomeSpec,
    outcomes: Sequence[EpisodeOutcome],
) -> HomeReport:
    """Distill a finished home's session and episode outcomes into its report.

    Called at the simulated instant the home's last episode completes
    -- on a shared or a private kernel the harvested state is the
    same, so the reports are byte-identical.
    """
    session = system.session
    minimal = sum(
        1
        for reminder in session.reminders
        if reminder.level is ReminderLevel.MINIMAL
    )
    return HomeReport(
        home_id=home.home_id,
        severity=home.severity,
        episodes=len(outcomes),
        completed=sum(int(outcome.completed) for outcome in outcomes),
        reminders=len(session.reminders),
        minimal_reminders=minimal,
        specific_reminders=len(session.reminders) - minimal,
        praises=session.praises,
        caregiver_alerts=system.reminding.caregiver_alerts,
        errors=sum(outcome.errors for outcome in outcomes),
        self_recoveries=sum(outcome.self_recoveries for outcome in outcomes),
        reminders_seen=sum(outcome.reminders_seen for outcome in outcomes),
        reminders_followed=sum(
            outcome.reminders_followed for outcome in outcomes
        ),
    )
