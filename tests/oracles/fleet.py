"""Reference fleet execution: every home on its own private kernel.

Production shards run all their homes on one shared event kernel
(:mod:`repro.fleet.shard`).  :func:`simulate_home` is the plain
version -- one :class:`~repro.core.system.CoReDA` with a private
kernel, episodes driven by ``run_episode`` -- whose reports the shared
kernel must reproduce byte for byte.  :func:`per_home_shards` builds a
drop-in replacement for ``simulate_shard`` so a whole ``run_fleet``
can execute on the oracle.  Unlike production homes, an oracle home
records its full trace and counts its errors from it.

Production homes restore their trained policy from the shared-memory
arena, then from the JSON document.  :class:`JsonHomeRuntime` is the
reference restore -- always the canonical JSON document -- and
:func:`json_restore` swaps it into the fleet executor.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.adls.library import ADLDefinition
from repro.core.config import CoReDAConfig
from repro.fleet.home import (
    HomeRuntime,
    build_home_deployment,
    create_home_resident,
    harvest_home_report,
    home_compliance,
    resolve_home_predictor,
)
from repro.fleet.metrics import HomeReport
from repro.fleet.spec import HomeSpec
from repro.planning.store import PolicyCache
from repro.resident.dementia import DementiaProfile

__all__ = [
    "JsonHomeRuntime",
    "json_restore",
    "per_home_shards",
    "simulate_home",
]


class JsonHomeRuntime(HomeRuntime):
    """A :class:`HomeRuntime` restoring every policy from its JSON
    document, never from the arena."""

    __slots__ = ()

    def _resolve(self, home: HomeSpec):
        return resolve_home_predictor(
            self.definition, home, self.config, self.training_episodes,
            self.cache, key=self.cache_key(home),
        )


def json_restore(monkeypatch) -> None:
    """Make ``run_fleet``'s shard cells restore policies from JSON only.

    Forked workers inherit the patch, so it holds at any ``jobs``.
    """
    monkeypatch.setattr("repro.fleet.executor.HomeRuntime", JsonHomeRuntime)


def simulate_home(
    definition: ADLDefinition,
    home: HomeSpec,
    config: CoReDAConfig,
    episodes: int,
    training_episodes: int,
    cache: Optional[PolicyCache],
    horizon: float = 3600.0,
    runtime: Optional[HomeRuntime] = None,
    wrap: Optional[Callable] = None,
) -> HomeReport:
    """Run one home's guided episodes on a private kernel.

    ``runtime`` lends a shard-wide :class:`HomeRuntime` so shard-mates
    share decoded policies and routines; without one, a
    private runtime is built (same values, nothing shared).  ``wrap``
    optionally wraps the resolved predictor (e.g. in a scalar oracle).
    """
    if runtime is None:
        runtime = HomeRuntime(definition, config, training_episodes, cache)
    predictor = runtime.predictor(home)
    if wrap is not None:
        predictor = wrap(predictor)
    system = build_home_deployment(
        definition, home, config, training_episodes, cache,
        predictor=predictor,
    )
    # Production homes run untraced and count errors from their
    # episode outcomes; the oracle records the full trace and counts
    # from it, so report equality cross-checks the two counts.
    system.trace.enabled = True
    routine = runtime.routine(home)
    reliable = runtime.reliable()
    compliance = home_compliance(home)
    profile = DementiaProfile.from_severity(home.severity)
    outcomes = []
    for episode in range(episodes):
        resident = create_home_resident(
            system, home, routine, compliance, reliable, episode,
            profile=profile,
        )
        outcomes.append(system.run_episode(resident, horizon=horizon))
    report = harvest_home_report(system, home, outcomes)
    report.errors = system.trace.count("resident.error")
    return report


def per_home_shards(wrap: Optional[Callable] = None):
    """A ``simulate_shard`` stand-in mapping :func:`simulate_home` over
    the shard's homes (monkeypatch it into ``repro.fleet.executor``)."""

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
        return [
            simulate_home(
                definition, home, config, episodes, training_episodes, cache,
                horizon=horizon, runtime=runtime, wrap=wrap,
            )
            for home in homes
        ]

    return simulate_shard
