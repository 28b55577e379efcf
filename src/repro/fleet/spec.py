"""Fleet specification: a cohort expanded into per-home cells.

The paper's NPO cohort is 25 residents; the dense-network assistive
systems in the related work (arXiv:1510.04240, arXiv:2207.00804)
assume thousands of homes feeding one care platform.  A
:class:`FleetSpec` scales the cohort generator up to that workload:
it expands a :func:`repro.resident.population.generate_population`
cohort into :class:`HomeSpec` cells -- one per resident-home -- each
carrying everything a worker process needs to simulate the home in
isolation.

Two seed families keep the fleet deterministic *and* shareable:

* the **home seed** drives the home's live simulation (sensor noise,
  resident errors, compliance draws).  It is SHA-256-derived from the
  fleet seed and the home index alone, so re-sharding a fleet (or
  changing ``--jobs``) never moves any home's random stream.
* the **training seed** is drawn from a small pool of
  ``seed_classes`` values.  Homes with the same (ADL, routine,
  planning config, seed class) share one
  :class:`~repro.planning.store.PolicyCache` entry, so a 10k-home
  fleet trains only its distinct routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.adls.library import ADLDefinition
from repro.core.config import check_domains, domain
from repro.resident.population import CohortBounds, generate_population
from repro.sim.random import RandomStreams, derive_seed

__all__ = ["HomeSpec", "FleetSpec", "distinct_trainings"]


@dataclass(frozen=True)
class HomeSpec:
    """One resident-home as a pure, picklable simulation cell.

    Deliberately scalar-only (no ADL or Routine objects): a million
    ``HomeSpec`` s must pickle cheaply to worker processes, which
    rebuild the heavy objects from the registry once per shard.
    """

    home_id: int
    adl_name: str
    routine_ids: Tuple[int, ...]
    severity: float
    age: int
    minimal_response: float
    specific_response: float
    delay_mean: float
    seed: int
    train_seed: int

    @property
    def training_key(self) -> Tuple[str, Tuple[int, ...], int]:
        """What determines this home's shared policy (config aside)."""
        return (self.adl_name, self.routine_ids, self.train_seed)


@dataclass(frozen=True)
class FleetSpec:
    """The declarative description of one fleet run."""

    adl_name: str = domain("tea-making")
    homes: int = domain(1000, "[1, inf)")
    seed: int = domain(0, "(-inf, inf)")
    episodes_per_home: int = domain(1, "[1, inf)")
    training_episodes: int = domain(120, "[1, inf)")
    seed_classes: int = domain(4, "[1, inf)")
    shard_size: int = domain(25, "[1, inf)")
    #: The cohort bounds, declared and checked by :class:`CohortBounds`.
    min_age: int = 72
    max_age: int = 91
    max_severity: float = 0.8

    def __post_init__(self) -> None:
        check_domains(self)
        CohortBounds(self.min_age, self.max_age, self.max_severity)

    def home_seed(self, home_id: int) -> int:
        """The live-simulation seed of home ``home_id``.

        A function of the fleet seed and the home index only -- never
        of the shard layout or the worker count.
        """
        return derive_seed(self.seed, f"fleet.home[{home_id}]")

    def expand(self, definition: ADLDefinition) -> List[HomeSpec]:
        """Expand the cohort into one :class:`HomeSpec` per home.

        Home ``i`` trains with the seed of class ``i % seed_classes``.
        """
        profiles = generate_population(
            definition.adl,
            self.homes,
            RandomStreams(derive_seed(self.seed, f"fleet.{self.adl_name}")),
            min_age=self.min_age,
            max_age=self.max_age,
            max_severity=self.max_severity,
        )
        train_seeds = [
            derive_seed(self.seed, f"fleet.train[{seed_class}]")
            for seed_class in range(min(self.seed_classes, self.homes))
        ]
        return [
            HomeSpec(
                home_id=home_id,
                adl_name=self.adl_name,
                routine_ids=tuple(
                    int(step) for step in profile.routine.step_ids
                ),
                severity=profile.severity,
                age=profile.age,
                minimal_response=profile.minimal_response,
                specific_response=profile.specific_response,
                delay_mean=profile.delay_mean,
                seed=self.home_seed(home_id),
                train_seed=train_seeds[home_id % self.seed_classes],
            )
            for home_id, profile in enumerate(profiles)
        ]

    def shards(self, homes: List[HomeSpec]) -> List[Tuple[HomeSpec, ...]]:
        """Contiguous shards of at most ``shard_size`` homes.

        The partition depends only on ``shard_size``, never on the
        worker count, so the shard-merge order (and with it every
        floating-point reduction) is identical at any ``--jobs``.
        """
        return [
            tuple(homes[start:start + self.shard_size])
            for start in range(0, len(homes), self.shard_size)
        ]


def distinct_trainings(homes: List[HomeSpec]) -> List[HomeSpec]:
    """One representative home per distinct training, in fleet order.

    The fleet executor trains these once (wave 1) so that every home
    cell afterwards (wave 2) resolves its policy with a cache hit:
    trainings scale with routine diversity, not fleet size.
    """
    seen = set()
    representatives = []
    for home in homes:
        if home.training_key not in seen:
            seen.add(home.training_key)
            representatives.append(home)
    return representatives
