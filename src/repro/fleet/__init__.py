"""Fleet-scale population simulation: the dense-network workload.

The paper deploys one reminder system per resident; the related
dense-network and AIoT care platforms (arXiv:1510.04240,
arXiv:2207.00804) run thousands of such homes against one backend.
``repro.fleet`` simulates that workload deterministically: a
:class:`~repro.fleet.spec.FleetSpec` expands a synthetic cohort into
per-home cells with SHA-256-derived seeds, the executor shards them
over a persistent worker pool with bounded-window submission, trained
policies are shared through the content-addressed
:class:`~repro.planning.store.PolicyCache`, and caregiver metrics
stream through O(1)-memory reducers.  The whole pipeline inherits the
repo's determinism contract: byte-identical fleet metrics at any
``--jobs``.
"""

from repro.fleet.executor import FleetResult, run_fleet
from repro.fleet.metrics import FleetMetrics, HomeReport, Welford
from repro.fleet.shard import ShardSimulator, simulate_shard
from repro.fleet.spec import FleetSpec, HomeSpec, distinct_trainings

__all__ = [
    "FleetMetrics",
    "FleetResult",
    "FleetSpec",
    "HomeReport",
    "HomeSpec",
    "ShardSimulator",
    "Welford",
    "distinct_trainings",
    "run_fleet",
    "simulate_shard",
]
