"""Bench: fleet-scale population simulation (``repro.fleet``).

Runs a 1000-home fleet serial and with ``--jobs 4``, asserts the
aggregate metrics are byte-identical (the fleet inherits the parallel
runner's determinism contract) and that policy sharing trained only
the distinct (routine, seed class) combinations, then writes the
measurements to ``BENCH_fleet.json`` at the repo root: homes/sec per
mode, the scaling curve vs ``--jobs`` with the
``parallel_speedup_jobs4`` ratio, the shared-memory leak scan (``/dev/shm`` must hold no arena segments
after the runs), parent peak RSS per 1k homes (the streaming reducers
keep the parent O(1) in fleet size), and the byte-identity flags.

On a single-core box the process pool cannot beat serial wall-clock
(worker forking is pure overhead there); ``cpu_count`` is recorded
next to the ratio and a sub-1x speedup is *reported as a warning*,
not a failure, so the numbers stay honest either way.
"""

from __future__ import annotations

import glob
import json
import os
import resource
import time
from pathlib import Path

from repro.fleet import FleetSpec, distinct_trainings, run_fleet
from repro.adls.library import default_registry

_OUT = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"
_HOMES = 1000

SPEC = FleetSpec(
    adl_name="tea-making",
    homes=_HOMES,
    seed=0,
    episodes_per_home=1,
    training_episodes=120,
    seed_classes=4,
    shard_size=50,
)


def _timed_fleet(jobs, cache_dir=None):
    start = time.perf_counter()
    result = run_fleet(SPEC, jobs=jobs, cache_dir=cache_dir)
    return result, time.perf_counter() - start


def test_fleet_scale(benchmark, tmp_path):
    definition = default_registry().get(SPEC.adl_name)
    distinct = len(distinct_trainings(SPEC.expand(definition)))

    serial, serial_s = _timed_fleet(jobs=1)
    parallel, parallel_s = _timed_fleet(jobs=4)

    byte_identical = parallel.to_json() == serial.to_json()
    assert byte_identical

    # Arena hygiene: every shared-memory segment the runs
    # published must be unlinked by the time run_fleet returns.
    leaked = sorted(glob.glob("/dev/shm/rpp*"))
    assert not leaked, f"leaked arena segments: {leaked}"

    # Policy sharing: a 1000-home fleet trains its distinct routines,
    # not one policy per home.
    assert serial.distinct_trainings == distinct
    assert serial.metrics.cache_misses == distinct
    assert serial.metrics.cache_hits == _HOMES
    assert distinct <= SPEC.seed_classes * 8

    speedup = serial_s / parallel_s if parallel_s else 0.0
    cpu_count = os.cpu_count() or 1
    if speedup < 1.0:
        print(
            f"\nWARNING: jobs=4 ran {speedup:.2f}x the serial speed "
            f"(cpu_count={cpu_count}); parallelism cannot pay for the "
            "fork overhead on this box"
        )

    # Streaming reducers: the parent never holds per-home reports.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker_peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )

    # The benchmarked steady state: warm shared cache, jobs=4.
    cache = str(tmp_path / "fleet-cache")
    run_fleet(SPEC, jobs=4, cache_dir=cache)
    benchmark.pedantic(
        run_fleet, args=(SPEC,), kwargs={"jobs": 4, "cache_dir": cache},
        rounds=1, iterations=1,
    )

    payload = {
        "homes": _HOMES,
        "episodes_per_home": SPEC.episodes_per_home,
        "shard_size": SPEC.shard_size,
        "seed_classes": SPEC.seed_classes,
        "distinct_trainings": distinct,
        "trainings_executed": serial.metrics.cache_misses,
        "cache_hits": serial.metrics.cache_hits,
        "cpu_count": cpu_count,
        "byte_identical_jobs_1_vs_4": byte_identical,
        "parallel_speedup_jobs4": round(speedup, 2),
        "scaling_vs_jobs": {
            "1": {
                "seconds": round(serial_s, 3),
                "homes_per_sec": round(_HOMES / serial_s, 1),
            },
            "4": {
                "seconds": round(parallel_s, 3),
                "homes_per_sec": round(_HOMES / parallel_s, 1),
            },
        },
        "shm_segments_leaked": leaked,
        "parent_peak_rss_mb": round(peak_rss_mb, 1),
        "parent_peak_rss_mb_per_1k_homes": round(
            peak_rss_mb / (_HOMES / 1000.0), 1
        ),
        "worker_peak_rss_mb": round(worker_peak_rss_mb, 1),
        "metrics": serial.metrics.to_dict(),
    }
    _OUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {_OUT}")
    print(json.dumps(payload, indent=2))
