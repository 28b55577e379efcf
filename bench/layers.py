"""Which ``repro`` functions a traced repeat wraps, and the layer metrics.

Each layer is measured at its public boundary, from outside: the
kernel's ``run_until``/``step``, ``SignalSource.read_block*``, the
subsystems' bus handlers, ``RoutineTrainer.train``, the learners'
``observe``, the ``PolicyCache``/arena calls and the fleet's waves.
Time that the kernel spends outside every wrapped call (the event
loop itself plus firmware glue) is ``sim.unattributed_self_s``.

``*_busy_s`` metrics are self time -- a span's duration minus what the
spans nested in it cover -- except ``sim.run_until_busy_s`` and
``planning.train_busy_s``, which are the whole kernel loop and the
whole training.  ``*_wave_s``, ``*_p50_ms`` and ``*_max_ms`` are wall
durations.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Sequence

from bench.trace import Target, Tracer

__all__ = ["PARENT_SIDE", "TARGETS", "layer_metrics"]


def _span(name: str):
    return lambda tracer, fn: tracer.span(name, fn)


def _counted(name: str):
    return lambda tracer, fn: tracer.counted(name, fn)


def _firing(name: str):
    """A kernel loop entry; its return value is the number of events fired."""

    def factory(tracer: Tracer, fn: Callable) -> Callable:
        def fire(*args, **kwargs):
            fired = fn(*args, **kwargs)
            tracer.count("sim.events", int(fired))
            return fired

        return tracer.span(name, fire)

    return factory


def _reading(name: str):
    def factory(tracer: Tracer, fn: Callable) -> Callable:
        def read(*args, **kwargs):
            values = fn(*args, **kwargs)
            tracer.count("sensors.samples", len(values))
            return values

        return tracer.span(name, read)

    return factory


def _prompting(tracer: Tracer, fn: Callable) -> Callable:
    def on_prompt_request(self, request):
        alerts, reminders = self.caregiver_alerts, len(self.reminders)
        fn(self, request)
        tracer.count("reminding.caregiver_alerts", self.caregiver_alerts - alerts)
        tracer.count("reminding.reminders", len(self.reminders) - reminders)

    return tracer.span("reminding.on_prompt_request", on_prompt_request)


def _keeping(kind: str, part: Callable[[object], object]):
    """Keep ``part(instance)`` of every new instance to read at the end."""

    def factory(tracer: Tracer, fn: Callable) -> Callable:
        def __init__(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            tracer.kept[kind].append(part(self))

        return __init__

    return factory


def _waves(tracer: Tracer, fn: Callable) -> Callable:
    """The fleet's two ``run_cells`` waves, told apart by cell label."""
    train = tracer.span("fleet.train_wave", fn)
    shard = tracer.span("fleet.shard_wave", fn)

    def run_cells(cells, *args, **kwargs):
        label = cells[0].label if cells else ""
        if label.startswith("fleet.train"):
            return train(cells, *args, **kwargs)
        if not label.startswith("fleet.shard"):
            return fn(cells, *args, **kwargs)
        results, seconds = shard(cells, *args, **kwargs)
        # Per-cell seconds as the executing process measured them, so
        # the shard durations hold at any jobs.
        tracer.kept["shard_seconds"].extend(seconds)
        return results, seconds

    return run_cells


TARGETS: List[Target] = [
    ("repro.sim.kernel", "Simulator.run_until", _firing("sim.run_until")),
    ("repro.sim.kernel", "Simulator.step", _firing("sim.step")),
    ("repro.sim.kernel", "Simulator.schedule_at", _counted("sim.schedule_at")),
    ("repro.sensors.signals", "SignalSource.read_block",
     _reading("sensors.read_block")),
    ("repro.sensors.signals", "SignalSource.read_block_at",
     _reading("sensors.read_block_at")),
    ("repro.sensors.detector", "KofNDetector.observe_block",
     _span("sensors.observe_block")),
    ("repro.sensors.radio", "RadioMedium.__init__",
     _keeping("radio", lambda medium: medium.stats)),
    ("repro.sensing.subsystem", "SensingSubsystem.on_frame",
     _span("sensing.on_frame")),
    ("repro.planning.trainer", "RoutineTrainer.train", _span("planning.train")),
    ("repro.planning.subsystem", "PlanningSubsystem.on_step",
     _span("planning.on_step")),
    ("repro.planning.predictor", "NextStepPredictor.predict",
     _counted("planning.predict")),
    ("repro.rl.batch", "ShardPredictor.predict", _counted("planning.predict")),
    ("repro.rl.tdlambda", "TDLambdaQLearner.observe", _span("rl.observe")),
    ("repro.rl.sarsa", "SarsaLambdaLearner.observe", _span("rl.observe")),
    ("repro.rl.expected_sarsa", "ExpectedSarsaLearner.observe",
     _span("rl.observe")),
    ("repro.rl.dyna", "DynaQLearner.observe", _span("rl.observe")),
    ("repro.rl.double_q", "DoubleQLearner.observe", _span("rl.observe")),
    ("repro.planning.store", "PolicyCache.__init__",
     _keeping("cache", lambda cache: cache)),
    ("repro.planning.store", "PolicyCache.put", _span("store.put")),
    ("repro.planning.store", "PolicyCache.get", _span("store.get")),
    ("repro.planning.store", "PolicyCache.get_artifact",
     _span("store.get_artifact")),
    ("repro.planning.shm", "arena_artifact", _span("store.arena_artifact")),
    ("repro.planning.shm", "PolicyArena.publish", _span("store.arena_publish")),
    ("repro.reminding.subsystem", "RemindingSubsystem.on_prompt_request",
     _prompting),
    ("repro.fleet.executor", "run_cells", _waves),
    ("repro.fleet.shard", "ShardSimulator.load", _span("fleet.deploy")),
    ("repro.fleet.metrics", "FleetMetrics.merge", _span("fleet.merge")),
]

#: Metrics a multi-process fleet run measures in the parent; the rest
#: happen in workers and come from a jobs-1 traced run of the same spec.
PARENT_SIDE = frozenset({
    "fleet.train_wave_s",
    "fleet.shard_wave_s",
    "fleet.shards",
    "fleet.shard_p50_ms",
    "fleet.shard_max_ms",
    "fleet.merge_busy_s",
    "store.arena_publishes",
    "store.arena_publish_busy_s",
})


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, units: int) -> Dict[str, float]:
    """Every per-layer metric of one traced repeat."""
    summary = tracer.summary()
    counts = tracer.counts

    def calls(*names: str) -> int:
        return sum(summary[name]["calls"] for name in names if name in summary)

    def own(*names: str) -> float:
        return sum(summary[name]["self_s"] for name in names if name in summary)

    def durations(name: str) -> List[float]:
        return summary[name]["durations"] if name in summary else []

    radio = tracer.kept["radio"]
    unique = sum(stats.delivered - stats.duplicates for stats in radio)
    offered = unique + sum(stats.dropped for stats in radio)
    caches = tracer.kept["cache"]
    hits = sum(cache.hits for cache in caches)
    lookups = hits + sum(cache.misses for cache in caches)
    blocks = calls("sensors.read_block", "sensors.read_block_at")
    trainings = durations("planning.train")
    shards = tracer.kept["shard_seconds"]
    metrics = {
        "sim.events": counts["sim.events"],
        "sim.events_per_home": counts["sim.events"] / units,
        "sim.schedule_calls": counts["sim.schedule_at"],
        "sim.run_until_busy_s": tracer.busy(("sim.run_until", "sim.step")),
        "sim.unattributed_self_s": own("sim.run_until", "sim.step"),
        "sensors.blocks": blocks,
        "sensors.samples": counts["sensors.samples"],
        "sensors.read_busy_s": own("sensors.read_block", "sensors.read_block_at"),
        "sensors.detector_busy_s": own("sensors.observe_block"),
        "sensors.radio_attempts": sum(stats.attempts for stats in radio),
        "sensors.radio_retransmissions": sum(
            stats.retransmissions for stats in radio
        ),
        "sensing.frames": calls("sensing.on_frame"),
        "sensing.busy_s": own("sensing.on_frame"),
        "planning.trainings": len(trainings),
        "planning.train_busy_s": tracer.busy(("planning.train",)),
        "planning.train_p50_ms": _median(trainings) * 1000.0,
        "planning.steps": calls("planning.on_step"),
        "planning.step_busy_s": own("planning.on_step"),
        "planning.predicts": counts["planning.predict"],
        "rl.updates": calls("rl.observe"),
        "rl.update_busy_s": own("rl.observe"),
        "store.puts": calls("store.put"),
        "store.put_busy_s": own("store.put"),
        "store.gets": calls("store.get"),
        "store.artifact_gets": calls("store.get_artifact", "store.arena_artifact"),
        "store.get_busy_s": own(
            "store.get", "store.get_artifact", "store.arena_artifact"
        ),
        "store.arena_publishes": calls("store.arena_publish"),
        "store.arena_publish_busy_s": own("store.arena_publish"),
        "reminding.prompts": calls("reminding.on_prompt_request"),
        "reminding.busy_s": own("reminding.on_prompt_request"),
        "reminding.reminders": counts["reminding.reminders"],
        "reminding.caregiver_alerts": counts["reminding.caregiver_alerts"],
        "fleet.train_wave_s": tracer.busy(("fleet.train_wave",)),
        "fleet.shard_wave_s": tracer.busy(("fleet.shard_wave",)),
        "fleet.shards": len(shards),
        "fleet.shard_p50_ms": _median(shards) * 1000.0,
        "fleet.shard_max_ms": max(shards, default=0.0) * 1000.0,
        "fleet.deploy_busy_s": own("fleet.deploy"),
        "fleet.merge_busy_s": own("fleet.merge"),
    }
    # A ratio is left out, not read as 0, when its base is 0.
    if blocks:
        metrics["sensors.samples_per_block"] = counts["sensors.samples"] / blocks
    if offered:
        metrics["sensors.delivery_ratio"] = unique / offered
    if lookups:
        metrics["store.hit_ratio"] = hits / lookups
    return metrics
