"""Span arithmetic, wrapper restoration, and byte-identity under tracing."""

from __future__ import annotations

import importlib
import sys
import time

import pytest

from bench.layers import TARGETS, layer_metrics
from bench.trace import Tracer, covered, self_times, traced, union_length


def test_union_merges_overlaps_and_nesting():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (5, 6)]) == 3.0
    assert union_length([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert union_length([(3, 6), (0, 4)]) == 6.0


def test_covered_clips_to_the_window():
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4.0
    assert covered([(11, 12)], 0, 10) == 0.0


def test_self_time_of_nested_spans():
    # 0: [0, 10] root; 1: [1, 4] child of 0; 2: [2, 3] child of 1.
    own = self_times([0, 1, 2], [10, 4, 3], [-1, 0, 1])
    assert own == [7.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    # Children [1, 4] and [3, 6] overlap on [3, 4]: they cover 5, not 6;
    # a child running past its parent's end is clipped to the parent.
    own = self_times([0, 1, 3, 9], [10, 4, 6, 12], [-1, 0, 0, 0])
    assert own == [10 - 5 - 1, 3, 3, 3]


def test_span_wrapper_links_parents_and_measures_self_time():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.01))
    outer = tracer.span("outer", lambda: (inner(), inner()))
    outer()
    assert list(tracer.parents) == [-1, 0, 0]
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    outer_duration = summary["outer"]["durations"][0]
    inner_total = sum(summary["inner"]["durations"])
    assert summary["outer"]["self_s"] == pytest.approx(
        outer_duration - inner_total, abs=1e-9
    )
    assert tracer.busy(["outer", "inner"]) == pytest.approx(outer_duration)


def _snapshot():
    """Every repro module attribute, and every traced class attribute."""
    modules = {
        name: dict(vars(module))
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    }
    classes = {}
    for module_name, path, _ in TARGETS:
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(importlib.import_module(module_name), class_name)
            classes[(module_name, path)] = vars(owner)[attr]
    return modules, classes


def _same(before, after):
    modules_before, classes_before = before
    modules_after, classes_after = after
    for key, value in classes_before.items():
        assert classes_after[key] is value, key
    for name, attrs in modules_before.items():
        for attr, value in attrs.items():
            assert modules_after[name].get(attr) is value, f"{name}.{attr}"


def test_tracing_keeps_fleet_bytes_and_restores_every_wrapper():
    from repro.fleet import FleetSpec, run_fleet

    spec = FleetSpec(homes=20, shard_size=10, seed=3)
    result = run_fleet(spec)
    untraced = result.to_json()
    before = _snapshot()
    with traced(TARGETS) as tracer:
        traced_output = run_fleet(spec).to_json()
    _same(before, _snapshot())
    assert traced_output == untraced
    metrics = layer_metrics(tracer, spec.homes)
    assert metrics["fleet.shards"] == 2
    assert metrics["sim.events"] > 0
    assert metrics["sensors.blocks"] > 0
    assert metrics["planning.trainings"] == result.distinct_trainings
    assert run_fleet(spec).to_json() == untraced


def test_wrappers_are_restored_when_the_traced_call_raises():
    from repro.fleet import FleetSpec, run_fleet

    before = _snapshot()
    with pytest.raises(ValueError):
        with traced(TARGETS):
            run_fleet(FleetSpec(homes=2, seed=0))
            raise ValueError("stop")
    _same(before, _snapshot())
