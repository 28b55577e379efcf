"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.rl import learner_config
from repro.core.adl import SensorType, Tool
from repro.core.bus import EventBus
from repro.core.config import RadioConfig, SensingConfig
from repro.rl.convergence import ConvergenceDetector, convergence_iteration
from repro.rl.dense import DenseQTable, DenseTraces
from repro.rl.learner import TabularLearner
from repro.sensing.history import DwellStats, UsageHistory
from repro.sensors.detector import KofNDetector
from repro.sensors.eeprom import RECORD_SIZE, EepromLog, EepromRecord
from repro.sensors.pavenet import IDLE_BLOCK_SAMPLES, PavenetNode
from repro.sensors.radio import RadioMedium
from repro.sensors.signals import ClockLine, SignalProfile, SignalSource
from repro.sim.kernel import Simulator


# ---------------------------------------------------------------------------
# kernel

@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=50))
def test_kernel_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
             max_size=30),
    st.floats(min_value=0.0, max_value=120.0),
)
def test_kernel_run_until_never_overshoots(delays, horizon):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run_until(horizon)
    assert sim.now == horizon
    assert all(t <= horizon for t in fired)


# ---------------------------------------------------------------------------
# Q-table

@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_qtable_best_action_is_maximal(writes):
    q = DenseQTable()
    for state, action, value in writes:
        q.set(state, action, value)
    actions = list(range(6))
    for state in range(6):
        best = q.best_action(state, actions)
        assert q.value(state, best) == max(q.value(state, a) for a in actions)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3),
                  st.floats(-100, 100)),
        max_size=50,
    )
)
def test_qtable_copy_equivalence_and_independence(writes):
    q = DenseQTable(initial_value=1.5)
    for state, action, value in writes:
        q.set(state, action, value)
    clone = q.copy()
    assert q.max_abs_difference(clone) == 0.0
    clone.add(0, 0, 123.0)
    assert q.max_abs_difference(clone) > 0.0


# ---------------------------------------------------------------------------
# traces

@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1,
             max_size=50),
    st.floats(min_value=0.0, max_value=0.99),
)
def test_traces_bounded_for_replacing_kind(visits, decay):
    traces = DenseTraces()
    for state, action in visits:
        traces.visit(state, action)
        traces.decay(decay)
    assert all(0.0 <= value <= 1.0 for _, value in traces.items())


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=50))
def test_traces_reset_always_empties(visits):
    traces = DenseTraces()
    for state, action in visits:
        traces.visit(state, action)
    traces.reset()
    assert len(traces) == 0


# ---------------------------------------------------------------------------
# the ε schedule

@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=1000))
def test_exponential_decay_is_monotone(a, b):
    learner = TabularLearner(learner_config(epsilon=1.0, epsilon_decay=0.95))
    early, late = sorted([a, b])
    assert learner.epsilon_at(early) >= learner.epsilon_at(late) >= 0.0


# ---------------------------------------------------------------------------
# convergence

@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=200),
       st.floats(min_value=0.01, max_value=1.0),
       st.integers(min_value=1, max_value=5))
def test_streaming_and_offline_convergence_agree(series, criterion, patience):
    detector = ConvergenceDetector(criterion=criterion, patience=patience)
    for accuracy in series:
        detector.update(accuracy)
    assert detector.converged_at == convergence_iteration(
        series, criterion, patience
    )


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=200))
def test_convergence_iteration_points_at_qualifying_run(series):
    iteration = convergence_iteration(series, 0.9, patience=2)
    if iteration is not None:
        window = series[iteration - 1 : iteration + 1]
        assert len(window) == 2
        assert all(value >= 0.9 for value in window)


# ---------------------------------------------------------------------------
# detector

@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=300),
    st.integers(min_value=1, max_value=5),
)
def test_detector_never_fires_without_k_exceedances(samples, k):
    detector = KofNDetector(threshold=2.0, k=k, n=10, refractory_samples=0)
    exceedances = sum(1 for s in samples if s > 2.0)
    detections = detector.observe_trace(samples)
    assert detections * k <= max(exceedances, 0)
    if exceedances < k:
        assert detections == 0


@given(st.lists(st.floats(min_value=0.0, max_value=1.9), max_size=500))
def test_detector_silent_below_threshold(samples):
    detector = KofNDetector(threshold=2.0, k=3, n=10)
    assert detector.observe_trace(samples) == 0


@given(
    st.lists(st.floats(min_value=0.0, max_value=4.0), max_size=30),
    st.integers(min_value=0, max_value=IDLE_BLOCK_SAMPLES),
)
def test_detector_idle_block_matches_per_sample(prefix, idle):
    # A long all-quiet block after any history leaves the detector
    # exactly where per-sample observation would.
    block = KofNDetector(threshold=2.0, k=3, n=10, refractory_samples=4)
    scalar = KofNDetector(threshold=2.0, k=3, n=10, refractory_samples=4)
    block.observe_block(prefix)
    block.observe_block([0.0] * idle)
    for sample in prefix + [0.0] * idle:
        scalar.observe(sample)
    assert block.snapshot() == scalar.snapshot()


@given(
    st.lists(st.booleans(), max_size=10),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=1000),
    st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=60),
)
def test_detector_advance_quiet_is_a_sub_threshold_block(
    window, refractory_left, seen, quiet
):
    # From any window and refractory count, skipping ``len(quiet)``
    # sub-threshold samples (``> threshold`` is an exceedance, so 2.0
    # is not one) leaves every field where observing them does.
    state = (tuple(window), sum(window), refractory_left, 7, seen, 2.0)
    skipped = KofNDetector(threshold=2.0, k=3, n=10, refractory_samples=20)
    observed = KofNDetector(threshold=2.0, k=3, n=10, refractory_samples=20)
    skipped.restore(state)
    observed.restore(state)
    skipped.advance_quiet(len(quiet))
    assert observed.observe_block(quiet) == []
    assert observed.first_exceedance == len(quiet)
    assert skipped.snapshot() == observed.snapshot()


# ---------------------------------------------------------------------------
# node block clock

def _scalar_clock(start, steps):
    """The reference firmware's clock: one ``Timeout(0.1)`` per sample."""
    times = [start]
    for _ in range(steps):
        times.append(times[-1] + 0.1)
    return times


def _node(boot=0.0):
    sim = Simulator(boot)
    return PavenetNode(
        sim=sim,
        tool=Tool(1, "cup", SensorType.ACCELEROMETER),
        source=SignalSource(SignalProfile(), np.random.default_rng(0)),
        radio=RadioMedium(sim, RadioConfig(), np.random.default_rng(1)),
        config=SensingConfig(),
    )


@given(
    st.floats(min_value=0.0, max_value=7200.0),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * ClockLine.INITIAL_ENTRIES),
            st.integers(min_value=1, max_value=2 * IDLE_BLOCK_SAMPLES),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=300)
def test_node_block_clock_is_the_scalar_clock(boot, blocks):
    # A node booted at ``boot`` reads every block clock from its line:
    # a block at line index ``k`` (a resume after an invalidation
    # lands off the k/10 grid) is the scalar fold from boot, also when
    # the window extends the line, and windows read before the line
    # grew keep their entries.
    node = _node(boot)
    node.start()
    scalar = _scalar_clock(boot, max(k + n for k, n in blocks))
    windows = []
    for k, n in blocks:
        node._clock_index = k
        windows.append(node._block_sample_times(n))
        assert windows[-1].tolist() == scalar[k:k + n + 1]
    for (k, n), window in zip(blocks, windows):
        assert window.tolist() == scalar[k:k + n + 1]


# ---------------------------------------------------------------------------
# history

@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e4),
                  st.integers(min_value=1, max_value=6)),
        max_size=60,
    )
)
def test_history_dwell_stats_are_finite_and_positive(entries):
    history = UsageHistory()
    for time, tool in sorted(entries, key=lambda e: e[0]):
        history.append(time, tool)
    for stats in filter(None, map(history.dwell, range(1, 7))):
        assert stats.count >= 1
        assert stats.mean >= 0.0
        assert math.isfinite(stats.sd)


def _dwell_stats_from_records(records):
    """Per-tool dwell statistics recomputed from the whole history."""
    samples = {}
    run_start = None
    for record in records:
        if run_start is None:
            run_start = record
        elif record.tool_id != run_start.tool_id:
            samples.setdefault(run_start.tool_id, []).append(
                record.time - run_start.time
            )
            run_start = record
    stats = {}
    for tool_id, durations in samples.items():
        count = len(durations)
        mean = sum(durations) / count
        variance = (
            sum((d - mean) ** 2 for d in durations) / (count - 1)
            if count > 1 else 0.0
        )
        stats[tool_id] = DwellStats(count, mean, math.sqrt(variance))
    return stats


def _bits(stats):
    return None if stats is None else (
        stats.count, stats.mean.hex(), stats.sd.hex()
    )


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e4),
                  st.integers(min_value=1, max_value=4)),
        max_size=60,
    )
)
def test_history_dwell_equals_a_recount_after_every_append(entries):
    # Appended samples and cached stats give the bit-same DwellStats
    # as a pass over every record, for each tool, after each append.
    history = UsageHistory()
    for time, tool in sorted(entries, key=lambda e: e[0]):
        history.append(time, tool)
        expected = _dwell_stats_from_records(history.records())
        for tool_id in range(6):
            assert _bits(history.dwell(tool_id)) == _bits(expected.get(tool_id))


# ---------------------------------------------------------------------------
# eeprom

@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=100))
def test_eeprom_never_exceeds_capacity(capacity_records, writes):
    log = EepromLog(capacity_bytes=capacity_records * RECORD_SIZE)
    for seq in range(writes):
        log.append(EepromRecord(timestamp=float(seq), node_uid=1, sequence=seq))
    assert len(log) <= capacity_records
    assert len(log) == min(writes, capacity_records)
    assert log.overwrites == max(0, writes - capacity_records)
    # The retained records are always the most recent ones, in order.
    kept = [r.sequence for r in log.records()]
    assert kept == list(range(max(0, writes - capacity_records), writes))


# ---------------------------------------------------------------------------
# bus

@given(st.lists(st.integers(), max_size=50))
@settings(max_examples=25)
def test_bus_delivers_everything_in_order(payloads):
    class Event:
        def __init__(self, value):
            self.value = value

    bus = EventBus()
    seen = []
    bus.subscribe(Event, lambda e: seen.append(e.value))
    for value in payloads:
        bus.publish(Event(value))
    assert seen == payloads


# ---------------------------------------------------------------------------
# persistence roundtrips

@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),   # previous
            st.integers(min_value=1, max_value=4),   # current
            st.integers(min_value=1, max_value=4),   # prompted tool
            st.booleans(),                           # minimal?
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        max_size=40,
    )
)
@settings(max_examples=30)
def test_policy_store_roundtrip_is_lossless(entries):
    import pathlib
    import tempfile

    from repro.adls.tea_making import make_tea_making
    from repro.core.adl import ReminderLevel
    from repro.planning.action import PromptAction, action_space
    from repro.planning.predictor import NextStepPredictor
    from repro.planning.state import PlanningState
    from repro.planning.store import load_predictor, save_predictor

    adl = make_tea_making()
    q = DenseQTable(initial_value=1000.0)
    for previous, current, tool, minimal, value in entries:
        if previous == current:
            continue
        level = ReminderLevel.MINIMAL if minimal else ReminderLevel.SPECIFIC
        q.set(PlanningState(previous, current), PromptAction(tool, level), value)
    predictor = NextStepPredictor(q, action_space(adl), converged=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "policy.json"
        save_predictor(predictor, path, adl.name)
        restored = load_predictor(path, adl)
    assert restored.q.max_abs_difference(q) < 1e-9


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=5.0, max_value=600.0),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=30)
def test_config_io_roundtrip(seed, stall_timeout, escalate_after):
    import json
    from dataclasses import replace

    from repro.core.config import CoReDAConfig, RemindingConfig
    from repro.core.config_io import config_from_dict, config_to_dict

    config = replace(
        CoReDAConfig(seed=seed),
        reminding=RemindingConfig(
            stall_timeout=stall_timeout, escalate_after=escalate_after
        ),
    )
    document = json.loads(json.dumps(config_to_dict(config)))
    assert config_from_dict(document) == config
