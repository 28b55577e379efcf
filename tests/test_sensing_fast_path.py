"""Equivalence smoke tests: block sampler vs the per-sample oracle.

The block sampler every mains-powered node runs must be
*byte-identical* to the per-sample loop kept in
``tests/oracles/sensing.py`` -- same trace events at the same times,
same frames, same EEPROM contents -- for any resident behaviour,
including regime changes that land in the middle of a pre-drawn
block.  These tests replay identical worlds under both firmwares and
compare the full observable streams.
"""

import numpy as np
import pytest

from oracles.sensing import PerSampleNode, per_sample_nodes
from repro.core.adl import SensorType, Tool
from repro.core.config import CoReDAConfig, RadioConfig, SensingConfig
from repro.evalx.ablations import plan_radio_sweep
from repro.evalx.parallel import run_section
from repro.evalx.scenario import build_tea_scenario, run_tea_scenario
from repro.fleet import FleetSpec, run_fleet
from repro.sensors.pavenet import IDLE_BLOCK_SAMPLES, PavenetNode
from repro.sensors.radio import BASE_STATION_UID, RadioMedium
from repro.sensors.signals import SignalProfile, SignalSource, sample_clock
from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceRecorder

PERIOD = 0.1
#: Seconds one idle block spans.
IDLE_SPAN = IDLE_BLOCK_SAMPLES * PERIOD
#: The reference loop's sample timestamps from t=0, exactly.
CLOCK = sample_clock(0.0, PERIOD, 1200).tolist()


def build_node(node_cls):
    """One complete node world with a deterministic seed."""
    sim = Simulator()
    trace = TraceRecorder()
    radio = RadioMedium(
        sim, RadioConfig(loss_probability=0.05), np.random.default_rng(0)
    )
    source = SignalSource(
        SignalProfile(burst_probability=0.7), np.random.default_rng(1)
    )
    node = node_cls(
        sim=sim,
        tool=Tool(7, "cup", SensorType.ACCELEROMETER),
        source=source,
        radio=radio,
        config=SensingConfig(),
        trace=trace,
    )
    received = []
    radio.attach(
        BASE_STATION_UID,
        lambda frame: received.append(
            (sim.now, frame.src_uid, frame.kind, frame.sequence)
        ),
    )
    return sim, node, source, trace, received


def run_script(node_cls, script):
    """Run one node under ``script``: (time, action, kwargs) tuples."""
    sim, node, source, trace, received = build_node(node_cls)
    node.start()
    for time, action, kwargs in script:
        if action == "begin":
            sim.schedule_at(
                time, (lambda t=time, kw=kwargs: source.begin_use(t, **kw))
            )
        elif action == "end":
            sim.schedule_at(time, source.end_use)
        elif action == "stop":
            sim.schedule_at(time, node.stop)
    sim.run_until(120.0)
    return {
        "trace": trace.entries(),
        "received": received,
        "eeprom": node.eeprom.records(),
        "reports": node.usage_reports,
        "seen": None,  # samples_seen intentionally excluded: the block
        # sampler legitimately pre-draws ahead of the clock
    }


def assert_streams_equal(script):
    reference = run_script(PerSampleNode, script)
    blocks = run_script(PavenetNode, script)
    assert blocks["trace"] == reference["trace"]
    assert blocks["received"] == reference["received"]
    assert blocks["eeprom"] == reference["eeprom"]
    assert blocks["reports"] == reference["reports"]


class TestNodeEquivalence:
    def test_idle_node(self):
        assert_streams_equal([])

    def test_simple_use_with_finite_duration(self):
        # Finite durations are known at block start: the block sampler
        # truncates at the expiry, no invalidation needed.
        assert_streams_equal([(0.0, "begin", {"duration": 5.0})])

    def test_duration_expiring_mid_block(self):
        # begin_use lands inside the first idle span; the active block
        # that resumes at t=0.8 then runs to the expiry at t=1.23.
        assert_streams_equal([(0.73, "begin", {"duration": 0.5})])

    def test_end_use_invalidates_block_tail(self):
        # end_use at an off-grid time mid-block: the pre-drawn active
        # tail is stale and must be re-drawn as idle samples.
        assert_streams_equal(
            [(0.0, "begin", {}), (2.37, "end", {})]
        )

    def test_begin_use_invalidates_block_tail(self):
        # begin_use mid-block: the pre-drawn idle tail becomes active.
        assert_streams_equal(
            [(1.62, "begin", {}), (6.91, "end", {})]
        )

    def test_rapid_regime_flapping(self):
        # Multiple invalidations, some within the same block.
        assert_streams_equal(
            [
                (0.31, "begin", {}),
                (0.58, "end", {}),
                (0.84, "begin", {"duration": 1.7}),
                (3.05, "begin", {"duration": 4.0}),
                (5.5, "end", {}),
                (11.02, "begin", {}),
                (11.96, "end", {}),
            ]
        )

    def test_stop_mid_block_cancels_pending_reports(self):
        assert_streams_equal(
            [(0.0, "begin", {}), (3.14, "stop", {})]
        )

    def test_begin_use_after_several_idle_spans(self):
        assert 2 * IDLE_SPAN < 47.31 < 3 * IDLE_SPAN
        assert_streams_equal(
            [(47.31, "begin", {"duration": 3.0}), (88.88, "begin", {}),
             (93.07, "end", {})]
        )

    def test_finite_use_longer_than_an_idle_block(self):
        # The use spans several whole active blocks, then expires
        # mid-block and reads on into that block's idle tail.
        duration = 3.4 * IDLE_SPAN
        assert_streams_equal([(5.55, "begin", {"duration": duration})])

    def test_perseveration_restarts_an_active_finite_use(self):
        # A second begin_use while the first finite use still runs
        # moves the known expiry mid-block.
        assert_streams_equal(
            [(12.34, "begin", {"duration": 8.0}),
             (15.67, "begin", {"duration": 6.0}),
             (16.01, "begin", {"duration": 0.35})]
        )

    @pytest.mark.parametrize("index", [437, 600, 201])
    def test_regime_change_exactly_on_a_sample_timestamp(self, index):
        # The change and the sample share a timestamp bit for bit.
        # Index 600 falls on an idle block's first sample.
        start = CLOCK[index]
        assert_streams_equal(
            [(start, "begin", {}), (CLOCK[index + 35], "end", {}),
             (CLOCK[index + 80], "begin", {"duration": 2.0})]
        )

    def test_change_on_a_due_report_cancels_it(self):
        # An open-ended use reports at CLOCK[54], mid-block.  Ending the
        # use at that very instant comes first in the reference loop,
        # so that sample is idle and the report must never fire.
        times = [entry.time for entry in
                 run_script(PerSampleNode, [(0.0, "begin", {})])["trace"]]
        assert CLOCK[54] in times
        assert_streams_equal([(0.0, "begin", {}), (CLOCK[54], "end", {})])

    def test_stop_mid_long_idle_block(self):
        assert_streams_equal(
            [(2.0, "begin", {"duration": 4.0}), (33.33, "stop", {})]
        )

    def test_begin_use_in_a_merged_blocks_idle_tail(self):
        # The block read through the first use's expiry at t=2.55; the
        # second use lands in its idle tail, so the replay starts at
        # the source's checkpoint on the first idle sample.
        assert_streams_equal(
            [(0.55, "begin", {"duration": 2.0}),
             (9.07, "begin", {"duration": 1.5})]
        )

    @pytest.mark.parametrize("offset", [0, 1, 2])
    def test_begin_use_on_the_first_idle_samples(self, offset):
        # The change lands on the expiry sample itself or just after
        # it: the checkpoint and the committed prefix meet there.
        assert_streams_equal(
            [(CLOCK[3], "begin", {"duration": 2.0}),
             (CLOCK[23 + offset], "begin", {"duration": 0.8})]
        )

    @pytest.mark.parametrize("action", ["begin", "end"])
    @pytest.mark.parametrize("index", [20, 21, 22, 23, 24])
    def test_changes_around_the_expiry(self, action, index):
        # The use's last active samples sit at CLOCK[3..22]; a change
        # just after CLOCK[index] commits samples up to it, so the
        # replay starts at the block start, on the checkpoint, or
        # (an idle end) not at all.
        kwargs = {"duration": 1.0} if action == "begin" else {}
        assert_streams_equal(
            [(CLOCK[3], "begin", {"duration": 2.0}),
             (CLOCK[index] + 0.05, action, kwargs)]
        )

    def test_end_use_after_expiry_needs_no_replay(self, monkeypatch):
        # The Table 3 pattern: a finite use, then ``end_use`` once it
        # has expired.  The tail was drawn idle and stays idle, so the
        # ``end_use`` rolls nothing back.
        use = [(1.0, "begin", {"duration": 3.0})]
        ended = use + [(6.55, "end", {})]
        restores = []
        restore = SignalSource.restore
        monkeypatch.setattr(
            SignalSource, "restore",
            lambda source, state: restores.append(state) or restore(
                source, state
            ),
        )
        run_script(PavenetNode, use)
        replays = len(restores)
        assert replays == 1  # the begin_use, mid idle block
        assert_streams_equal(ended)
        assert len(restores) == 2 * replays

    @pytest.mark.parametrize("kwargs", [{}, {"duration": 2.0}])
    def test_changes_around_the_first_exceedance(self, kwargs):
        # The use's block starts on CLOCK[1] (the begin_use at t=0
        # invalidates the idle block the node had just drawn), and its
        # first exceedance is CLOCK[3].  A change just after CLOCK[2]
        # replays its committed prefix quietly; one just after CLOCK[3]
        # must feed that exceedance to the detector again.
        use = [(0.0, "begin", {"duration": 3.0})]
        sim, node, source, _, _ = build_node(PavenetNode)
        node.start()
        sim.schedule_at(0.0, lambda: source.begin_use(0.0, duration=3.0))
        sim.run_until(CLOCK[2])
        assert node._block_index == 1
        assert node.detector.first_exceedance == 2
        for index in (1, 2, 3, 4):
            assert_streams_equal(use + [(CLOCK[index] + 0.05, "begin", kwargs)])

    def test_back_to_back_uses(self):
        # Each use begins as (or just after) the previous one expires,
        # and one ends early by ``end_use``.
        assert_streams_equal(
            [(0.42, "begin", {"duration": 1.5}),
             (1.92, "begin", {"duration": 2.0}),
             (3.95, "begin", {"duration": 0.3}),
             (4.25, "begin", {}),
             (5.1, "end", {}),
             (5.1, "begin", {"duration": 1.0})]
        )

    def test_idle_node_fires_one_event_per_span(self):
        sim, node, _, _, _ = build_node(PavenetNode)
        node.start()
        sim.run_until(120.0)
        assert sim.events_processed <= 120.0 / IDLE_SPAN + 1

    def test_batch_sizes_beyond_default(self, monkeypatch):
        script = [(0.42, "begin", {"duration": 3.3}), (7.7, "begin", {}),
                  (9.33, "end", {})]
        reference = run_script(PerSampleNode, script)
        for batch in (2, 5, 25):
            monkeypatch.setattr(
                "repro.sensors.pavenet.OPEN_BLOCK_SAMPLES", batch
            )
            blocks = run_script(PavenetNode, script)
            assert blocks["trace"] == reference["trace"], f"batch={batch}"
            assert blocks["received"] == reference["received"]


class TestScenarioEquivalence:
    """One full Figure 1 scenario on per-sample nodes vs block
    samplers: identical trace event lists."""

    @pytest.fixture(scope="class")
    def results(self):
        with pytest.MonkeyPatch.context() as patch:
            per_sample_nodes(patch)
            system, _ = build_tea_scenario()
            nodes = system.network.nodes.values()
            assert {type(node) for node in nodes} == {PerSampleNode}
            reference = run_tea_scenario()
        return reference, run_tea_scenario()

    def test_identical_timelines(self, results):
        reference, blocks = results
        assert blocks.timeline == reference.timeline

    def test_identical_anchors(self, results):
        reference, blocks = results
        for field in (
            "completed",
            "wrong_tool_prompt_time",
            "first_praise_time",
            "stall_prompt_time",
            "second_praise_time",
            "wrong_tool_methods",
            "stall_methods",
        ):
            assert getattr(blocks, field) == getattr(reference, field), field

    def test_default_config_uses_fast_path(self, results):
        reference, _ = results
        default = run_tea_scenario()
        assert default.timeline == reference.timeline
        # A mains-powered node samples in blocks, not per sample.
        _, node, _, _, _ = build_node(PavenetNode)
        node.start()
        assert node.running and node._loop is None


class TestFleetEquivalence:
    def test_high_severity_fleet_identical(self, monkeypatch):
        # High severity: wrong-tool and perseveration uses re-trigger
        # sources mid-block.
        spec = FleetSpec(seed=3, homes=24, episodes_per_home=2,
                         max_severity=1.0, shard_size=8, seed_classes=2)
        blocks = run_fleet(spec).to_json()
        per_sample_nodes(monkeypatch)
        assert run_fleet(spec).to_json() == blocks


class TestRadioSweepEquivalence:
    def test_radio_ablation_table_identical(self, tea_definition, monkeypatch):
        def table():
            return run_section(
                plan_radio_sweep(tea_definition, samples_per_step=8)
            )

        blocks = table()
        per_sample_nodes(monkeypatch)
        assert blocks == table()


class TestExtractPrecisionEquivalence:
    def test_table3_cell_identical(self, monkeypatch):
        from repro.adls.tea_making import tea_making_definition
        from repro.evalx.extract_precision import plan_extract_precision
        from repro.evalx.parallel import run_section

        definition = tea_making_definition()

        def rows():
            result = run_section(
                plan_extract_precision(
                    [definition], samples_per_step=4, config=CoReDAConfig()
                )
            )
            return [
                (row.step_name, row.detections, row.trials, row.precision)
                for row in result.rows
            ]

        blocks = rows()
        per_sample_nodes(monkeypatch)
        assert blocks == rows()
