"""Unit tests for the PAVENET node model."""

import numpy as np
import pytest

from repro.core.adl import SensorType, Tool
from repro.core.config import RadioConfig, SensingConfig
from repro.sensors.pavenet import Led, PavenetNode
from repro.sensors.radio import BASE_STATION_UID, Frame, RadioMedium
from repro.sensors.signals import SignalProfile, SignalSource
from repro.sim.kernel import Simulator


def build_world(sim):
    """A mains-powered node on a lossless radio, with the frames it sends."""
    radio = RadioMedium(
        sim, RadioConfig(loss_probability=0.0), np.random.default_rng(0)
    )
    tool = Tool(7, "cup", SensorType.ACCELEROMETER)
    source = SignalSource(
        SignalProfile(burst_probability=0.9), np.random.default_rng(1)
    )
    node = PavenetNode(
        sim=sim, tool=tool, source=source, radio=radio, config=SensingConfig()
    )
    received = []
    radio.attach(BASE_STATION_UID, received.append)
    return node, source, radio, received


@pytest.fixture
def setup(sim):
    return build_world(sim)


class TestFirmwareLoop:
    def test_idle_node_sends_nothing(self, sim, setup):
        node, _, _, received = setup
        node.start()
        sim.run_until(60.0)
        assert received == []

    def test_usage_detected_and_reported(self, sim, setup):
        node, source, _, received = setup
        node.start()
        source.begin_use(0.0, duration=5.0)
        sim.run_until(6.0)
        assert len(received) >= 1
        assert received[0].src_uid == 7
        assert received[0].kind == "usage"

    def test_refractory_limits_report_rate(self, sim, setup):
        node, source, _, received = setup
        node.start()
        source.begin_use(0.0, duration=10.0)
        sim.run_until(10.0)
        # 10 s of continuous vigorous use with a 2 s refractory can
        # produce at most ~5 reports.
        assert 1 <= len(received) <= 6

    def test_detection_logged_to_eeprom(self, sim, setup):
        node, source, _, _ = setup
        node.start()
        source.begin_use(0.0, duration=5.0)
        sim.run_until(6.0)
        assert len(node.eeprom) == node.usage_reports >= 1

    def test_stop_halts_sampling(self, sim, setup):
        node, source, _, received = setup
        node.start()
        node.stop()
        source.begin_use(sim.now, duration=5.0)
        sim.run_until(10.0)
        assert received == []
        assert not node.running

    def test_start_is_idempotent(self, sim, setup):
        node, _, _, _ = setup
        node.start()
        node.start()
        twin_sim = Simulator()
        twin, _, _, _ = build_world(twin_sim)
        twin.start()
        sim.run_until(1.0)
        twin_sim.run_until(1.0)
        # A duplicate firmware would draw twice as many samples and
        # keep a second block event queued, whatever the block length.
        assert node.detector.samples_seen == twin.detector.samples_seen
        assert sim.pending_count == twin_sim.pending_count == 1


class TestLedCommands:
    def test_led_frame_blinks(self, sim, setup):
        node, _, radio, _ = setup
        radio.transmit(
            Frame(
                src_uid=BASE_STATION_UID,
                dst_uid=7,
                kind="led",
                sequence=1,
                payload={"color": "green", "blinks": 3},
            )
        )
        sim.run()
        assert node.leds["green"].total_blinks == 3

    def test_unknown_color_ignored(self, sim, setup):
        node, _, radio, _ = setup
        radio.transmit(
            Frame(
                src_uid=BASE_STATION_UID,
                dst_uid=7,
                kind="led",
                sequence=1,
                payload={"color": "purple", "blinks": 3},
            )
        )
        sim.run()
        assert all(led.total_blinks == 0 for led in node.leds.values())

    def test_non_led_frame_ignored(self, sim, setup):
        node, _, radio, _ = setup
        radio.transmit(
            Frame(src_uid=BASE_STATION_UID, dst_uid=7, kind="usage", sequence=1)
        )
        sim.run()
        assert all(led.total_blinks == 0 for led in node.leds.values())


class TestBlockClock:
    def test_window_is_read_only(self, sim, setup):
        node, _, _, _ = setup
        node.start()
        sim.run_until(30.0)
        window = node._block_times
        assert not window.flags.writeable
        with pytest.raises(ValueError):
            window[0] = 0.0

    def test_nodes_booted_together_share_a_line(self, sim, setup):
        node, _, radio, _ = setup

        def booted(uid):
            other = PavenetNode(
                sim=sim, tool=Tool(uid, "pot", SensorType.ACCELEROMETER),
                source=SignalSource(SignalProfile(), np.random.default_rng(2)),
                radio=radio, config=SensingConfig(),
            )
            other.start()
            return other

        node.start()
        twin = booted(8)
        sim.run_until(5.0)
        late = booted(9)
        sim.run_until(30.0)
        # Idle since boot, so on the same block of the same line.
        assert node._clock is twin._clock
        assert np.shares_memory(node._block_times, twin._block_times)
        assert late._clock is not node._clock
        assert late._block_times.item(0) == late._clock.window(200, 1).item(0)


class TestLed:
    def test_blink_history(self):
        led = Led("red")
        led.blink(1.0, 3)
        led.blink(2.0, 8)
        assert led.total_blinks == 11
        assert [r.time for r in led.history] == [1.0, 2.0]

    def test_zero_blinks_rejected(self):
        with pytest.raises(ValueError):
            Led("red").blink(1.0, 0)


class TestIdentity:
    def test_uid_is_tool_id(self, setup):
        node, _, _, _ = setup
        assert node.uid == node.tool.tool_id == 7

    def test_four_leds(self, setup):
        node, _, _, _ = setup
        assert set(node.leds) == {"green", "red", "yellow", "orange"}

    def test_leds_built_on_first_access(self, sim, setup):
        node, _, _, _ = setup
        node.start()
        sim.run_until(60.0)
        assert node._leds is None
        assert node.leds is node.leds
