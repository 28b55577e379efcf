"""Unit tests for the deployed sensor network and base station."""

import pytest

from repro.core.config import RadioConfig, SensingConfig
from repro.sensors.network import SensorNetwork
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams


@pytest.fixture
def network(sim, tea_definition):
    return SensorNetwork(
        sim=sim,
        adl=tea_definition.adl,
        sensing_config=SensingConfig(),
        radio_config=RadioConfig(loss_probability=0.0),
        streams=RandomStreams(0),
        profiles=tea_definition.signal_profiles,
    )


class TestTopology:
    def test_one_node_per_tool(self, network, tea_definition):
        assert set(network.nodes) == set(tea_definition.adl.step_ids)

    def test_node_and_source_lookup(self, network):
        assert network.node(1).uid == 1
        assert network.source(1) is network.nodes[1].source

    def test_profiles_applied(self, network, tea_definition):
        for tool_id, profile in tea_definition.signal_profiles.items():
            assert network.source(tool_id).profile == profile


class TestUplink:
    def test_usage_reaches_base_station(self, sim, network):
        frames = []
        network.base_station.frames.subscribe(frames.append)
        network.start()
        network.source(3).begin_use(0.0, duration=5.0)
        sim.run_until(6.0)
        assert frames
        assert frames[0].node_uid == 3
        assert network.base_station.frames_received >= 1

    def test_stop_silences_network(self, sim, network):
        frames = []
        network.base_station.frames.subscribe(frames.append)
        network.start()
        network.stop()
        network.source(3).begin_use(sim.now, duration=5.0)
        sim.run_until(10.0)
        assert frames == []


class TestDownlink:
    def test_led_command_reaches_node(self, sim, network):
        network.base_station.send_led_command(2, "green", 3)
        sim.run()
        assert network.node(2).leds["green"].total_blinks == 3

    def test_led_command_other_nodes_untouched(self, sim, network):
        network.base_station.send_led_command(2, "red", 5)
        sim.run()
        assert network.node(1).leds["red"].total_blinks == 0
        assert network.node(2).leds["red"].total_blinks == 5
