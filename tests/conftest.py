"""Shared fixtures for the CoReDA test suite."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.adls.library import default_registry
from repro.core.config import CoReDAConfig, PlanningConfig
from repro.sim.kernel import Simulator


@pytest.fixture(autouse=True)
def _collector_left_enabled():
    """Fail any test that leaves the cyclic garbage collector disabled.

    Code that pauses the collector (a fleet shard does) must restore it,
    also on errors; a leaked pause would let cyclic garbage pile up for
    the rest of the process.  The collector is re-enabled before the
    failure so one leak does not fail every later test.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("test left the cyclic garbage collector disabled")


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def tea_definition(registry):
    return registry.get("tea-making")


@pytest.fixture(scope="session")
def tooth_definition(registry):
    return registry.get("tooth-brushing")


@pytest.fixture
def tea_adl(tea_definition):
    return tea_definition.adl


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def planning_config() -> PlanningConfig:
    return PlanningConfig()


@pytest.fixture
def config() -> CoReDAConfig:
    return CoReDAConfig(seed=0)
