"""Shared fixtures for the CoReDA test suite."""

from __future__ import annotations

import gc
from typing import Any, List, NamedTuple

import numpy as np
import pytest

from repro.adls.library import default_registry
from repro.core.config import CoReDAConfig, PlanningConfig
from repro.evalx.parallel import run_cells
from repro.evalx.runner import build_sections
from repro.planning.trainer import training_memo
from repro.sim.kernel import Simulator


class SectionRun(NamedTuple):
    """One section of the full report: cell results, result, blocks."""

    cells: List[Any]
    result: Any
    blocks: List[str]


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


@pytest.fixture(scope="session")
def full_report():
    """Every section of ``repro report`` (the full, paper-scale run).

    Each section of ``build_sections(fast=False)`` runs once, in report
    order, under one training memo, exactly as ``run_all`` runs them.
    Maps section name to its :class:`SectionRun`; the joined blocks
    are the report text, which ``tests/test_golden.py`` pins against
    ``experiments_report.txt``.
    """
    runs = {}
    with training_memo():
        for section in build_sections(fast=False):
            cells, _ = run_cells(section.cells)
            result = section.merge.fold(cells)
            runs[section.name] = SectionRun(
                cells, result, section.merge.render(result)
            )
    return runs
