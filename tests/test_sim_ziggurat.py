"""The committed ziggurat tables match the installed numpy, bit for bit."""

from pathlib import Path

from oracles.ziggurat import MODULE_PATH, check_tables, render_module

from repro.sim import ziggurat
from repro.sim.ziggurat import KI, WI


def test_tables_match_numpy():
    # Every index at its fast/slow boundary and its WI value: about
    # 770 crafted-MT19937 probes.
    assert check_tables(KI, WI) == []


def test_module_is_the_generated_literal():
    # A hand edit to the tables cannot hide behind a stale generator.
    assert Path(ziggurat.__file__).resolve() == MODULE_PATH
    assert MODULE_PATH.read_text(encoding="utf-8") == render_module(KI, WI)

