"""Runtime determinism sanitizer: PYTHONHASHSEED must not matter.

The source invariants (DET003 in particular) exist to keep ``set``/``dict``
hash order out of the event stream.  This test closes the loop at
runtime: the Figure 1 tea scenario is executed in two fresh
interpreters with *different* ``PYTHONHASHSEED`` values -- so any
hash-order-dependent iteration would reshuffle -- and every observable
stream (trace entries, base-station frame count, per-node EEPROM
records) must come out byte-identical.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Runs the Figure 1 scenario and prints a canonical dump of every
# observable stream.  repr() of floats round-trips exactly, so equal
# output bytes mean bit-identical timestamps and values.
DUMP_SCRIPT = """
from repro.evalx.scenario import build_tea_scenario

system, resident = build_tea_scenario()
outcome = system.run_episode(resident, horizon=600.0)
print("completed", outcome.completed)
for entry in system.trace.entries():
    print(entry.time, entry.category, sorted(entry.payload.items()))
print("frames", system.network.base_station.frames_received)
for tool in system.adl.tools:
    node = system.network.node(tool.tool_id)
    for record in node.eeprom.records():
        print("eeprom", tool.tool_id, record.timestamp,
              record.node_uid, record.sequence)
"""


def _run_scenario(hash_seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run(
        [sys.executable, "-c", DUMP_SCRIPT],
        env=env,
        cwd=str(REPO),
        capture_output=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_tea_scenario_is_hashseed_invariant():
    first = _run_scenario("0")
    second = _run_scenario("12345")
    assert b"completed True" in first
    assert b"frames" in first and b"eeprom" in first
    assert first == second
