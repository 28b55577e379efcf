"""Reference node firmware: one kernel event per sample, always.

Production mains-powered nodes run the block sampler of
:class:`~repro.sensors.pavenet.PavenetNode` (one kernel event per
block, vectorised draws, regime-change rollback and replay).
:class:`PerSampleNode` is the plain version every node once ran -- the
10 Hz ``Timeout(period)`` loop battery nodes still use -- whose trace,
frames and EEPROM the block sampler must reproduce byte for byte.
:func:`per_sample_nodes` swaps it into the sensor network, so a whole
scenario, experiment section or fleet can run on the oracle.
"""

from __future__ import annotations

from repro.sensors.pavenet import PavenetNode
from repro.sim.process import Process

__all__ = ["PerSampleNode", "per_sample_nodes"]


class PerSampleNode(PavenetNode):
    """A PAVENET node that samples through the per-sample loop."""

    def start(self) -> None:
        if self.running:
            return
        self._loop = Process(
            self.sim, self._firmware_loop(), name=f"node{self.uid}.firmware"
        )


def per_sample_nodes(monkeypatch) -> None:
    """Make every sensor network build :class:`PerSampleNode` nodes.

    Patches the constructor :mod:`repro.sensors.network` calls, so it
    holds for in-process runs (``jobs=1``) and forked workers alike.
    """
    monkeypatch.setattr("repro.sensors.network.PavenetNode", PerSampleNode)
