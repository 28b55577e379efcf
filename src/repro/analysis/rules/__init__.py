"""The shipped rule pack; importing this package registers every rule.

========== ========= ====================================================
DET001     error     randomness only via ``repro.sim.random``
DET002     error     no wall-clock reads in simulation code
DET003     warning   no unordered iteration where events/randomness flow
DET004     error     no float ``==``/``!=`` on simulation timestamps
PERF001    warning   hot-path manifest classes declare ``__slots__``
SIM001     error     process bodies yield only Timeout/Wait directives
SIM002     warning   capture/snapshot methods pair with restore methods
VER001     error     only ``rl/dense.py`` touches Q-table storage/``version``
========== ========= ====================================================

Every rule checks one module at a time.
"""

from repro.analysis.rules import (  # noqa: F401  (import = register)
    determinism,
    performance,
    simulation,
    versioning,
)

__all__ = [
    "determinism",
    "performance",
    "simulation",
    "versioning",
]
