"""Every function the benchmark's traced run wraps still exists.

``python -m bench run`` wraps the layer entry points listed in
``bench.layers.TARGETS`` from outside the program.  A deletion or
rename under ``src/repro`` that drops one of them would only surface
when the benchmark runs; this test makes it a tier-1 failure instead.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.layers import TARGETS  # noqa: E402


@pytest.mark.parametrize(
    "module_name, path", [(module, path) for module, path, _ in TARGETS]
)
def test_bench_target_resolves(module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        # A class attribute is wrapped on the class that defines it.
        class_name, attr = path.split(".")
        owner = getattr(module, class_name)
        assert inspect.isclass(owner)
        assert attr in vars(owner), f"{module_name}.{path} is not defined there"
    else:
        assert callable(getattr(module, path))
