"""Golden-output gate: the production outputs themselves, not fast vs reference.

Every equivalence test compares a production path with its oracle in
``tests/oracles/``; a refactor that moves both together passes them all.
These checks pin what the outputs *are*: the sha256 of the fast paper
report (serial, and at ``--jobs 2`` on a cold and a warm policy cache)
and of a 200-home fleet run, read from ``bench/digests.json``, plus the
full report itself, byte for byte against ``experiments_report.txt``.
``bench/digests.json`` is only read here -- ``python -m bench pin`` is
the one way to regenerate it after an intentional output change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "bench" / "digests.json"


def _pin(workload: str) -> str:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]["0"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fast_paper_report_matches_pinned_digest():
    from repro.evalx.runner import run_all

    assert _sha256(run_all(fast=True)) == _pin("paper-report")


def test_fast_paper_report_at_jobs_2_cold_and_warm_cache(tmp_path):
    from repro.evalx.runner import run_all

    cache = str(tmp_path / "policy-cache")
    for _state in ("cold", "warm"):
        report = run_all(fast=True, jobs=2, cache_dir=cache)
        assert _sha256(report) == _pin("paper-report")


def test_full_report_matches_experiments_report(full_report):
    # The shared full-report run the claim tests read is `repro
    # report` itself: same sections, same parameters, same bytes.
    blocks = [block for run in full_report.values() for block in run.blocks]
    committed = (ROOT / "experiments_report.txt").read_text(encoding="utf-8")
    assert "\n\n".join(blocks) + "\n" == committed


def test_diverse_fleet_matches_pinned_digest():
    # The fleet-cold-diverse spec in bench/workloads.py, seed 0.
    from repro.fleet import FleetSpec, run_fleet

    metrics = run_fleet(FleetSpec(seed=0, homes=200, seed_classes=64), jobs=1)
    assert _sha256(metrics.to_json()) == _pin("fleet-cold-diverse")
