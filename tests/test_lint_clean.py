"""Tier-1 gate: the shipped sources stay lint-clean.

Runs the full repro.analysis rule pack over ``src/repro`` exactly as
the ``repro lint`` CLI (and the Makefile ``lint`` target) would, and
fails on any non-suppressed finding.  Keeping this in the tier-1
suite means a determinism hazard cannot land without either a fix or
an explicit, justified ``# repro: allow[RULE]`` comment.

The tree is linted once per module; that one run also holds the
linter to its wall-clock budget, since every tier-1 run pays for it.
"""

import time
from pathlib import Path

import pytest

from repro.analysis import all_rule_ids, lint_paths

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Wall-clock ceiling for one full-tree lint (all rules, both passes).
FULL_TREE_BUDGET_S = 5.0


@pytest.fixture(scope="module")
def tree_lint():
    """One full-tree lint of ``src/repro``: ``(report, seconds)``."""
    start = time.perf_counter()
    report = lint_paths([str(SRC)])
    return report, time.perf_counter() - start


def test_source_tree_is_lint_clean(tree_lint):
    report, _ = tree_lint
    assert report.files_checked > 50
    offenders = "\n".join(
        f"{f.location}: {f.rule}: {f.message}" for f in report.active
    )
    assert not report.active, f"lint findings in src/repro:\n{offenders}"


def test_full_rule_pack_is_active():
    # The gate is only meaningful if every shipped rule participates,
    # including the storage-ownership rule.
    assert set(all_rule_ids()) == {
        "DET001", "DET002", "DET003", "DET004",
        "SIM001", "SIM002", "PERF001", "VER001",
    }


def test_rule_tables_list_exactly_the_pack():
    # The rule pack's docstring and docs/architecture.md each carry a
    # rule table; removing or adding a rule must not leave either one
    # stale.
    import re

    from repro.analysis import rules

    docs = SRC.parent.parent / "docs" / "architecture.md"
    doc_rows = re.findall(
        r"^\| `([A-Z]+\d{3})` \|", docs.read_text(encoding="utf-8"), re.M
    )
    pack_rows = re.findall(r"^([A-Z]+\d{3})\s", rules.__doc__, re.M)
    assert sorted(doc_rows) == all_rule_ids()
    assert sorted(pack_rows) == all_rule_ids()


def test_manifest_modules_exist():
    # PERF001 reports a missing hot-path class only when its module
    # exists, and VER001 polices nothing if its owner module is gone:
    # a manifest entry naming a deleted file would go stale silently.
    from repro.analysis import manifest

    suffixes = [suffix for suffix, _ in manifest.HOT_PATH_CLASSES]
    suffixes.append(manifest.DENSE_OWNER_MODULE)
    missing = [
        suffix for suffix in suffixes
        if not (SRC.parent / suffix).is_file()
    ]
    assert not missing, f"manifest names files not under src/: {missing}"


def test_full_tree_lint_within_budget(tree_lint):
    _, seconds = tree_lint
    assert seconds < FULL_TREE_BUDGET_S, (
        f"full-tree lint took {seconds:.2f}s, budget {FULL_TREE_BUDGET_S}s"
    )


def test_committed_baseline_is_current(tree_lint):
    # The committed baseline exists so a future rule can land
    # strict-on-new-findings.  Today it must be empty (the tree is
    # clean) and never stale: every entry must correspond to a live
    # finding, or the file is hiding debt that was already paid.
    from repro.analysis import Baseline

    baseline_file = SRC.parent.parent / "lint-baseline.json"
    assert baseline_file.is_file(), "lint-baseline.json must be committed"
    baseline = Baseline.load(str(baseline_file))
    report, _ = tree_lint
    stale = baseline.stale_entries(report)
    assert not stale, f"stale baseline entries (debt already paid): {stale}"
    assert len(baseline) == 0, (
        "src/repro lints clean; the committed baseline must stay empty "
        "until a new rule lands with known debt"
    )


def test_suppressions_are_justified():
    # Every inline allow[] in the tree carries a reason after the
    # bracket, so `git grep 'repro: allow'` reads as an audit log.
    import re

    pattern = re.compile(r"#\s*repro:\s*allow\[[A-Za-z0-9_,\s]+\](.*)")
    bare = []
    for path in sorted(SRC.rglob("*.py")):
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = pattern.search(line)
            if match and not match.group(1).strip():
                bare.append(f"{path}:{number}")
    assert not bare, f"suppressions without a reason: {bare}"
