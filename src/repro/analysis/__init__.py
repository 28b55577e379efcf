"""Static analysis enforcing CoReDA's determinism and sim-safety rules.

The reproduction's headline guarantee -- byte-identical experiment
output across seeds, worker counts and sampling batch sizes -- is a
*coding discipline*, not a property any one test can prove.  This
package enforces that discipline structurally: an AST rule pack
(:mod:`repro.analysis.rules`) checked by ``repro lint`` and by the
tier-1 gate ``tests/test_lint_clean.py``.

Programmatic use::

    from repro.analysis import lint_paths
    from repro.analysis.report import render_text

    report = lint_paths(["src/repro"])
    assert not report.active, render_text(report)

Policy (which files, which classes, which names) lives in
:mod:`repro.analysis.manifest`; suppression syntax and the framework
itself in :mod:`repro.analysis.core`.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.core import (
    Finding,
    LintReport,
    LintUsageError,
    ModuleContext,
    Rule,
    UnknownRuleError,
    all_rule_ids,
    iter_python_files,
    lint_paths,
    lint_source,
    register,
    resolve_rules,
    rule_families,
)
from repro.analysis.report import render_json, render_sarif, render_text

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "LintUsageError",
    "ModuleContext",
    "Rule",
    "UnknownRuleError",
    "all_rule_ids",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "resolve_rules",
    "rule_families",
]
