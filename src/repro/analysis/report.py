"""Rendering lint results for humans (text) and machines (JSON/SARIF).

The JSON document is versioned and schema-stable so CI and editor
integrations can consume it::

    {
      "version": 2,
      "files_checked": 121,
      "summary": {"findings": 0, "suppressed": 9, "baselined": 0},
      "findings": [
        {"path": "...", "line": 12, "column": 5, "rule": "DET001",
         "severity": "error", "message": "..."}
      ],
      "suppressed": [ ...same shape... ],
      "baselined": [ ...same shape... ]
    }

Version history: v1 had no ``baselined`` section/count; v2 adds
both.

``render_sarif`` emits SARIF 2.1.0 (the static-analysis interchange
format GitHub code scanning and most editors ingest): one ``run``
whose driver lists the registered rules, one ``result`` per finding,
inline-suppressed findings carried with ``suppressions[{"kind":
"inSource"}]`` and baselined ones marked ``baselineState:
"unchanged"`` so consumers can hide known debt.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.core import Finding, LintReport, resolve_rules

__all__ = [
    "finding_to_dict",
    "render_json",
    "render_sarif",
    "render_text",
    "report_to_dict",
    "sarif_to_dict",
]

JSON_VERSION = 2

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Lint severity -> SARIF result level.
_SARIF_LEVELS = {"error": "error", "warning": "warning"}


def finding_to_dict(finding: Finding) -> Dict[str, Any]:
    return {
        "path": finding.path,
        "line": finding.line,
        "column": finding.column,
        "rule": finding.rule,
        "severity": finding.severity,
        "message": finding.message,
    }


def report_to_dict(report: LintReport) -> Dict[str, Any]:
    return {
        "version": JSON_VERSION,
        "files_checked": report.files_checked,
        "summary": {
            "findings": len(report.active),
            "suppressed": len(report.suppressed),
            "baselined": len(report.baselined),
        },
        "findings": [finding_to_dict(f) for f in report.active],
        "suppressed": [finding_to_dict(f) for f in report.suppressed],
        "baselined": [finding_to_dict(f) for f in report.baselined],
    }


def render_json(report: LintReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def _sarif_result(finding: Finding) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": finding.rule,
        "level": _SARIF_LEVELS.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.column,
                    },
                }
            }
        ],
    }
    if finding.suppressed:
        result["suppressions"] = [{"kind": "inSource"}]
    elif finding.baselined:
        result["baselineState"] = "unchanged"
    return result


def sarif_to_dict(report: LintReport) -> Dict[str, Any]:
    rules = [
        {
            "id": rule.rule_id,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {
                "level": _SARIF_LEVELS.get(rule.severity, "warning"),
            },
        }
        for rule in resolve_rules()
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro/analysis"
                        ),
                        "rules": rules,
                    }
                },
                "results": [
                    _sarif_result(f) for f in report.findings
                ],
            }
        ],
    }


def render_sarif(report: LintReport) -> str:
    return json.dumps(sarif_to_dict(report), indent=2)


def render_text(report: LintReport) -> str:
    lines: List[str] = []
    for finding in report.active:
        lines.append(
            f"{finding.location}: {finding.rule} "
            f"{finding.severity}: {finding.message}"
        )
    baselined = (
        f"{len(report.baselined)} baselined, " if report.baselined else ""
    )
    lines.append(
        f"{len(report.active)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{baselined}"
        f"{report.files_checked} file(s) checked"
    )
    return "\n".join(lines)
