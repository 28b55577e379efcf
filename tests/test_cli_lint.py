"""Regression tests for the ``repro lint`` CLI surface.

Exit-code contract: 0 clean, 1 findings, 2 usage error.  Runs the CLI
in-process through ``repro.cli.main`` so failures show real
tracebacks instead of a subprocess exit status.
"""

import json

import pytest

from repro.cli import main

DIRTY = (
    "import numpy as np\n"
    "\n"
    "def cell(now, deadline):\n"
    "    if now == deadline:\n"
    "        return np.random.default_rng(0)\n"
)


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY, encoding="utf-8")
    return path


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text("VALUE = 3\n", encoding="utf-8")
    return path


def test_clean_path_exits_zero(clean_file, capsys):
    assert main(["lint", str(clean_file)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_findings_exit_one_with_locations(dirty_file, capsys):
    assert main(["lint", str(dirty_file)]) == 1
    out = capsys.readouterr().out
    # np.random.default_rng plus the timestamp equality
    assert "DET001" in out and "DET004" in out
    assert f"{dirty_file}:5:" in out


def test_json_format(dirty_file, capsys):
    assert main(["lint", "--format", "json", str(dirty_file)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 2
    rules = {finding["rule"] for finding in document["findings"]}
    assert rules == {"DET001", "DET004"}


def test_rules_filter_limits_the_pack(dirty_file, capsys):
    # Filtering to DET001,DET002 must hide the DET004 finding.
    assert main(["lint", "--rules", "DET001,DET002", str(dirty_file)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "DET004" not in out


def test_rules_filter_can_make_a_dirty_file_pass(dirty_file):
    assert main(["lint", "--rules", "SIM001", str(dirty_file)]) == 0


def test_unknown_rule_is_usage_error(dirty_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--rules", "DET999", str(dirty_file)])
    assert excinfo.value.code == 2


def test_missing_path_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", str(tmp_path / "no_such_dir")])
    assert excinfo.value.code == 2


def test_suppressed_findings_do_not_fail(tmp_path, capsys):
    path = tmp_path / "allowed.py"
    path.write_text(
        "import numpy as np\n"
        "\n"
        "def cell():\n"
        "    return np.random.default_rng(0)  # repro: allow[DET001] fixture\n",
        encoding="utf-8",
    )
    assert main(["lint", str(path)]) == 0
    assert "1 suppressed" in capsys.readouterr().out


def test_rules_family_prefix_selects_family(dirty_file, capsys):
    # "DET" expands to every DET* rule: both findings survive.
    assert main(["lint", "--rules", "DET", str(dirty_file)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "DET004" in out


def test_rules_family_prefix_mixes_with_exact_ids(dirty_file, capsys):
    assert main(["lint", "--rules", "SIM,DET001", str(dirty_file)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "DET004" not in out


def test_unknown_family_usage_error_names_families(dirty_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--rules", "XYZ", str(dirty_file)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    for family in ("DET", "PERF", "SIM", "VER"):
        assert family in err


def test_retired_par_family_is_unknown(dirty_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--rules", "PAR", str(dirty_file)])
    assert excinfo.value.code == 2
    assert "PAR" in capsys.readouterr().err


def test_sarif_format_shape(dirty_file, capsys):
    assert main(["lint", "--format", "sarif", str(dirty_file)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    assert document["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    declared = {rule["id"] for rule in driver["rules"]}
    assert {"DET001", "DET004", "VER001", "SIM001"} <= declared
    assert not {"PAR001", "PAR002", "PAR003"} & declared
    results = run["results"]
    assert {result["ruleId"] for result in results} == {"DET001", "DET004"}
    for result in results:
        assert result["level"] in ("error", "warning")
        assert result["message"]["text"]
        (location,) = result["locations"]
        region = location["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        assert location["physicalLocation"]["artifactLocation"]["uri"]


def test_sarif_marks_inline_suppressions(tmp_path, capsys):
    path = tmp_path / "allowed.py"
    path.write_text(
        "import numpy as np\n"
        "\n"
        "def cell():\n"
        "    return np.random.default_rng(0)  # repro: allow[DET001] fixture\n",
        encoding="utf-8",
    )
    assert main(["lint", "--format", "sarif", str(path)]) == 0
    document = json.loads(capsys.readouterr().out)
    (result,) = document["runs"][0]["results"]
    assert result["suppressions"] == [{"kind": "inSource"}]


def test_write_baseline_then_lint_with_it_passes(dirty_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main([
        "lint", "--write-baseline", str(baseline), str(dirty_file),
    ]) == 0
    capsys.readouterr()
    # The dirty file fails plain lint but passes against its baseline.
    assert main(["lint", str(dirty_file)]) == 1
    capsys.readouterr()
    assert main([
        "lint", "--baseline", str(baseline), str(dirty_file),
    ]) == 0
    assert "2 baselined" in capsys.readouterr().out


def test_new_finding_fails_despite_baseline(dirty_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main([
        "lint", "--write-baseline", str(baseline), str(dirty_file),
    ]) == 0
    capsys.readouterr()
    dirty_file.write_text(
        dirty_file.read_text(encoding="utf-8")
        + "\nimport random\nEXTRA = random.Random(7)\n",
        encoding="utf-8",
    )
    assert main([
        "lint", "--baseline", str(baseline), str(dirty_file),
    ]) == 1
    out = capsys.readouterr().out
    # Only the new finding is active; the old two stay baselined.
    assert "1 finding(s)" in out and "2 baselined" in out


def test_baselined_findings_in_json_section(dirty_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main([
        "lint", "--write-baseline", str(baseline), str(dirty_file),
    ]) == 0
    capsys.readouterr()
    assert main([
        "lint", "--format", "json", "--baseline", str(baseline),
        str(dirty_file),
    ]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["baselined"] == 2
    assert document["findings"] == []
    assert {f["rule"] for f in document["baselined"]} == {
        "DET001", "DET004",
    }


def test_missing_baseline_file_is_usage_error(dirty_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--baseline", "no-such-baseline.json",
              str(dirty_file)])
    assert excinfo.value.code == 2


def test_overlapping_paths_do_not_double_report(dirty_file, capsys):
    parent = dirty_file.parent
    assert main(["lint", str(parent), str(dirty_file)]) == 1
    document_args = ["lint", "--format", "json", str(parent),
                     str(dirty_file)]
    capsys.readouterr()
    assert main(document_args) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["files_checked"] == 1
    assert len(document["findings"]) == 2
