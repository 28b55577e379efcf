"""Tests for the analyzer's file expansion: which files a lint run
reads, and in which order."""

import pytest

from repro.analysis.core import LintUsageError, iter_python_files


class TestIterPythonFiles:
    def test_overlapping_arguments_deduplicate(self, tmp_path):
        pkg = tmp_path / "pkg"
        sub = pkg / "sub"
        sub.mkdir(parents=True)
        (pkg / "a.py").write_text("A = 1\n", encoding="utf-8")
        (sub / "b.py").write_text("B = 1\n", encoding="utf-8")
        once = iter_python_files([str(pkg)])
        twice = iter_python_files([str(pkg), str(sub), str(sub / "b.py")])
        assert [p.name for p in once] == [p.name for p in twice] == [
            "a.py", "b.py",
        ]

    def test_order_is_deterministic_regardless_of_arg_order(self, tmp_path):
        for name in ("z.py", "a.py", "m.py"):
            (tmp_path / name).write_text("X = 1\n", encoding="utf-8")
        forward = iter_python_files(
            [str(tmp_path / n) for n in ("z.py", "a.py", "m.py")]
        )
        reverse = iter_python_files(
            [str(tmp_path / n) for n in ("m.py", "a.py", "z.py")]
        )
        assert forward == reverse
        assert [p.name for p in forward] == ["a.py", "m.py", "z.py"]

    def test_missing_path_raises_usage_error(self):
        with pytest.raises(LintUsageError):
            iter_python_files(["no/such/path.py"])
