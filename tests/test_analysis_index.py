"""Tests for pass 1 of the whole-program analyzer: the ProjectIndex,
the conservative call graph, and the file-expansion driver.

The index is what the cross-module rules (PAR001-2) stand on; these
tests pin its resolution semantics -- qualified names, import aliases,
package re-export fallback, and the deliberate over-approximation of
dynamic dispatch.
"""

import textwrap

import pytest

from repro.analysis.core import LintUsageError, ModuleContext, iter_python_files
from repro.analysis.index import ProjectIndex, module_dotted_name


def _module(path, source):
    return ModuleContext(path, textwrap.dedent(source))


def _project(*modules):
    return ProjectIndex([_module(path, source) for path, source in modules])


class TestModuleDottedName:
    def test_src_anchored(self):
        assert module_dotted_name("src/repro/rl/dense.py") == "repro.rl.dense"

    def test_package_init_maps_to_package(self):
        assert module_dotted_name("src/repro/evalx/__init__.py") == (
            "repro.evalx"
        )

    def test_repro_anchored_without_src(self):
        assert module_dotted_name("repro/sim/kernel.py") == "repro.sim.kernel"

    def test_unanchored_falls_back_to_stem(self):
        assert module_dotted_name("/tmp/elsewhere/fixture.py") == "fixture"


class TestSymbolTable:
    def test_functions_methods_and_nesting(self):
        project = _project((
            "src/repro/pkg/mod.py",
            """
            def top():
                def inner():
                    return 1
                return inner

            class Box:
                def get(self):
                    return 1
            """,
        ))
        top = project.functions[("src/repro/pkg/mod.py", "top")]
        inner = project.functions[("src/repro/pkg/mod.py", "top.inner")]
        get = project.functions[("src/repro/pkg/mod.py", "Box.get")]
        assert top.is_module_level
        assert inner.is_nested and not inner.is_module_level
        assert get.owner_class == "Box" and not get.is_module_level
        box = project.classes[("src/repro/pkg/mod.py", "Box")]
        assert box.methods["get"] is get

    def test_conditionally_defined_functions_index(self):
        project = _project((
            "src/repro/pkg/mod.py",
            """
            try:
                def fast():
                    return 1
            except ImportError:
                def fast():
                    return 2
            """,
        ))
        assert ("src/repro/pkg/mod.py", "fast") in project.functions

    def test_import_aliases(self):
        project = _project((
            "src/repro/pkg/mod.py",
            """
            import numpy as np
            from repro.evalx.parallel import Cell as C, run_cells
            """,
        ))
        symbols = project.symbols["src/repro/pkg/mod.py"]
        assert symbols.modules["np"] == "numpy"
        assert symbols.imported_from("C") == (
            "repro.evalx.parallel", "Cell",
        )
        assert symbols.imported_from("run_cells") == (
            "repro.evalx.parallel", "run_cells",
        )

    def test_module_member_reexport_fallback(self):
        project = _project(
            (
                "src/repro/pkg/impl.py",
                """
                def work():
                    return 1
                """,
            ),
        )
        # Asked for repro.pkg.work (the package re-export), resolved
        # to the defining submodule.
        info = project.module_member("repro.pkg", "work")
        assert info is not None and info.qualname == "work"


class TestCallGraph:
    def test_same_module_and_import_resolution(self):
        project = _project(
            (
                "src/repro/pkg/helpers.py",
                """
                def shared():
                    return 1
                """,
            ),
            (
                "src/repro/pkg/mod.py",
                """
                from repro.pkg.helpers import shared

                def local():
                    return 2

                def caller():
                    return local() + shared()
                """,
            ),
        )
        graph = project.callgraph()
        (site_a, site_b) = sorted(
            graph.sites[("src/repro/pkg/mod.py", "caller")],
            key=lambda s: s.node.col_offset,
        )
        assert [c.qualname for c in site_a.callees] == ["local"]
        assert [c.qualname for c in site_b.callees] == ["shared"]

    def test_self_method_resolution(self):
        project = _project((
            "src/repro/pkg/mod.py",
            """
            class Box:
                def outer(self):
                    return self.inner()

                def inner(self):
                    return 1
            """,
        ))
        graph = project.callgraph()
        (site,) = graph.sites[("src/repro/pkg/mod.py", "Box.outer")]
        assert [c.qualname for c in site.callees] == ["Box.inner"]

    def test_dynamic_dispatch_over_approximates_to_methods(self):
        project = _project(
            (
                "src/repro/pkg/a.py",
                """
                class TableA:
                    def flush(self):
                        return 1
                """,
            ),
            (
                "src/repro/pkg/b.py",
                """
                def flush():
                    return "module level, must not match"

                def caller(obj):
                    return obj.flush()
                """,
            ),
        )
        graph = project.callgraph()
        (site,) = graph.sites[("src/repro/pkg/b.py", "caller")]
        assert [c.qualname for c in site.callees] == ["TableA.flush"]

    def test_reachable_from_is_transitive_and_sorted(self):
        project = _project((
            "src/repro/pkg/mod.py",
            """
            def leaf():
                return 1

            def mid():
                return leaf()

            def root():
                return mid()

            def unrelated():
                return 0
            """,
        ))
        graph = project.callgraph()
        root = project.functions[("src/repro/pkg/mod.py", "root")]
        names = [f.qualname for f in graph.reachable_from([root])]
        assert names == ["leaf", "mid", "root"]


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
