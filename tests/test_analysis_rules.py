"""Fixture tests for the repro.analysis rule pack.

Each rule gets at least one failing fixture (the acceptance criterion
for the linter itself) and one passing fixture, plus tests for the
inline suppression syntax and the JSON report schema.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    UnknownRuleError,
    all_rule_ids,
    lint_paths,
    lint_source,
    render_json,
    resolve_rules,
)

ALL_RULES = ("DET001", "DET002", "DET003", "DET004",
             "SIM001", "SIM002", "PERF001", "VER001")


def findings_for(source, rule, path="repro/somewhere/module.py"):
    found = lint_source(textwrap.dedent(source), path, [rule])
    return [f for f in found if not f.suppressed]


class TestRegistry:
    def test_full_pack_registered(self):
        assert set(ALL_RULES) <= set(all_rule_ids())

    def test_family_prefix_selects_family(self):
        selected = {rule.rule_id for rule in resolve_rules(["DET"])}
        assert selected == {"DET001", "DET002", "DET003", "DET004"}

    def test_family_prefixes_combine_with_exact_ids(self):
        selected = {rule.rule_id for rule in resolve_rules(["SIM", "VER001"])}
        assert selected == {"SIM001", "SIM002", "VER001"}

    def test_unknown_family_names_valid_families(self):
        with pytest.raises(UnknownRuleError) as excinfo:
            resolve_rules(["NOPE"])
        message = str(excinfo.value)
        for family in ("DET", "PERF", "SIM", "VER"):
            assert family in message

    def test_unknown_rule_rejected(self):
        with pytest.raises(UnknownRuleError):
            resolve_rules(["DET999"])

    def test_rules_declare_metadata(self):
        for rule in resolve_rules():
            assert rule.rule_id
            assert rule.severity in ("error", "warning")
            assert rule.description


class TestDet001DirectRng:
    def test_flags_direct_default_rng(self):
        found = findings_for(
            """
            import numpy as np

            def cell(seed):
                return np.random.default_rng(seed)
            """,
            "DET001",
        )
        assert [f.rule for f in found] == ["DET001"]
        assert found[0].severity == "error"

    def test_flags_stdlib_random_import(self):
        assert findings_for("import random\n", "DET001")

    def test_flags_bare_generator_construction(self):
        found = findings_for(
            """
            from numpy.random import Generator, PCG64

            def make():
                return Generator(PCG64(3))
            """,
            "DET001",
        )
        # the import line plus both constructor calls
        assert len(found) == 3

    def test_allows_random_streams_usage(self):
        assert not findings_for(
            """
            from repro.sim.random import RandomStreams, seeded_generator

            def cell(streams: RandomStreams, seed):
                return streams.get("radio"), seeded_generator(seed)
            """,
            "DET001",
        )

    def test_exempts_the_rng_module_itself(self):
        source = """
            import numpy as np

            def seeded_generator(seed):
                return np.random.default_rng(seed)
            """
        assert not findings_for(source, "DET001", path="src/repro/sim/random.py")
        assert findings_for(source, "DET001", path="src/repro/evalx/x.py")


class TestDet002WallClock:
    def test_flags_time_time_call(self):
        found = findings_for(
            """
            import time

            def stamp():
                return time.time()
            """,
            "DET002",
        )
        assert [f.rule for f in found] == ["DET002"]

    def test_flags_datetime_now(self):
        assert findings_for(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            "DET002",
        )

    def test_flags_perf_counter_import(self):
        assert findings_for("from time import perf_counter\n", "DET002")

    def test_no_directory_is_exempt(self):
        source = """
            import time

            def measure():
                return time.perf_counter()
            """
        for path in ("src/repro/evalx/x.py", "tools/timing/x.py"):
            assert findings_for(source, "DET002", path=path), path

    def test_allows_kernel_clock(self):
        assert not findings_for(
            """
            def stamp(sim):
                return sim.now
            """,
            "DET002",
        )


class TestDet003UnorderedIteration:
    def test_flags_dict_values_iteration(self):
        found = findings_for(
            """
            from repro.sim.kernel import Simulator

            def boot(nodes):
                for node in nodes.values():
                    node.start()
            """,
            "DET003",
        )
        assert [f.rule for f in found] == ["DET003"]
        assert found[0].severity == "warning"

    def test_flags_set_literal_and_keys_in_comprehension(self):
        found = findings_for(
            """
            from repro.sim.kernel import Simulator

            def drain(table):
                order = [k for k in table.keys()]
                for uid in {3, 1, 2}:
                    order.append(uid)
                return order
            """,
            "DET003",
        )
        assert len(found) == 2

    def test_allows_sorted_and_ordered_wrappers(self):
        assert not findings_for(
            """
            from repro.sim.kernel import Simulator

            def boot(nodes):
                for uid in sorted(nodes.keys()):
                    nodes[uid].start()
                for node in list(nodes.values()):
                    node.stop()
            """,
            "DET003",
        )

    def test_out_of_scope_module_not_flagged(self):
        # No repro.sim / numpy import: the module neither schedules
        # kernel events nor draws randomness, so DET003 stays quiet.
        assert not findings_for(
            """
            def names(table):
                return [k for k in table.keys()]
            """,
            "DET003",
        )


class TestDet004TimestampEquality:
    def test_flags_equality_on_timestamp_names(self):
        found = findings_for(
            """
            def due(now, deadline):
                return now == deadline
            """,
            "DET004",
        )
        assert [f.rule for f in found] == ["DET004"]

    def test_flags_attribute_timestamps(self):
        assert findings_for(
            """
            def same(event, other):
                return event.time != other.time
            """,
            "DET004",
        )

    def test_allows_ordering_comparisons(self):
        assert not findings_for(
            """
            def due(now, deadline):
                return now >= deadline
            """,
            "DET004",
        )

    def test_allows_infinity_sentinel(self):
        assert not findings_for(
            """
            import math

            def unbounded(active_until):
                return active_until == float("inf") or active_until == math.inf
            """,
            "DET004",
        )


class TestSim001ProcessYields:
    def test_flags_non_directive_yield(self):
        found = findings_for(
            """
            from repro.sim.process import Timeout

            def firmware(period):
                while True:
                    yield Timeout(period)
                    yield 5
            """,
            "SIM001",
        )
        assert [f.rule for f in found] == ["SIM001"]

    def test_flags_bare_yield(self):
        assert findings_for(
            """
            from repro.sim.process import Wait

            def body(signal):
                payload = yield Wait(signal)
                yield
            """,
            "SIM001",
        )

    def test_allows_directive_only_bodies(self):
        assert not findings_for(
            """
            from repro.sim.process import Timeout, Wait

            def body(signal, directive):
                yield Timeout(1.0)
                payload = yield Wait(signal, timeout=5.0)
                yield directive
            """,
            "SIM001",
        )

    def test_plain_generators_are_not_process_bodies(self):
        # Never yields a directive -> utility generator, out of scope.
        assert not findings_for(
            """
            def numbers(n):
                for i in range(n):
                    yield i
            """,
            "SIM001",
        )


class TestSim002SnapshotPairing:
    def test_flags_capture_without_restore(self):
        found = findings_for(
            """
            class Node:
                def capture_block(self):
                    return ()
            """,
            "SIM002",
        )
        assert [f.rule for f in found] == ["SIM002"]
        assert "restore_block" in found[0].message

    def test_flags_bare_snapshot_without_restore(self):
        assert findings_for(
            """
            class Detector:
                def snapshot(self):
                    return ()
            """,
            "SIM002",
        )

    def test_allows_paired_methods(self):
        assert not findings_for(
            """
            class Source:
                def capture(self):
                    return ()

                def restore(self, state):
                    pass

                def snapshot_window(self):
                    return ()

                def restore_window(self, state):
                    pass
            """,
            "SIM002",
        )


class TestPerf001Slots:
    def test_flags_manifest_class_without_slots(self):
        found = findings_for(
            """
            class KofNDetector:
                def __init__(self):
                    self.k = 3
            """,
            "PERF001",
            path="src/repro/sensors/detector.py",
        )
        assert [f.rule for f in found] == ["PERF001"]

    def test_flags_manifest_drift(self):
        found = findings_for(
            "class SomethingElse:\n    pass\n",
            "PERF001",
            path="src/repro/sim/kernel.py",
        )
        assert found and "not found" in found[0].message

    def test_allows_explicit_slots(self):
        assert not findings_for(
            """
            class KofNDetector:
                __slots__ = ("k", "n")
            """,
            "PERF001",
            path="src/repro/sensors/detector.py",
        )

    def test_allows_dataclass_slots_true(self):
        assert not findings_for(
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Event:
                seq: int
            """,
            "PERF001",
            path="src/repro/sim/kernel.py",
        )

    def test_unlisted_modules_ignored(self):
        assert not findings_for(
            "class Anything:\n    pass\n",
            "PERF001",
            path="src/repro/evalx/tables.py",
        )


class TestSuppressions:
    SOURCE = """
        import numpy as np

        def cell(seed):
            return np.random.default_rng(seed)  # repro: allow[DET001] fixture
        """

    def test_same_line_comment_suppresses(self):
        found = lint_source(textwrap.dedent(self.SOURCE), "repro/x.py",
                            ["DET001"])
        assert len(found) == 1
        assert found[0].suppressed

    def test_other_rule_id_does_not_suppress(self):
        source = self.SOURCE.replace("allow[DET001]", "allow[DET002]")
        found = lint_source(textwrap.dedent(source), "repro/x.py", ["DET001"])
        assert len(found) == 1
        assert not found[0].suppressed

    def test_comma_separated_ids(self):
        source = """
            import numpy as np

            def cell(now, deadline):
                if now == deadline:  # repro: allow[DET004,DET001] fixture
                    return np.random.default_rng(0)  # repro: allow[DET001]
            """
        found = lint_source(textwrap.dedent(source), "repro/x.py",
                            ["DET001", "DET004"])
        assert found and all(f.suppressed for f in found)

    def test_comment_on_other_line_does_not_suppress(self):
        source = """
            import numpy as np

            # repro: allow[DET001] wrong line
            def cell(seed):
                return np.random.default_rng(seed)
            """
        found = lint_source(textwrap.dedent(source), "repro/x.py", ["DET001"])
        assert len(found) == 1
        assert not found[0].suppressed

    def test_multiline_statement_suppressed_from_any_line(self):
        # The finding anchors on the call's first line; the comment
        # sits on the closing-paren line two lines down.
        source = """
            import numpy as np

            def cell(seed):
                return np.random.default_rng(
                    seed,
                )  # repro: allow[DET001] fixture
            """
        found = lint_source(textwrap.dedent(source), "repro/x.py", ["DET001"])
        assert len(found) == 1
        assert found[0].line == 5
        assert found[0].suppressed

    def test_decorator_line_suppresses_def_finding(self):
        # SIM002 anchors on the decorated def; the allow[] sits on
        # the decorator line above it.
        source = """
            class Node:
                @property  # repro: allow[SIM002] restore handled externally
                def snapshot_state(self):
                    return self._state
            """
        found = lint_source(textwrap.dedent(source), "repro/x.py", ["SIM002"])
        assert len(found) == 1
        assert found[0].suppressed

    def test_def_line_suppresses_decorated_def_finding(self):
        source = """
            class Node:
                @property
                def snapshot_state(self):  # repro: allow[SIM002] external
                    return self._state
            """
        found = lint_source(textwrap.dedent(source), "repro/x.py", ["SIM002"])
        assert len(found) == 1
        assert found[0].suppressed

    def test_comment_inside_body_does_not_suppress_def(self):
        # A compound statement's span is its header, not its body: a
        # suppression buried in the function must not silence a
        # finding on the def line.
        source = """
            class Node:
                def snapshot_state(self):
                    return self._state  # repro: allow[SIM002] wrong scope
            """
        found = lint_source(textwrap.dedent(source), "repro/x.py", ["SIM002"])
        assert len(found) == 1
        assert not found[0].suppressed


class TestJsonSchema:
    def test_report_schema(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n\n"
            "def cell():\n"
            "    ok = np.random.default_rng(1)  # repro: allow[DET001] x\n"
            "    return np.random.default_rng(0)\n",
            encoding="utf-8",
        )
        report = lint_paths([str(bad)])
        document = json.loads(render_json(report))
        assert document["version"] == 2
        assert document["files_checked"] == 1
        assert document["summary"] == {
            "findings": 1, "suppressed": 1, "baselined": 0,
        }
        (finding,) = document["findings"]
        assert set(finding) == {"path", "line", "column", "rule",
                                "severity", "message"}
        assert finding["rule"] == "DET001"
        assert finding["line"] == 5
        (suppressed,) = document["suppressed"]
        assert suppressed["line"] == 4

    def test_clean_file_reports_empty_findings(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 3\n", encoding="utf-8")
        document = json.loads(render_json(lint_paths([str(clean)])))
        assert document["findings"] == []
        assert document["summary"]["findings"] == 0
