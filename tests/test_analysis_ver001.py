"""VER001 fixtures: Q-buffer mutations must bump the version counter.

The load-bearing test is the PR 8 regression: the fused dense learner
paths wrote ``flat[off] = ...`` (with ``flat = q._flat`` hoisted)
without bumping ``q.version``, leaving memoized greedy policies stale
under online adaptation.  That bug shipped because no per-module rule
could connect the write to the contract; these fixtures pin that the
whole-program rule catches it -- direct, through a local alias, and
through a helper call one module away -- without flagging the
legitimate idioms (block-level bumps after branch writes, bump
helpers, whole-buffer rebinds in ``copy()``, fresh local lists in
``_grow``).
"""

import textwrap

from repro.analysis import lint_source
from repro.analysis.core import ModuleContext, lint_modules


def ver_findings(source, path="src/repro/rl/fixture.py"):
    found = lint_source(textwrap.dedent(source), path, ["VER001"])
    return [f for f in found if not f.suppressed]


def ver_findings_multi(*modules):
    contexts = [
        ModuleContext(path, textwrap.dedent(source))
        for path, source in modules
    ]
    return [
        f for f in lint_modules(contexts, ["VER001"]) if not f.suppressed
    ]


class TestPr8Regression:
    """The exact shape of the PR 8 stale-version bug."""

    def test_dense_fused_write_without_bump_flagged(self):
        # tdlambda's fused dense path as it was *before* the PR 8
        # fix: buffer hoisted to a local, element writes in both
        # branches, no version bump anywhere.
        found = ver_findings(
            """
            class TDLambdaQLearner:
                def observe(self, q, off, target, alpha, replacing):
                    flat = q._flat
                    if replacing:
                        flat[off] = target
                    else:
                        flat[off] = flat[off] + alpha * target
            """
        )
        assert [f.rule for f in found] == ["VER001", "VER001"]
        assert all("version" in f.message for f in found)

    def test_block_level_bump_after_branches_is_clean(self):
        # ... and as it is after the fix: one bump at block level
        # covers the writes in both branches.
        found = ver_findings(
            """
            class TDLambdaQLearner:
                def observe(self, q, off, target, alpha, replacing):
                    flat = q._flat
                    if replacing:
                        flat[off] = target
                    else:
                        flat[off] = flat[off] + alpha * target
                    q.version += 1
            """
        )
        assert found == []

    def test_bump_in_only_one_branch_still_flagged(self):
        found = ver_findings(
            """
            def fused(q, cond, off, v):
                flat = q._flat
                if cond:
                    flat[off] = v
                    q.version += 1
                else:
                    flat[off] = v
            """
        )
        assert len(found) == 1
        # The uncovered write is the else-branch one.
        assert found[0].line == 8


class TestHelperIndirection:
    def test_write_in_helper_with_non_bumping_caller_flagged(self):
        found = ver_findings_multi(
            (
                "src/repro/rl/helpers.py",
                """
                def apply_batch(q, offsets, values):
                    flat = q._flat
                    for off, v in zip(offsets, values):
                        flat[off] = v
                """,
            ),
            (
                "src/repro/rl/learner.py",
                """
                from repro.rl.helpers import apply_batch

                def train_step(q, offsets, values):
                    apply_batch(q, offsets, values)
                """,
            ),
        )
        assert [f.rule for f in found] == ["VER001"]
        assert found[0].path == "src/repro/rl/helpers.py"

    def test_caller_bump_after_helper_call_absolves(self):
        found = ver_findings_multi(
            (
                "src/repro/rl/helpers.py",
                """
                def apply_batch(q, offsets, values):
                    flat = q._flat
                    for off, v in zip(offsets, values):
                        flat[off] = v
                """,
            ),
            (
                "src/repro/rl/learner.py",
                """
                from repro.rl.helpers import apply_batch

                def train_step(q, offsets, values):
                    apply_batch(q, offsets, values)
                    q.version += 1
                """,
            ),
        )
        assert found == []

    def test_one_delinquent_caller_among_many_flags(self):
        found = ver_findings(
            """
            def apply(q, off, v):
                q._flat[off] = v

            def good(q):
                apply(q, 0, 1.0)
                q.version += 1

            def bad(q):
                apply(q, 0, 1.0)
            """
        )
        assert [f.rule for f in found] == ["VER001"]

    def test_bump_helper_call_counts_as_bump(self):
        found = ver_findings(
            """
            class Table:
                def _touch(self):
                    self.version += 1

                def set(self, k, v):
                    self._flat[k] = v
                    self._touch()
            """
        )
        assert found == []

    def test_recursive_cycle_stays_conservative(self):
        found = ver_findings(
            """
            def ping(q, n):
                q._flat[n] = 0.0
                if n:
                    pong(q, n - 1)

            def pong(q, n):
                ping(q, n)
            """
        )
        assert [f.rule for f in found] == ["VER001"]


class TestExemptIdioms:
    def test_whole_attribute_rebind_is_exempt(self):
        # DenseQTable.copy(): installs a fresh buffer, never mutates
        # the live one.
        found = ver_findings(
            """
            class Table:
                def copy(self):
                    clone = Table.__new__(Table)
                    clone._flat = self._flat[:]
                    return clone
            """
        )
        assert found == []

    def test_fresh_local_list_is_not_an_alias(self):
        # DenseQTable._grow(): `flat` is a brand-new list, not a view
        # of the live buffer; writing into it needs no bump.
        found = ver_findings(
            """
            class Table:
                def _grow(self, n, fill):
                    flat = [fill] * n
                    old = self._flat
                    for i, v in enumerate(old):
                        flat[i] = v
                    self._flat = flat
            """
        )
        assert found == []

    def test_direct_bump_after_sparse_write_is_clean(self):
        # A single keyed write, as DenseQTable.set does it.
        found = ver_findings(
            """
            class Table:
                def set(self, off, value):
                    self._flat[off] = value
                    self.version += 1
            """
        )
        assert found == []


class TestWriteShapes:
    def test_sparse_dict_write_without_bump_flagged(self):
        found = ver_findings(
            """
            class Table:
                def set(self, off, value):
                    self._flat[off] = value
            """
        )
        assert [f.rule for f in found] == ["VER001"]

    def test_mutating_method_call_on_buffer_flagged(self):
        found = ver_findings(
            """
            class Table:
                def merge(self, other):
                    self._flat.extend(other)
            """
        )
        assert [f.rule for f in found] == ["VER001"]

    def test_retired_sparse_buffer_is_not_versioned(self):
        # The dict-backed ``_q`` table now lives only in the test
        # oracles; the manifest no longer treats ``_q`` as a Q buffer.
        found = ver_findings(
            """
            class Cache:
                def set(self, key, value):
                    self._q[key] = value
            """
        )
        assert found == []

    def test_augmented_write_through_alias_flagged(self):
        found = ver_findings(
            """
            def decay(q, off, gamma):
                flat = q._flat
                flat[off] *= gamma
            """
        )
        assert [f.rule for f in found] == ["VER001"]

    def test_unrelated_attribute_writes_ignored(self):
        found = ver_findings(
            """
            class Other:
                def set(self, k, v):
                    self._cache[k] = v
                    self._pairs.append((k, v))
            """
        )
        assert found == []

    def test_suppression_applies(self):
        found = lint_source(
            textwrap.dedent(
                """
                def poke(q, off, v):
                    q._flat[off] = v  # repro: allow[VER001] test fixture
                """
            ),
            "src/repro/rl/fixture.py",
            ["VER001"],
        )
        assert [f.suppressed for f in found] == [True]
