"""VER001 fixtures: only ``repro/rl/dense.py`` touches Q-table storage.

``DenseQTable``'s write primitives thaw a frozen table, write, mark the
cell written and bump ``version`` together, so a learner that goes
through them cannot serve stale memoized predictions or write into a
read-only shared buffer.  VER001 keeps it that way: outside the owner
module, any access to the table's private storage attributes and any
store to ``.version`` is a finding.

The load-bearing fixtures are the shapes the rule exists to stop -- the
fused learner write without a version bump, the unguarded write to a
frozen table and the ``flat = q._flat`` alias -- each flagged in a
learner module and clean inside the owner module.
"""

import textwrap

import pytest

from repro.analysis import lint_source
from repro.analysis.core import ModuleContext, lint_modules

LEARNER = "src/repro/rl/tdlambda.py"
OWNER = "src/repro/rl/dense.py"

#: The fused dense learner path without a version bump: buffer hoisted
#: to a local, element writes in both branches.
FUSED_WRITE_WITHOUT_BUMP = """
class TDLambdaQLearner:
    def observe(self, q, off, target, alpha, replacing):
        flat = q._flat
        if replacing:
            flat[off] = target
        else:
            flat[off] = flat[off] + alpha * target
"""

#: An element write with no copy-on-write thaw before it: raises on a
#: read-only view at best, corrupts a shared policy at worst.
UNGUARDED_FROZEN_WRITE = """
class SarsaLambdaLearner:
    def poke(self, q, off):
        q._flat[off] = 1.0
        q._written[off] = 1
        q.version += 1
"""

#: The write reaches the live buffer through a local alias.
ALIAS_WRITE = """
def decay(q, off, gamma):
    flat = q._flat
    flat[off] *= gamma
"""


def ver_findings(source, path=LEARNER):
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
    """The exact shape of the stale-version bug the rule was made for."""

    def test_dense_fused_write_without_bump_flagged(self):
        found = ver_findings(FUSED_WRITE_WITHOUT_BUMP)
        assert [(f.rule, f.line) for f in found] == [("VER001", 4)]
        assert "_flat" in found[0].message


class TestOwnership:
    @pytest.mark.parametrize(
        "source",
        [FUSED_WRITE_WITHOUT_BUMP, UNGUARDED_FROZEN_WRITE, ALIAS_WRITE],
        ids=["fused-write-without-bump", "unguarded-frozen-write", "alias"],
    )
    def test_storage_access_flagged_in_learner_clean_in_owner(self, source):
        assert ver_findings(source, LEARNER)
        assert ver_findings(source, OWNER) == []

    def test_unguarded_frozen_write_flags_every_access(self):
        found = ver_findings(UNGUARDED_FROZEN_WRITE)
        assert [f.line for f in found] == [4, 5, 6]
        assert "version" in found[2].message

    @pytest.mark.parametrize(
        "attr",
        ["_flat", "_written", "_frozen", "_thaw", "_grow", "_grow_count",
         "_g0", "_g0_view"],
    )
    def test_every_private_attribute_is_owned(self, attr):
        found = ver_findings(f"def peek(q):\n    return q.{attr}\n")
        assert [f.rule for f in found] == ["VER001"]
        assert attr in found[0].message

    def test_thaw_guard_outside_owner_flagged(self):
        found = ver_findings(
            """
            def fused(q, off, v):
                if q._frozen:
                    q._thaw()
            """
        )
        assert [f.line for f in found] == [3, 4]

    def test_version_read_is_allowed(self):
        # The memoized greedy policies revalidate against it.
        found = ver_findings(
            """
            class Memo:
                def fresh(self, q):
                    return self._version == q.version
            """
        )
        assert found == []

    def test_suffix_match_is_the_owner_not_a_sibling(self):
        found = ver_findings(ALIAS_WRITE, "src/repro/rl/dense_helpers.py")
        assert [f.rule for f in found] == ["VER001"]

    def test_guarded_bumping_learner_shape_flagged_outside_owner(self):
        # A learner that grows, thaws, writes and bumps by hand does
        # everything the write primitives do, and is still a finding:
        # only the owner module may touch the storage.
        source = """
            def observe(q, off, target, alpha, replacing):
                q._grow()
                if q._frozen:
                    q._thaw()
                flat = q._flat
                if replacing:
                    flat[off] = target
                else:
                    flat[off] = flat[off] + alpha * target
                q.version += 1
            """
        found = ver_findings(source)
        assert [f.line for f in found] == [3, 4, 5, 6, 11]
        assert "version" in found[-1].message
        assert ver_findings(source, OWNER) == []


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

    def test_helper_with_one_unguarded_caller_flagged(self):
        # The write in the helper is flagged whatever its callers do;
        # the guarded caller's own thaw is a finding too.
        found = ver_findings(
            """
            class T:
                def _store(self, off, v):
                    self._flat[off] = v

                def safe(self, off, v):
                    if self._frozen:
                        self._thaw()
                    self._store(off, v)

                def unsafe(self, off, v):
                    self._store(off, v)
            """
        )
        assert [f.line for f in found] == [4, 7, 8]
        assert "_flat" in found[0].message


class TestExemptIdioms:
    def test_whole_attribute_rebind_is_exempt(self):
        # DenseQTable.copy() inside the owner module installs fresh
        # buffers on the clone.
        found = ver_findings(
            """
            class DenseQTable:
                def copy(self):
                    clone = DenseQTable.__new__(DenseQTable)
                    clone._flat = self._flat[:]
                    return clone
            """,
            OWNER,
        )
        assert found == []

    def test_fresh_buffer_rebind_is_exempt_only_in_owner(self):
        # What _thaw does: install fresh private buffers.
        source = """
            class T:
                def refresh(self, n):
                    self._flat = [0.0] * n
                    self._written = bytearray(n)
            """
        assert ver_findings(source, OWNER) == []
        found = ver_findings(source)
        assert [f.line for f in found] == [4, 5]

    def test_fresh_local_list_is_not_an_alias(self):
        # A local list that merely shares a name with the buffer is
        # not table storage; writing into it is nobody's business.
        found = ver_findings(
            """
            def rebuild(n, fill, values):
                flat = [fill] * n
                for i, v in enumerate(values):
                    flat[i] = v
                return flat
            """
        )
        assert found == []

    def test_direct_bump_after_sparse_write_is_clean(self):
        # A single keyed write, as DenseQTable.set does it.
        found = ver_findings(
            """
            class DenseQTable:
                def set(self, off, value):
                    self._flat[off] = value
                    self.version += 1
            """,
            OWNER,
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

    def test_mutating_method_call_on_parameter_buffer_flagged(self):
        found = ver_findings(
            """
            def extend(q, values):
                q._flat.extend(values)
            """
        )
        assert [(f.rule, f.line) for f in found] == [("VER001", 3)]

    def test_retired_sparse_buffer_is_not_versioned(self):
        # The dict-backed ``_q`` table lives only in the test oracles;
        # ``_q`` is not DenseQTable storage.
        found = ver_findings(
            """
            class Cache:
                def set(self, key, value):
                    self._q[key] = value
            """
        )
        assert found == []

    def test_augmented_write_through_alias_flagged(self):
        found = ver_findings(ALIAS_WRITE)
        assert [(f.rule, f.line) for f in found] == [("VER001", 3)]

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
            LEARNER,
            ["VER001"],
        )
        assert [f.suppressed for f in found] == [True]
