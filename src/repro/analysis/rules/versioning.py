"""VER001: only the dense RL module touches a Q-table's storage.

Two contracts guard every dense Q-table write.  The batched-inference
layer memoizes greedy policies and revalidates them against the
table's monotone ``version`` counter, so every write must bump it; and
the zero-copy restore serves tables over read-only shared buffers, so
every write must first thaw the table into private storage.  Both hold
by construction when one module owns the storage: ``DenseQTable``'s
write primitives (``add_at``, ``add_pairs``, ``set``) thaw, write,
mark the cell written and bump the version together, and the learners
reach the table only through its id-level API (``locate``,
``row_values``, ``value_at`` and those primitives).

The rule makes the ownership checkable one module at a time: outside
:data:`~repro.analysis.manifest.DENSE_OWNER_MODULE`, every access to
one of :data:`~repro.analysis.manifest.DENSE_PRIVATE_ATTRS` -- read,
write, alias or call -- is a finding, and so is every store to
``.version``.  A fused learner loop that writes the flat buffer and
forgets the bump (the stale-memoization bug class this rule was
written for) cannot be spelled outside the owner module at all.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis import manifest
from repro.analysis.core import Finding, ModuleContext, Rule, register

__all__ = ["DenseStorageOwnership"]


@register
class DenseStorageOwnership(Rule):
    rule_id = "VER001"
    severity = "error"
    description = (
        "only repro/rl/dense.py touches DenseQTable storage or stores "
        "`version`; everything else uses the id-level API"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        if module.posix_path.endswith(manifest.DENSE_OWNER_MODULE):
            return
        private = manifest.DENSE_PRIVATE_ATTRS
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in private:
                yield self.finding(
                    module,
                    node,
                    f"`{node.attr}` is DenseQTable storage, owned by "
                    f"{manifest.DENSE_OWNER_MODULE}; go through the "
                    "table's id-level API (locate/row_values/value_at/"
                    "add_at/add_pairs) so writes thaw and bump together",
                )
            elif node.attr == "version" and isinstance(node.ctx, ast.Store):
                yield self.finding(
                    module,
                    node,
                    "only the DenseQTable write primitives in "
                    f"{manifest.DENSE_OWNER_MODULE} bump `version`; a "
                    "bump elsewhere means a write bypassed them",
                )
