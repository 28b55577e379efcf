"""Shared-memory policy arena: publish once, serve every worker.

The fleet executor's wave 2 used to hand each worker nothing but a
cache *directory*; every shard then re-read its policies as JSON --
disk read, parse, re-intern, rebuild -- once per shard (and before
PR 10, once per *home*).  The arena removes the per-worker copy
entirely:

* the **parent** packs each distinct training's binary artifact
  (:mod:`repro.planning.binary`) into one
  :class:`multiprocessing.shared_memory.SharedMemory` segment,
  content-addressed by training cache key;
* a ``{cache key -> segment name}`` **registry** rides to the workers
  through the pool initializer
  (:class:`~repro.evalx.parallel.WorkerPool`), so cell payloads stay
  scalar and re-shardable;
* each **worker** attaches a segment at most once per process,
  decodes it zero-copy (NumPy views over ``SharedMemory.buf``) and
  memoizes the artifact, so N shards in one worker share one mapping
  and the kernel shares the physical pages across *all* workers.

Lifecycle: the parent owns every segment.  :meth:`PolicyArena.close`
unlinks them deterministically when the fleet run ends (success,
error or cancellation -- the executor closes in a ``finally``), and
an ``atexit`` hook backstops a parent that never reached close.  The
``resource_tracker`` needs exactly one piece of special handling:
:class:`PolicyArena` launches it eagerly in ``__init__`` so every
pool worker forks *after* it exists and inherits it.  From there one
tracker process serves the whole fork tree and its cache is a *set*,
so the parent's create and every worker attach collapse to a single
entry, the parent's ``unlink`` retires it, and a parent killed
before close leaves exactly one entry for the tracker to reap.
(Per-worker explicit unregisters would each race the others for
that single entry and spray ``KeyError`` tracebacks in the tracker;
workers forked before the tracker launches would each spin up a
private one that mis-reports the parent's segments as leaked.)

Segment names are deterministic SHA-256 digests of (arena tag, cache
key), so the registry can be computed -- and shipped to workers via
the pool initializer -- *before* wave 1 has produced any artifact.
"""

from __future__ import annotations

import atexit
import gc
import hashlib
import os
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional

from repro.planning.binary import (
    PolicyArtifact,
    PolicyArtifactError,
    read_policy_artifact,
)

__all__ = [
    "PolicyArena",
    "install_worker_registry",
    "installed_registry",
    "arena_artifact",
    "activate_local_arena",
    "deactivate_local_arena",
]


class PolicyArena:
    """Parent-side owner of the published policy segments.

    Create one per fleet run, :meth:`publish` each distinct
    training's packed artifact, then :meth:`close` when the run ends.
    ``close`` is idempotent, runs from the executor's ``finally`` and
    again from ``atexit`` as a backstop, and only ever acts in the
    creating process (a forked worker inheriting the object must not
    unlink the parent's segments).
    """

    __slots__ = ("tag", "_pid", "_segments", "_artifacts", "_closed")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self._pid = os.getpid()
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._artifacts: Dict[str, PolicyArtifact] = {}
        self._closed = False
        # Launch the resource tracker *now*, before the fleet's pool
        # forks any worker.  The tracker otherwise starts lazily at
        # the first ``register`` -- which is the parent's first
        # ``publish``, *after* wave 1 forked the workers -- leaving
        # each worker with ``_fd is None`` and spawning its own
        # private tracker on attach.  Those private trackers never
        # see the parent's ``unlink`` and mis-report every attached
        # segment as leaked at shutdown.  With the tracker running
        # pre-fork, the whole tree shares it and the set-dedup
        # lifecycle in the module docstring actually holds.
        resource_tracker.ensure_running()
        atexit.register(self.close)

    def segment_name(self, key: str) -> str:
        """Deterministic segment name for a training cache key.

        Pure function of (tag, key) so the worker registry can be
        built before any segment exists; short enough for the
        POSIX ``shm_open`` 31-char portability limit.
        """
        digest = hashlib.sha256(
            f"{self.tag}:{key}".encode("utf-8")
        ).hexdigest()
        return f"rpp{digest[:24]}"

    def publish(self, key: str, payload: bytes) -> None:
        """Copy ``payload`` into the segment addressed by ``key``."""
        if self._closed:
            raise ValueError("arena is closed")
        if key in self._segments:
            return
        name = self.segment_name(key)
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=len(payload)
            )
        except FileExistsError:
            # Leftover from a killed run with the same deterministic
            # name: reclaim it.
            stale = shared_memory.SharedMemory(name=name)
            stale.unlink()
            stale.close()
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=len(payload)
            )
        segment.buf[: len(payload)] = payload
        self._segments[key] = segment

    def artifact(self, key: str) -> Optional[PolicyArtifact]:
        """The in-process decoded artifact for ``key`` (parent side).

        Serves the ``jobs=1`` inline path: the parent is its own
        worker then, and reads straight from the segment it owns.
        """
        if self._closed:
            return None
        artifact = self._artifacts.get(key)
        if artifact is not None:
            return artifact
        segment = self._segments.get(key)
        if segment is None:
            return None
        try:
            artifact = read_policy_artifact(segment.buf)
        except PolicyArtifactError:
            return None
        self._artifacts[key] = artifact
        return artifact

    def close(self) -> None:
        """Unlink and drop every published segment (idempotent)."""
        if self._closed or os.getpid() != self._pid:
            # A forked child inheriting the arena (or its atexit hook)
            # must never unlink the parent's live segments.
            return
        self._closed = True
        atexit.unregister(self.close)
        # Artifact views must die before the mappings can unmap.
        self._artifacts.clear()
        segments = list(self._segments.values())
        self._segments.clear()
        lingering = []
        for segment in segments:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            try:
                segment.close()
            except BufferError:
                lingering.append(segment)
        if lingering:
            # Artifact views can sit in reference cycles (a caller's
            # object graph holding an artifact), so dropping the memo
            # above doesn't free them until the cycle collector runs.  The
            # segments are already unlinked; collect once so the
            # mappings can actually unmap now instead of spraying
            # BufferError from ``__del__`` at an arbitrary later GC.
            gc.collect()
            for segment in lingering:
                try:
                    segment.close()
                except BufferError:  # pragma: no cover - caller leak
                    pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PolicyArena(tag={self.tag!r}, "
            f"segments={len(self._segments)})"
        )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: ``{cache key -> segment name}`` installed by the pool initializer.
#: Mutated in place, never rebound: a module global rebound in a
#: worker changes that worker's copy only, never the parent's.
_WORKER_REGISTRY: Dict[str, str] = {}

#: Per-process attach memo: segment mapped and decoded at most once.
_ATTACHED: Dict[str, PolicyArtifact] = {}

#: Strong references keeping attached segments mapped for the worker's
#: lifetime (their artifacts hold views into the buffers).
_SEGMENTS: List[shared_memory.SharedMemory] = []

#: The parent's own arena while a fleet run is active (inline path).
_LOCAL_ARENAS: List[PolicyArena] = []


def install_worker_registry(registry: Dict[str, str]) -> None:
    """Pool-initializer entry point: adopt the parent's registry."""
    _WORKER_REGISTRY.clear()
    _WORKER_REGISTRY.update(registry)
    _ATTACHED.clear()


def installed_registry() -> Dict[str, str]:
    """A copy of the currently installed registry (test hook)."""
    return dict(_WORKER_REGISTRY)


def activate_local_arena(arena: PolicyArena) -> None:
    """Serve ``arena`` for in-process lookups (the ``jobs<=1`` path)."""
    _LOCAL_ARENAS.append(arena)


def deactivate_local_arena(arena: PolicyArena) -> None:
    """Stop serving ``arena`` in-process."""
    while arena in _LOCAL_ARENAS:
        _LOCAL_ARENAS.remove(arena)


def arena_artifact(key: str) -> Optional[PolicyArtifact]:
    """The shared-memory artifact for a training key, or ``None``.

    Resolution order: the parent's local arena (inline execution),
    the per-process attach memo, then a fresh attach via the
    installed registry.  Every failure path returns ``None`` so the
    caller can fall through to the canonical JSON document.
    """
    for arena in reversed(_LOCAL_ARENAS):
        artifact = arena.artifact(key)
        if artifact is not None:
            return artifact
    artifact = _ATTACHED.get(key)
    if artifact is not None:
        return artifact
    name = _WORKER_REGISTRY.get(key)
    if name is None:
        return None
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return None
    try:
        artifact = read_policy_artifact(segment.buf)
    except PolicyArtifactError:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - traceback holds a view
            pass
        return None
    _SEGMENTS.append(segment)
    _ATTACHED[key] = artifact
    return artifact
