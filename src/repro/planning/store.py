"""Policy persistence: save, restore and cache trained policies.

A deployed reminder system restarts (power cuts, maintenance) without
re-collecting 120 training episodes.  The store serializes a trained
Q-table -- states are ⟨previous, current⟩ StepID pairs, actions are
⟨ToolID, level⟩ prompts -- as a small JSON document, versioned and
validated against the target ADL on load.

The same document format backs :class:`PolicyCache`, a
content-addressed on-disk cache used by the experiment harness: the
key is a SHA-256 over the ADL name, the routine, the learner and its
hyper-parameters, the training-set size and the RNG seed, so two
sweeps that would train byte-identical Q-tables share one cache
entry and the second one skips retraining entirely
(:func:`train_routine_cached`).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.adl import ADL, ReminderLevel, Routine
from repro.core.config import PlanningConfig
from repro.core.errors import CoReDAError
from repro.planning.action import PromptAction, action_space
from repro.planning.binary import (
    PolicyArtifact,
    pack_policy_artifact,
    read_policy_artifact,
)
from repro.planning.predictor import NextStepPredictor
from repro.planning.state import PlanningState
from repro.planning.trainer import LearningCurve, RoutineTrainer, TrainingResult
from repro.rl.convergence import convergence_iteration
from repro.rl.dense import DenseQTable
from repro.rl.dyna import DynaQLearner
from repro.sim.random import seeded_generator

__all__ = [
    "save_predictor",
    "load_predictor",
    "FORMAT_VERSION",
    "ARTIFACT_SUFFIX",
    "PolicyCache",
    "CachedTraining",
    "training_cache_key",
    "training_document",
    "curve_from_document",
    "predictor_from_document",
    "training_from_artifact",
    "train_routine_cached",
]

#: Bump when the on-disk layout changes incompatibly.
FORMAT_VERSION = 1

#: Extension of the packed binary sidecar written next to each JSON
#: document (see :mod:`repro.planning.binary`).  The JSON document
#: stays canonical; the sidecar is a pure serving optimization and
#: every reader falls back to JSON when it is missing or undecodable.
ARTIFACT_SUFFIX = ".qbin"


def _entries_from_qtable(q: DenseQTable) -> List[dict]:
    """The Q-table's known pairs as sorted, JSON-ready entries."""
    entries = []
    for (state, action), value in sorted(
        ((key, q.value(*key)) for key in q.known_pairs()),
        key=lambda item: repr(item[0]),
    ):
        entries.append(
            {
                "previous": int(state.previous),
                "current": int(state.current),
                "tool_id": int(action.tool_id),
                "level": action.level.value,
                "q": float(value),
            }
        )
    return entries


def _qtable_from_document(document: dict, adl: ADL, source: str) -> DenseQTable:
    """Rebuild the Q-table of ``document``, validated against ``adl``.

    The entries are written in repr order regardless of how the
    source table interned its states, so a document restores to the
    same values whatever table wrote it.
    """
    q = DenseQTable(float(document.get("initial_q", 0.0)))
    for entry in document["entries"]:
        tool_id = int(entry["tool_id"])
        if not adl.has_step(tool_id):
            raise CoReDAError(
                f"policy {source} prompts unknown tool {tool_id} "
                f"for ADL {adl.name!r}"
            )
        state = PlanningState(int(entry["previous"]), int(entry["current"]))
        action = PromptAction(tool_id, ReminderLevel(entry["level"]))
        q.set(state, action, float(entry["q"]))
    return q


def save_predictor(
    predictor: NextStepPredictor,
    path: Union[str, Path],
    adl_name: str,
) -> None:
    """Write ``predictor``'s Q-table to ``path`` as JSON."""
    document = {
        "format": FORMAT_VERSION,
        "adl": adl_name,
        "initial_q": predictor.q.initial_value,
        "converged": predictor.converged,
        "entries": _entries_from_qtable(predictor.q),
    }
    Path(path).write_text(json.dumps(document, indent=2), encoding="utf-8")


def load_predictor(path: Union[str, Path], adl: ADL) -> NextStepPredictor:
    """Restore a predictor previously written by :func:`save_predictor`.

    Raises :class:`CoReDAError` on version mismatch, on an ADL-name
    mismatch, or when an entry references a tool the ADL does not
    have -- a stale policy file must never silently drive prompts for
    the wrong deployment.
    """
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if document.get("format") != FORMAT_VERSION:
        raise CoReDAError(
            f"policy file {path} has format {document.get('format')}, "
            f"expected {FORMAT_VERSION}"
        )
    if document.get("adl") != adl.name:
        raise CoReDAError(
            f"policy file {path} was trained for ADL {document.get('adl')!r}, "
            f"not {adl.name!r}"
        )
    q = _qtable_from_document(document, adl, f"file {path}")
    return NextStepPredictor(
        q, action_space(adl), converged=bool(document.get("converged", False))
    )


# ---------------------------------------------------------------------------
# Content-addressed training cache
# ---------------------------------------------------------------------------


def training_cache_key(
    adl_name: str,
    routine_ids: Sequence[int],
    config: PlanningConfig,
    rng_seed: int,
    episodes: int,
    learner: Sequence[object] = ("tdlambda-q",),
) -> str:
    """Content address for one training run.

    Everything a :class:`~repro.planning.trainer.RoutineTrainer` run
    depends on goes into the hash: the ADL, the routine, every
    planning hyper-parameter, the learner kind (and its extra knobs),
    the number of replayed episodes and the RNG seed.  Convergence
    *criteria* are deliberately excluded -- they are recomputed from
    the cached curve, so sweeps asking different criteria of the same
    training still share an entry.
    """
    payload = {
        "format": FORMAT_VERSION,
        "adl": adl_name,
        "routine": [int(step) for step in routine_ids],
        "config": asdict(config),
        "learner": list(learner),
        "episodes": int(episodes),
        "seed": int(rng_seed),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def training_document(result: TrainingResult, adl_name: str) -> dict:
    """Serialize a full training run (policy + learning curve)."""
    return {
        "format": FORMAT_VERSION,
        "adl": adl_name,
        "routine": [int(step) for step in result.routine.step_ids],
        "initial_q": result.learner.q.initial_value,
        "entries": _entries_from_qtable(result.learner.q),
        "curve": {
            "behaviour": [float(v) for v in result.curve.behaviour_accuracy],
            "smoothed": [float(v) for v in result.curve.smoothed_accuracy],
            "greedy": [float(v) for v in result.curve.greedy_accuracy],
            "minimal": [float(v) for v in result.curve.minimal_fraction],
        },
    }


def curve_from_document(document: dict) -> LearningCurve:
    """Rebuild the learning curve stored by :func:`training_document`."""
    curve = document["curve"]
    return LearningCurve(
        behaviour_accuracy=list(curve["behaviour"]),
        smoothed_accuracy=list(curve["smoothed"]),
        greedy_accuracy=list(curve["greedy"]),
        minimal_fraction=list(curve["minimal"]),
    )


def predictor_from_document(
    document: dict,
    adl: ADL,
    converged: bool = True,
) -> NextStepPredictor:
    """Rebuild a predictor from a cached training document."""
    q = _qtable_from_document(document, adl, f"document for {adl.name!r}")
    return NextStepPredictor(q, action_space(adl), converged=converged)


class PolicyCache:
    """A directory of training documents addressed by content key.

    Safe under concurrent writers (the parallel runner's worker
    processes): documents are written to a temporary file named after
    the writing process and moved into place atomically, and two
    workers racing on the same key write identical bytes anyway.  A
    temp is left behind only by a writer that died mid-put;
    :meth:`sweep_stale_temps` removes those, and never a live
    writer's.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def sweep_stale_temps(self) -> None:
        """Remove temp files left behind by writers that died mid-put.

        A temp is named ``.tmp-<pid>-*``; one whose process is still
        alive belongs to a live writer and is kept.  Runs call this
        once, in the parent, before their first wave.
        """
        for stale in sorted(self.root.glob(".tmp-*")):
            if _writer_alive(stale.name):
                continue
            try:
                stale.unlink()
            except OSError:
                pass

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def artifact_path_for(self, key: str) -> Path:
        """Where ``key``'s binary sidecar lives (if it exists)."""
        return self.root / f"{key}{ARTIFACT_SUFFIX}"

    def get(self, key: str) -> Optional[dict]:
        """The cached document for ``key``, or ``None`` (a missing or
        unreadable entry counts as a miss)."""
        try:
            document = json.loads(
                self.path_for(key).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return document

    def get_artifact(
        self, key: str, adl: Optional[ADL] = None
    ) -> Optional[PolicyArtifact]:
        """The ``mmap``-backed binary artifact for ``key``, or ``None``.

        Success counts as a cache hit (the training *was* served from
        this cache); every failure -- missing sidecar, truncation,
        corruption, ADL mismatch -- returns ``None`` **without**
        counting, so the caller's JSON fallback does the accounting
        exactly once per lookup.
        """
        path = self.artifact_path_for(key)
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except (OSError, ValueError):
            return None
        try:
            artifact = read_policy_artifact(mapped)
        except CoReDAError:
            try:
                mapped.close()
            except BufferError:
                # The in-flight exception's traceback still references
                # a view of the map; the GC closes it once that frees.
                pass
            return None
        if adl is not None and not artifact.matches(adl):
            return None
        self.hits += 1
        return artifact

    def put(
        self,
        key: str,
        document: dict,
        actions: Optional[Sequence[PromptAction]] = None,
    ) -> None:
        """Store ``document`` under ``key`` (atomic, last write wins).

        With ``actions`` (the deployment's action space), a packed
        binary sidecar is written next to the document so later
        readers can serve the policy without parsing; the sidecar
        uses the same atomic temp-and-rename protocol.
        """
        self._write_atomic(self.path_for(key), json.dumps(document).encode("utf-8"))
        if actions is not None:
            blob = pack_policy_artifact(document, actions)
            self._write_atomic(self.artifact_path_for(key), blob)

    def _write_atomic(self, path: Path, blob: bytes) -> None:
        # The ``.part`` suffix keeps in-flight temps out of ``*.json``
        # globs (pathlib's ``*`` matches a leading dot, so a crashed
        # writer's ``.tmp-*.json`` leftover used to inflate __len__).
        fd, tmp = tempfile.mkstemp(
            dir=str(self.root), prefix=f".tmp-{os.getpid()}-", suffix=".part"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def stats(self) -> Tuple[int, int]:
        """This process's ``(hits, misses)`` counters.

        The counters are per-process by nature; parallel runners must
        ship them back from each worker alongside the cell results and
        sum them (see ``repro.fleet``) -- reading the parent's cache
        object after a parallel run reports only the parent's lookups.
        """
        return self.hits, self.misses

    def __len__(self) -> int:
        return sum(
            1
            for path in self.root.glob("*.json")
            if not path.name.startswith(".")
        )


def _writer_alive(name: str) -> bool:
    """Whether the process named in temp file ``name`` still runs."""
    pid = name[len(".tmp-"):].partition("-")[0]
    if not pid.isdigit() or int(pid) == 0:
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # alive, but another user's
    return True


@dataclass
class CachedTraining:
    """What :func:`train_routine_cached` hands back.

    Both the fresh-training and cache-hit paths are served through
    the same JSON document, so a cached sweep is byte-identical to an
    uncached one by construction.
    """

    curve: LearningCurve
    convergence: Dict[float, Optional[int]]
    document: Optional[dict]
    cache_hit: bool
    #: Set when the training was served from a binary artifact (the
    #: zero-copy restore); ``document`` is ``None`` then.
    artifact: Optional[PolicyArtifact] = None

    def predictor(self, adl: ADL, criterion: float = 0.95) -> NextStepPredictor:
        """Greedy predictor over the (restored) Q-table."""
        converged = self.convergence.get(criterion) is not None
        if self.artifact is not None:
            return self.artifact.predictor(adl, converged=converged)
        return predictor_from_document(
            self.document,
            adl,
            converged=converged,
        )


def training_from_artifact(
    artifact: PolicyArtifact,
    config: PlanningConfig,
    criteria: Sequence[float] = (0.95, 0.98),
) -> CachedTraining:
    """A :class:`CachedTraining` served from a binary artifact.

    Value-equal to the JSON path of :func:`train_routine_cached` on
    the same training: the curve round-trips as exact float64, so the
    convergence map recomputed here lands on the same iterations, and
    the predictor answers byte-identically (same Q values at the same
    ⟨state, action⟩ pairs, same repr-order tie-breaking).
    """
    curve = artifact.curve()
    convergence = {
        criterion: convergence_iteration(
            curve.smoothed_accuracy,
            criterion,
            patience=config.convergence_patience,
        )
        for criterion in criteria
    }
    return CachedTraining(
        curve=curve,
        convergence=convergence,
        document=None,
        cache_hit=True,
        artifact=artifact,
    )


def _build_learner(config: PlanningConfig, learner_spec):
    """Instantiate the learner named by ``learner_spec``.

    ``None`` selects the trainer's default TD(λ) Q-learner;
    ``("dyna", steps)`` the Dyna-Q fast-learning ablation learner.
    """
    if learner_spec is None:
        return None, ("tdlambda-q",)
    kind = learner_spec[0]
    if kind == "dyna":
        learner = DynaQLearner(config, learner_spec[1])
        return learner, ("dyna-q", learner.planning_steps)
    raise ValueError(f"unknown learner spec {learner_spec!r}")


def train_routine_cached(
    adl: ADL,
    routine_ids: Sequence[int],
    config: PlanningConfig,
    rng_seed: int,
    episodes: int,
    criteria: Sequence[float] = (0.95, 0.98),
    cache: Optional[PolicyCache] = None,
    learner_spec: Optional[Tuple] = None,
    key: Optional[str] = None,
) -> CachedTraining:
    """Train a routine -- or reuse the cached, identical training.

    The cache key covers every input the training depends on; on a
    hit the convergence map is recomputed from the cached smoothed
    curve with the same detector the trainer uses, so any criteria
    can be asked of a shared entry.  ``key`` passes in the
    :func:`training_cache_key` of these inputs when the caller
    already computed it.
    """
    routine_ids = [int(step) for step in routine_ids]
    learner, learner_key = _build_learner(config, learner_spec)
    if key is None:
        key = training_cache_key(
            adl.name, routine_ids, config, rng_seed, episodes,
            learner=learner_key,
        )
    document = cache.get(key) if cache is not None else None
    if document is None:
        trainer = RoutineTrainer(
            adl, config, learner=learner, rng=seeded_generator(rng_seed)
        )
        routine = Routine(adl, routine_ids)
        result = trainer.train(
            [list(routine_ids)] * episodes, routine=routine, criteria=criteria
        )
        document = training_document(result, adl.name)
        if cache is not None:
            cache.put(key, document, actions=action_space(adl))
        cache_hit = False
    else:
        cache_hit = True
    curve = curve_from_document(document)
    convergence = {
        criterion: convergence_iteration(
            curve.smoothed_accuracy,
            criterion,
            patience=config.convergence_patience,
        )
        for criterion in criteria
    }
    return CachedTraining(
        curve=curve,
        convergence=convergence,
        document=document,
        cache_hit=cache_hit,
    )
