"""The artifact ledger: one JSON document per result, the directory is
the resume ledger.

Every resumable result in the program lives here — sweep tasks, chaos
runs and congest studies.  :data:`ARTIFACT_KINDS` names each **kind**'s
filename prefix, schema version and where its document stores its id::

    <out_dir>/<task_id>.json              kind "task"     id at task.id
    <out_dir>/chaos-<run_id>.json         kind "chaos"    id at run_id
    <out_dir>/congest-<run_id>.json       kind "congest"  id at run_id

A sweep task document looks like::

    {
      "schema": 1,
      "task":    {"id", "probe", "seed", "axes", "spec"},
      "status":  "ok" | "error",
      "values":  {metric: float, ...},          # ok only
      "error":   {"type", "message"},           # error only
      "timing":  {"wall_time_s", "attempts"},   # the only non-deterministic
                                                # fields in the document
      "metrics": {...}                          # worker registry snapshot
    }

Writes are atomic (:func:`repro.obs.export.write_json`: temp file +
``os.replace``), so a killed run can never leave a truncated artifact
that a resume would trust.

The trust contract (:func:`load_artifact`): a file is trusted only if it
parses to a dict, carries its kind's schema version, and embeds the id
its filename names.  Resume semantics: only ``status == "ok"`` documents
count as completed; **error artifacts re-run**, so re-running a sweep
retries exactly the failures.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro import obs
from repro.obs.export import write_json

__all__ = ["ARTIFACT_SCHEMA_VERSION", "ArtifactKind", "ARTIFACT_KINDS",
           "run_id", "artifact_path", "write_artifact", "load_artifact",
           "resume_or_compute", "completed_ids", "iter_artifacts",
           "PruneReport", "prune_artifacts"]

ARTIFACT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ArtifactKind:
    """How one kind of document is named, versioned and identified."""

    prefix: str                 #: filename prefix before the id
    schema: int                 #: schema version a trusted document carries
    id_path: tuple[str, ...]    #: keys leading to the embedded id


ARTIFACT_KINDS: dict[str, ArtifactKind] = {
    "task": ArtifactKind("", ARTIFACT_SCHEMA_VERSION, ("task", "id")),
    "chaos": ArtifactKind("chaos-", 1, ("run_id",)),
    "congest": ArtifactKind("congest-", 1, ("run_id",)),
}

#: (prefix, kind) for the prefixed kinds; a name matching none is a task.
_PREFIXED = tuple((k.prefix, name) for name, k in ARTIFACT_KINDS.items()
                  if k.prefix)


def run_id(spec: Any, config: Any) -> str:
    """Content hash identifying one (spec, config) chaos or congest run.

    Serialised with ``json.dumps`` defaults, unlike the compact sweep
    :func:`~repro.sweep.plan.task_hash`: each keeps its own bytes, so no
    existing id moves.
    """
    blob = json.dumps({"spec": spec.to_dict(), "config": config.to_dict()},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def artifact_path(out_dir: str, artifact_id: str, kind: str = "task") -> str:
    return os.path.join(out_dir,
                        f"{ARTIFACT_KINDS[kind].prefix}{artifact_id}.json")


def _named(path: str) -> tuple[str, str]:
    """The (kind, id) an artifact filename claims."""
    stem = os.path.splitext(os.path.basename(path))[0]
    for prefix, kind in _PREFIXED:
        if stem.startswith(prefix):
            return kind, stem[len(prefix):]
    return "task", stem


def _trusted(doc: dict[str, Any], kind: str, artifact_id: str) -> bool:
    spec = ARTIFACT_KINDS[kind]
    if doc.get("schema") != spec.schema:
        return False
    value: Any = doc
    for key in spec.id_path:
        if not isinstance(value, dict):
            return False
        value = value.get(key)
    return value == artifact_id


def _read(path: str) -> dict[str, Any] | None:
    """The parsed JSON object at ``path``, or ``None``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def write_artifact(out_dir: str, doc: dict[str, Any]) -> str:
    """Atomically persist a task document; returns the artifact path.

    ``write_json`` creates ``out_dir`` (nested) on demand and goes
    through a temp file + ``os.replace``.
    """
    return write_json(artifact_path(out_dir, doc["task"]["id"]), doc)


def load_artifact(path: str) -> dict[str, Any] | None:
    """The parsed artifact, or ``None`` if it is not a trustable one.

    The kind comes from the filename alone (no extra I/O per read).
    """
    doc = _read(path)
    if doc is None:
        return None
    kind, artifact_id = _named(path)
    return doc if _trusted(doc, kind, artifact_id) else None


def resume_or_compute(out_dir: str, kind: str, artifact_id: str,
                      compute: Callable[[], dict[str, Any]],
                      fresh: bool = False
                      ) -> tuple[dict[str, Any], str, bool]:
    """Resume a finished artifact or compute and write it.

    Returns ``(doc, path, resumed)``.  Only a trusted ``status == "ok"``
    document resumes; ``fresh=True`` ignores and overwrites any existing
    artifact.
    """
    path = artifact_path(out_dir, artifact_id, kind)
    if not fresh:
        doc = load_artifact(path)
        if doc is not None and doc.get("status") == "ok":
            obs.counter(f"ledger.{kind}.resumed").inc()
            return doc, path, True
    doc = compute()
    write_json(path, doc)
    obs.counter(f"ledger.{kind}.written").inc()
    return doc, path, False


def iter_artifacts(out_dir: str) -> Iterator[dict[str, Any]]:
    """Every trustable task artifact under ``out_dir``, sorted by task id."""
    if not os.path.isdir(out_dir):
        return
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json") and _named(name)[0] == "task":
            doc = load_artifact(os.path.join(out_dir, name))
            if doc is not None:
                yield doc


def completed_ids(out_dir: str) -> set[str]:
    """Task ids a resumed sweep may skip (``status == "ok"`` only)."""
    return {doc["task"]["id"] for doc in iter_artifacts(out_dir)
            if doc.get("status") == "ok"}


@dataclass
class PruneReport:
    """What :func:`prune_artifacts` found and removed."""

    scanned: int = 0       #: ``*.json`` files examined
    kept: int = 0          #: trustable non-error artifacts left alone
    errors: int = 0        #: ``status == "error"`` artifacts deleted
    stale: int = 0         #: off-schema / id-mismatched artifacts deleted
    unreadable: int = 0    #: unparseable files left alone (never delete blind)

    @property
    def removed(self) -> int:
        return self.errors + self.stale

    def counts_line(self) -> str:
        return (f"scanned: {self.scanned}  removed: {self.removed} "
                f"(errors: {self.errors}, stale: {self.stale})  "
                f"kept: {self.kept}  unreadable: {self.unreadable}")


def prune_artifacts(out_dir: str) -> PruneReport:
    """Delete dead ledger entries so long-lived services don't accrete them.

    Every file is judged as the kind its name claims.  Removes artifacts
    whose ``status == "error"`` (a re-run or a served request will retry
    them anyway) and *stale* ones — parseable JSON objects that fail the
    trust contract (wrong schema version for their kind, missing or
    filename-mismatched id).  Valid artifacts of every kind are kept.
    Files that are not parseable JSON objects at all are counted but
    **left in place**: they may not be ours, and deleting blind from a
    shared directory is how ledgers eat data.
    """
    report = PruneReport()
    if not os.path.isdir(out_dir):
        return report
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(out_dir, name)
        report.scanned += 1
        doc = _read(path)
        if doc is None:
            report.unreadable += 1
        elif not _trusted(doc, *_named(name)):
            os.remove(path)
            report.stale += 1
        elif doc.get("status") == "error":
            os.remove(path)
            report.errors += 1
        else:
            report.kept += 1
    return report
