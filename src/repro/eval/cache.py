"""On-disk result store for simulation tasks.

A full-scale sweep simulates 11 benchmarks x ~450K references each; an
interrupted or partially-selected run should not pay for the part that
already happened.  The cache maps a :class:`~repro.eval.jobs.Task` — a
figure pass or a §4.3 scenario — to its
:class:`~repro.eval.pipeline.BenchmarkEvents`, keyed by

* the task's ``config_hash()`` (workload source, SNC geometries, switch
  strategy, scale, seed — a trace-file source digests the file's
  contents), and
* a fingerprint of the simulation-relevant source modules,

so any config tweak *or* code change invalidates exactly the affected
entries.  Entries are plain JSON (one file per task) — safe to inspect,
diff, and delete; a corrupt or unreadable file degrades to a miss.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import itertools
import json
import os
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

from repro.eval.jobs import Task
from repro.eval.pipeline import BenchmarkEvents
from repro.secure.integrity import IntegrityEventCounts
from repro.timing.model import SNCEventCounts

#: Bump when the serialization layout changes.
CACHE_FORMAT = 2  # 2: BenchmarkEvents gained per-config integrity counts

#: Modules whose source determines simulation results (``jobs`` builds
#: each task's state machines and assembles its events).  Pricing-only code
#: (latency parameters, report formatting) deliberately stays out: a tweak
#: there reuses cached events, which is the whole point of splitting
#: simulation from pricing.
_FINGERPRINT_MODULES = (
    "repro.eval.jobs",
    "repro.eval.pipeline",
    "repro.eval.record",
    "repro.memory.cache",
    "repro.secure.context",
    "repro.secure.snc",
    "repro.secure.snc_policy",
    "repro.timing.batch",
    "repro.timing.model",
    "repro.timing.stack",
    "repro.workloads.patterns",
    "repro.workloads.sources",
    "repro.workloads.spec",
    "repro.workloads.tracegen",
)


def _fingerprint_module_names() -> list[str]:
    """The static list plus every discovered scheme and integrity module
    (a scheme's timing state machine lives in its spec file, and an
    integrity provider's timing twin in its, so an edit there must
    invalidate results simulated through it)."""
    from repro.secure.integrity import integrity_module_names
    from repro.secure.schemes import scheme_module_names

    names = list(_FINGERPRINT_MODULES)
    names.append("repro.secure.schemes")
    names.extend(scheme_module_names())
    names.append("repro.secure.integrity")
    names.append("repro.secure.integrity.providers")
    names.extend(integrity_module_names())
    return sorted(names)


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def _code_of(path: Path) -> str:
    """A module's code without its docstrings or comments: the dump of
    its syntax tree (which keeps neither comments nor line numbers)
    with every docstring dropped.  The dump follows the interpreter's
    syntax-tree classes, so a Python upgrade may re-key both stores
    once."""
    tree = ast.parse(path.read_bytes())
    for node in ast.walk(tree):
        if (isinstance(node, _DOCUMENTED)
                and ast.get_docstring(node, clean=False) is not None):
            del node.body[0]
    return ast.dump(tree)


def fingerprint_of(module_names) -> str:
    """SHA-256 over the given modules' code, docstrings and comments
    left out so a documentation edit keys nothing anew — the one
    implementation behind both the result cache's fingerprint and the
    trace store's (:func:`repro.eval.trace_store.record_fingerprint`),
    so the two invalidation mechanisms cannot drift."""
    digest = hashlib.sha256()
    for name in module_names:
        module = importlib.import_module(name)
        digest.update(name.encode())
        digest.update(_code_of(Path(module.__file__)).encode())
    return digest.hexdigest()


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over the source of every simulation-relevant module."""
    return fingerprint_of(_fingerprint_module_names())


#: Disambiguates temp names within one process (pid alone is not enough:
#: concurrent threads, or a pool worker writing two entries back-to-back,
#: must never collide on the scratch file).
_TMP_SEQ = itertools.count()


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-to-temp + rename with a *writer-unique* temp name.

    Both on-disk stores use this; a shared temp name (``path`` with a
    ``.tmp`` suffix) races under concurrent writers — two processes
    writing the same key interleave their bytes in one scratch file and
    one of them renames a torn hybrid into place.  A per-writer name
    (pid + sequence) keeps every rename atomic and whole-file.  The
    scratch file is removed on failure so crashed writers do not litter
    the store; any exception propagates for the caller to count.
    """
    tmp = path.parent / f".{path.name}.{os.getpid()}.{next(_TMP_SEQ)}.tmp"
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def default_cache_dir() -> Path:
    """``$REPRO_EVAL_CACHE_DIR``, or ``~/.cache/repro-eval``."""
    override = os.environ.get("REPRO_EVAL_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-eval"


def events_to_dict(events: BenchmarkEvents) -> dict:
    return asdict(events)  # recurses into the nested SNCEventCounts


def events_from_dict(payload: dict) -> BenchmarkEvents:
    snc = {key: SNCEventCounts(**counts)
           for key, counts in payload.pop("snc", {}).items()}
    integrity = {key: IntegrityEventCounts(**counts)
                 for key, counts in payload.pop("integrity", {}).items()}
    return BenchmarkEvents(snc=snc, integrity=integrity, **payload)


class ResultCache:
    """One JSON file per task under ``root``; misses on any anomaly."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.put_errors = 0

    def key_for(self, task: Task) -> str:
        digest = hashlib.sha256()
        digest.update(f"format:{CACHE_FORMAT}\n".encode())
        digest.update(f"code:{code_fingerprint()}\n".encode())
        digest.update(f"task:{task.config_hash()}\n".encode())
        return digest.hexdigest()

    def path_for(self, task: Task) -> Path:
        return self.root / f"{self.key_for(task)}.json"

    def get(self, task: Task) -> BenchmarkEvents | None:
        path = self.path_for(task)
        try:
            payload = json.loads(path.read_text())
            events = events_from_dict(payload["events"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return events

    def put(self, task: Task, events: BenchmarkEvents) -> None:
        """Best-effort write: an unwritable cache must never abort a run
        whose (expensive) simulation already succeeded."""
        payload = {
            "format": CACHE_FORMAT,
            "task": task.canonical(),
            "events": events_to_dict(events),
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                self.path_for(task),
                json.dumps(payload, sort_keys=True, indent=1).encode(),
            )
        except OSError:
            self.put_errors += 1
