"""Pluggable cell-execution backends behind the experiment engine.

:func:`repro.experiments.engine.run_cells` (and the checkpoint-producing
twin :func:`~repro.experiments.engine.run_produce_cells`) decide *what*
to execute — cache lookups, dedupe, manifest writing stay there — and
delegate *how* to an :class:`ExecutionBackend`:

* :class:`LocalPoolBackend` — the historical in-process shape: inline
  when ``jobs == 1``, a :class:`concurrent.futures.ProcessPoolExecutor`
  otherwise.
* :class:`QueueBackend` — a file/spool work queue (``REPRO_BACKEND=
  queue``). The submitter writes one task file per cell under
  ``<spool>/tasks/`` and polls ``<spool>/results/``; any number of
  worker processes (``repro worker``, possibly on another host sharing
  the directory) claim tasks by atomic rename into ``<spool>/claimed/``
  and write result files back. Results are streamed to the submitter in
  completion order, exactly like the pool.

The backend contract (normative copy in ``docs/ARCHITECTURE.md``):

* ``execute(cells, worker, on_result)`` runs ``worker(payload)`` for
  every ``(key, payload)`` pair and invokes ``on_result(key, result,
  done, total)`` once per cell in completion order;
* ``worker`` is one of the engine's module-level worker entry points
  (``simulate_cell`` / ``produce_cell``) — picklable, no mutable
  process-global state, result JSON-serializable — so a cell computes
  the same bytes in-process, in a pool worker, or on another machine;
  only a backend that declares itself ``inline`` (calls the worker in
  the submitting process, in the given order) may be handed a closure
  over one of them carrying per-batch state;
* cache policy is the caller's: backends only ever see cache misses,
  and the caller persists results as they stream back. A remote worker
  therefore needs the *spool* directory and any paths named inside the
  payloads (trace files, checkpoint stores) shared with the submitter —
  the result cache itself need not be.

Spool layout::

    <spool>/tasks/<key>.json     {"schema": 1, "key", "worker", "payload"}
    <spool>/claimed/<key>.json   task being executed (crash debris is
                                 re-queued by ``requeue_stale``)
    <spool>/results/<key>.json   {"schema": 1, "key", "cell"} on success,
                                 {"schema": 1, "key", "error"} on failure

All writes are atomic (tempfile + ``os.replace``), so a submitter never
reads a half-written task or result.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "BackendError",
    "ExecutionBackend",
    "LocalPoolBackend",
    "QueueBackend",
    "SPOOL_SCHEMA",
    "drain_spool",
    "requeue_stale",
]

#: Bumped when the spool task/result record layout changes.
SPOOL_SCHEMA = 1

#: Worker entry points a spool task may name. Resolution is by name so
#: task files stay plain data; both live in the engine module.
_WORKER_NAMES = ("simulate_cell", "produce_cell")

Cells = Sequence[Tuple[str, Dict[str, Any]]]
OnResult = Callable[[str, Dict[str, Any], int, int], None]


class BackendError(RuntimeError):
    """A backend could not produce a result for a submitted cell."""


class ExecutionBackend:
    """Abstract execution seam: run workers over (key, payload) cells."""

    #: True when ``execute`` calls the worker in this process, one cell
    #: at a time in the given order — the caller may then pass a
    #: closure carrying per-batch state instead of a module-level entry
    #: point.
    inline = False

    def execute(self, cells: Cells, worker: Callable[[Dict[str, Any]], Dict[str, Any]],
                on_result: OnResult) -> None:
        raise NotImplementedError


class LocalPoolBackend(ExecutionBackend):
    """Inline execution (``jobs == 1``) or a local process pool."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self.inline = self.jobs == 1

    def execute(self, cells: Cells, worker, on_result: OnResult) -> None:
        total = len(cells)
        if self.jobs > 1 and total > 1:
            workers = min(self.jobs, total)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {pool.submit(worker, payload): key
                           for key, payload in cells}
                done = 0
                for future in as_completed(futures):
                    done += 1
                    on_result(futures[future], future.result(), done, total)
            return
        for done, (key, payload) in enumerate(cells, start=1):
            on_result(key, worker(payload), done, total)


# ---------------------------------------------------------------------------
# File/spool work queue


def _write_json(path: Path, record: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(record, handle, sort_keys=True)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict) or record.get("schema") != SPOOL_SCHEMA:
        return None
    return record


class QueueBackend(ExecutionBackend):
    """Directory-mediated work queue: enqueue tasks, poll for results.

    The submitter never simulates; it blocks until external workers
    (:func:`drain_spool`, via ``repro worker``) have produced every
    result, raising :class:`BackendError` after ``timeout`` seconds
    without completion (0 waits forever).
    """

    def __init__(self, spool, *, timeout: Optional[float] = None,
                 poll_interval: float = 0.05) -> None:
        self.spool = Path(spool)
        if timeout is None:
            timeout = float(os.environ.get("REPRO_QUEUE_TIMEOUT", "600")
                            or "600")
        self.timeout = timeout
        self.poll_interval = poll_interval

    def _results_dir(self) -> Path:
        return self.spool / "results"

    def execute(self, cells: Cells, worker, on_result: OnResult) -> None:
        worker_name = getattr(worker, "__name__", "")
        if worker_name not in _WORKER_NAMES:
            raise BackendError(
                f"queue backend cannot dispatch worker {worker_name!r}; "
                f"known workers: {', '.join(_WORKER_NAMES)}")
        tasks_dir = self.spool / "tasks"
        results_dir = self._results_dir()
        outstanding = {}
        for key, payload in cells:
            result_path = results_dir / f"{key}.json"
            try:                         # stale result from a prior run
                result_path.unlink()
            except OSError:
                pass
            _write_json(tasks_dir / f"{key}.json",
                        {"schema": SPOOL_SCHEMA, "key": key,
                         "worker": worker_name, "payload": payload})
            outstanding[key] = result_path
        total = len(outstanding)
        done = 0
        deadline = (time.monotonic() + self.timeout
                    if self.timeout else None)
        while outstanding:
            landed = [key for key, path in outstanding.items()
                      if path.exists()]
            for key in landed:
                path = outstanding[key]
                record = _read_json(path)
                if record is None:       # half-visible on a shared FS
                    continue
                del outstanding[key]
                try:
                    path.unlink()
                except OSError:
                    pass
                if "error" in record:
                    raise BackendError(
                        f"queue worker failed on cell {key}:\n"
                        f"{record['error']}")
                done += 1
                on_result(key, record["cell"], done, total)
            if not outstanding:
                return
            if deadline is not None and time.monotonic() > deadline:
                raise BackendError(
                    f"queue backend timed out after {self.timeout:.0f}s "
                    f"with {len(outstanding)} of {total} cell(s) "
                    f"unfinished under {self.spool} — is a worker "
                    f"draining this spool (`repro worker --spool ...`)?")
            time.sleep(self.poll_interval)


def _resolve_worker(name: str):
    from repro.experiments import engine

    if name not in _WORKER_NAMES:
        raise BackendError(f"spool task names unknown worker {name!r}")
    return getattr(engine, name)


def requeue_stale(spool) -> int:
    """Move crash debris from ``claimed/`` back to ``tasks/``.

    A worker that died mid-cell leaves its claimed task file behind;
    re-queueing it lets the next worker pick it up. Returns the number
    of tasks re-queued. Only run this when no worker is active on the
    spool — a live worker's in-flight claim looks identical to debris.
    """
    spool = Path(spool)
    claimed = spool / "claimed"
    tasks = spool / "tasks"
    moved = 0
    if not claimed.is_dir():
        return 0
    tasks.mkdir(parents=True, exist_ok=True)
    for path in sorted(claimed.glob("*.json")):
        try:
            os.replace(path, tasks / path.name)
            moved += 1
        except OSError:
            continue
    return moved


def drain_spool(spool, *, max_tasks: Optional[int] = None,
                idle_timeout: float = 0.0, poll_interval: float = 0.05,
                log=None) -> int:
    """Execute queued tasks from ``spool`` until it runs dry.

    The worker loop behind ``repro worker``: claim a task by atomically
    renaming it into ``claimed/``, execute its named worker entry point,
    write the result (or the failure traceback) under ``results/`` and
    delete the claim. Exits after ``max_tasks`` cells, or once the task
    directory has stayed empty for ``idle_timeout`` seconds (0 = exit
    the first time it is found empty). Returns the number of cells
    executed. Safe to run concurrently with other workers on the same
    spool — the rename claim makes every task execute exactly once.
    """
    spool = Path(spool)
    tasks_dir = spool / "tasks"
    claimed_dir = spool / "claimed"
    results_dir = spool / "results"
    claimed_dir.mkdir(parents=True, exist_ok=True)
    executed = 0
    idle_since = time.monotonic()
    while True:
        task_paths = (sorted(tasks_dir.glob("*.json"))
                      if tasks_dir.is_dir() else [])
        claimed_any = False
        for path in task_paths:
            claim = claimed_dir / path.name
            try:
                os.replace(path, claim)  # atomic: exactly one winner
            except OSError:
                continue                 # another worker got it
            claimed_any = True
            record = _read_json(claim)
            if record is None:           # malformed task: drop the claim
                try:
                    claim.unlink()
                except OSError:
                    pass
                continue
            key = record["key"]
            try:
                cell = _resolve_worker(record["worker"])(record["payload"])
                result = {"schema": SPOOL_SCHEMA, "key": key, "cell": cell}
            except BaseException:
                result = {"schema": SPOOL_SCHEMA, "key": key,
                          "error": traceback.format_exc()}
            _write_json(results_dir / f"{key}.json", result)
            try:
                claim.unlink()
            except OSError:
                pass
            executed += 1
            if log is not None:
                log(f"[{executed}] {key[:12]} "
                    f"{'ok' if 'cell' in result else 'FAILED'}")
            if max_tasks is not None and executed >= max_tasks:
                return executed
        if claimed_any:
            idle_since = time.monotonic()
            continue
        if time.monotonic() - idle_since >= idle_timeout:
            return executed
        time.sleep(poll_interval)
