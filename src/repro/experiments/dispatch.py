"""Filesystem-backed distributed campaign queue.

One campaign, N workers, any mix of processes and machines sharing a
filesystem view.  The coordinator plans the campaign
(:mod:`repro.experiments.plan`), writes one task file per cell into a
queue directory, and merges finished cells back out of the shared
content-addressed result cache; workers -- spawned locally by
``repro campaign --workers N`` or attached from anywhere with
``repro worker --queue DIR`` -- drain the queue until the campaign is
complete.  Every coordination step is an atomic filesystem operation, so
the queue needs no server and survives arbitrary kill/restart:

``<queue>/manifest.json``
    campaign name, plan identity hash, cell list, result/trace store
    locations.  Attaching with a different plan is refused.
``<queue>/todo/<id>.json``
    one claimable task per planned cell (kind, run scenario, record
    target, record-task dependency).
``<queue>/claimed/<id>.json``
    a lease: claiming is ``os.rename(todo/x, claimed/x)`` -- atomic, so
    exactly one worker wins.  The holder touches the file's mtime from a
    heartbeat thread; a lease whose mtime goes stale past the expiry is
    reclaimed by ``os.rename`` back into ``todo/`` (same atomicity, so a
    dead worker's cell is re-issued exactly once).
``<queue>/done/<id>.json`` / ``failed/<id>.json``
    completion markers (result provenance / error text).  Results
    themselves live in the content-addressed cache keyed by
    ``Scenario.key()``, never in the queue.

Replay tasks become claimable only once their group's trace file exists,
so record cells naturally run first; if a record task fails, its
dependents fail fast instead of waiting forever.

Byte-identity is preserved by construction: workers run each task
through the executor's own cache-or-simulate step
(:mod:`repro.experiments.executor` -- same worker entry, same JSON
round-trip normalization), and the coordinator merges in input order
from the same cache with the executor's record builder -- so any worker
count, interleaving, or kill/resume history produces results
bit-identical to ``--jobs 1``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
import traceback
from typing import Callable

from repro.experiments import executor
from repro.experiments.campaign import CampaignResult, CampaignSpec, default_trace_dir
from repro.experiments.executor import ScenarioRecord, _cache_load, _write_json_atomic
from repro.experiments.plan import Plan, build_plan
from repro.experiments.spec import Scenario

QUEUE_VERSION = 1
DEFAULT_LEASE_EXPIRY_S = 300.0
DEFAULT_POLL_S = 0.2
DEFAULT_HEARTBEAT_S = 15.0

_STATE_DIRS = ("todo", "claimed", "done", "failed")


class QueueError(RuntimeError):
    """A queue directory is unusable (missing, foreign plan, lost results)."""


# ---------------------------------------------------------------------------
# small atomic-file helpers
# ---------------------------------------------------------------------------

def _read_json(path: str) -> dict | None:
    """Tolerant read: concurrent movers/writers make missing or momentarily
    unparsable files an expected, retryable condition."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _state_path(queue_dir: str, state: str, task_id: str) -> str:
    return os.path.join(queue_dir, state, "%s.json" % task_id)


def _ids_in(queue_dir: str, state: str) -> list[str]:
    try:
        names = os.listdir(os.path.join(queue_dir, state))
    except OSError:
        return []
    return sorted(n[:-5] for n in names if n.endswith(".json"))


# ---------------------------------------------------------------------------
# queue setup
# ---------------------------------------------------------------------------

def manifest_path(queue_dir: str) -> str:
    return os.path.join(queue_dir, "manifest.json")


def load_manifest(queue_dir: str) -> dict:
    manifest = _read_json(manifest_path(queue_dir))
    if manifest is None:
        raise QueueError(
            "%s is not a campaign queue (no readable manifest.json); start "
            "one with `repro campaign --workers N --queue DIR`" % queue_dir
        )
    if manifest.get("version") != QUEUE_VERSION:
        raise QueueError(
            "queue %s has version %r; this build speaks version %d"
            % (queue_dir, manifest.get("version"), QUEUE_VERSION)
        )
    return manifest


def create_or_attach_queue(
    queue_dir: str,
    plan: Plan,
    name: str,
    results_dir: str,
    telemetry: dict | None = None,
) -> dict:
    """Initialize ``queue_dir`` for ``plan``, or attach to an existing one.

    Attach requires the existing manifest's plan identity to match -- a
    queue directory belongs to exactly one plan; reusing it for a
    different campaign raises instead of silently mixing cells.  Tasks
    already claimed/done/failed are not re-enqueued, so attaching resumes
    an interrupted campaign wherever it stopped.
    """
    for state in _STATE_DIRS:
        os.makedirs(os.path.join(queue_dir, state), exist_ok=True)
    manifest = _read_json(manifest_path(queue_dir))
    wanted = {
        "version": QUEUE_VERSION,
        "name": name,
        "plan_id": plan.identity(),
        "total": len(plan.cells),
        "results_dir": os.path.abspath(results_dir),
        "telemetry": telemetry,
        "cells": [
            {"id": "%04d" % cell.index, "name": cell.name, "kind": cell.kind}
            for cell in plan.cells
        ],
    }
    if manifest is None:
        _write_json_atomic(manifest_path(queue_dir), wanted)
        manifest = wanted
    elif manifest.get("plan_id") != wanted["plan_id"]:
        raise QueueError(
            "queue %s belongs to plan %s (campaign %r); refusing to enqueue "
            "plan %s -- use a fresh --queue directory"
            % (queue_dir, manifest.get("plan_id"), manifest.get("name"),
               wanted["plan_id"])
        )
    settled = set(_ids_in(queue_dir, "done")) | set(_ids_in(queue_dir, "failed"))
    settled |= set(_ids_in(queue_dir, "claimed"))
    for cell in plan.cells:
        task = cell.task()
        if task["id"] in settled:
            continue
        path = _state_path(queue_dir, "todo", task["id"])
        if os.path.exists(path):
            continue
        if cell.kind == "replay":
            # the record task a replay waits on: its group leader
            for other in plan.cells:
                if other.kind == "record" and other.group == cell.group:
                    task["after"] = "%04d" % other.index
                    break
        _write_json_atomic(path, task)
    return manifest


# ---------------------------------------------------------------------------
# leases
# ---------------------------------------------------------------------------

class _Heartbeat(threading.Thread):
    """Touches a claimed task file's mtime so the lease stays fresh while
    the (possibly hours-long) simulation runs."""

    def __init__(self, path: str, every_s: float) -> None:
        super().__init__(daemon=True)
        self.path = path
        self.every_s = every_s
        self._stop = threading.Event()

    def run(self) -> None:  # pragma: no cover - timing-dependent
        while not self._stop.wait(self.every_s):
            try:
                os.utime(self.path)
            except OSError:
                return

    def stop(self) -> None:
        self._stop.set()


def reclaim_expired(queue_dir: str, max_age_s: float) -> list[str]:
    """Move leases older than ``max_age_s`` back into ``todo/``.

    Returns the reclaimed task ids.  Renaming is atomic, so with any
    number of concurrent reclaimers each expired lease is re-issued
    exactly once.  A lease whose task already completed (marker present)
    is dropped instead of re-issued.
    """
    reclaimed: list[str] = []
    now = time.time()
    for task_id in _ids_in(queue_dir, "claimed"):
        path = _state_path(queue_dir, "claimed", task_id)
        try:
            age = now - os.stat(path).st_mtime
        except OSError:
            continue
        if age < max_age_s:
            continue
        if os.path.exists(_state_path(queue_dir, "done", task_id)) or os.path.exists(
            _state_path(queue_dir, "failed", task_id)
        ):
            try:
                os.remove(path)
            except OSError:
                pass
            continue
        try:
            os.rename(path, _state_path(queue_dir, "todo", task_id))
        except OSError:
            continue  # lost the race to another reclaimer (or the holder)
        reclaimed.append(task_id)
    return reclaimed


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------

def _claim_next(queue_dir: str) -> dict | None:
    """Claim the lowest-id ready task, or ``None`` if nothing is claimable.

    Replay tasks are ready once their trace file exists; a replay whose
    record task failed is claimed anyway and failed fast (dependency
    error) so the queue always settles.
    """
    for task_id in _ids_in(queue_dir, "todo"):
        path = _state_path(queue_dir, "todo", task_id)
        task = _read_json(path)
        if task is None:
            continue  # vanished or mid-write; next poll sees it
        task.setdefault("id", task_id)
        if task["kind"] == "replay" and not os.path.exists(
            task["scenario"]["workload_args"]["path"]
        ):
            after = task.get("after")
            dep_failed = after is not None and os.path.exists(
                _state_path(queue_dir, "failed", after)
            )
            if not dep_failed:
                continue  # trace still being recorded
            task["dependency_failed"] = after
        try:
            os.rename(path, _state_path(queue_dir, "claimed", task_id))
        except OSError:
            continue  # another worker won the claim
        return task
    return None


def _process_task(
    queue_dir: str,
    task: dict,
    results_dir: str,
    telemetry: dict | None,
    heartbeat_s: float,
    worker_id: str,
) -> str:
    """Run one claimed task to a done/failed marker; returns the outcome
    (``"executed"`` / ``"cached"`` / ``"failed"``)."""
    task_id = task["id"]
    claimed = _state_path(queue_dir, "claimed", task_id)
    heartbeat = _Heartbeat(claimed, heartbeat_s)
    heartbeat.start()
    outcome = "failed"
    try:
        dep = task.get("dependency_failed")
        if dep is not None:
            raise QueueError("record task %s failed; replay cannot run" % dep)
        scenario = Scenario.from_dict(task["scenario"])
        key = scenario.key()
        payload, cached = executor._cache_or_simulate(
            task["scenario"], key, results_dir, telemetry, task.get("record_to")
        )
        marker = {
            "id": task_id,
            "name": scenario.name,
            "kind": task["kind"],
            "key": key,
            "cached": cached,
            "elapsed_s": payload["elapsed_s"],
            "t_start": None if cached else payload.get("t_start"),
            "t_end": None if cached else payload.get("t_end"),
            "pid": None if cached else payload.get("pid"),
            "worker": worker_id,
        }
        _write_json_atomic(_state_path(queue_dir, "done", task_id), marker)
        outcome = "cached" if cached else "executed"
    except Exception as exc:
        _write_json_atomic(
            _state_path(queue_dir, "failed", task_id),
            {
                "id": task_id,
                "name": task.get("scenario", {}).get("name", task_id),
                "error": "%s: %s" % (type(exc).__name__, exc),
                "traceback": traceback.format_exc(),
                "worker": worker_id,
            },
        )
    finally:
        heartbeat.stop()
        try:
            os.remove(claimed)
        except OSError:
            pass
    return outcome


def run_worker(
    queue_dir: str,
    poll_s: float = DEFAULT_POLL_S,
    lease_expiry_s: float = DEFAULT_LEASE_EXPIRY_S,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    max_tasks: int | None = None,
    worker_id: str | None = None,
) -> dict:
    """Drain a campaign queue until it settles (or ``max_tasks`` is hit).

    The loop claims ready tasks in id order; when nothing is claimable it
    reclaims expired leases and polls until every cell has a done/failed
    marker.  Returns ``{"claimed", "executed", "cached", "failed",
    "reclaimed"}`` counts for this worker.
    """
    manifest = load_manifest(queue_dir)
    results_dir = manifest["results_dir"]
    telemetry = manifest.get("telemetry")
    total = int(manifest["total"])
    if worker_id is None:
        worker_id = "pid-%d" % os.getpid()
    stats = {"claimed": 0, "executed": 0, "cached": 0, "failed": 0, "reclaimed": 0}
    while True:
        task = _claim_next(queue_dir)
        if task is None:
            settled = len(_ids_in(queue_dir, "done")) + len(_ids_in(queue_dir, "failed"))
            if settled >= total:
                return stats
            stats["reclaimed"] += len(reclaim_expired(queue_dir, lease_expiry_s))
            time.sleep(poll_s)
            continue
        stats["claimed"] += 1
        outcome = _process_task(
            queue_dir, task, results_dir, telemetry, heartbeat_s, worker_id
        )
        stats[outcome] += 1
        if max_tasks is not None and stats["claimed"] >= max_tasks:
            return stats


def _worker_entry(queue_dir: str, index: int, lease_expiry_s: float, poll_s: float) -> None:
    """Top-level target for coordinator-spawned worker processes."""
    run_worker(
        queue_dir,
        poll_s=poll_s,
        lease_expiry_s=lease_expiry_s,
        worker_id="local-%d/pid-%d" % (index, os.getpid()),
    )


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------

def run_campaign_distributed(
    spec: CampaignSpec,
    workers: int = 2,
    queue_dir: str | None = None,
    cache_dir: str | None = None,
    trace_dir: str | None = None,
    progress: Callable[[str, float, bool, int, int], None] | None = None,
    telemetry: dict | None = None,
    lease_expiry_s: float = DEFAULT_LEASE_EXPIRY_S,
    poll_s: float = DEFAULT_POLL_S,
) -> CampaignResult:
    """Plan, shard, and merge one campaign over a shared work queue.

    Spawns ``workers`` local worker processes against ``queue_dir`` (with
    ``workers=0`` it only coordinates -- external ``repro worker --queue``
    processes must drain the queue), streams per-cell progress as done
    markers appear, reclaims expired leases, and merges results from the
    shared cache in input order.  Cells already settled when attaching
    (an earlier interrupted or completed run) are reported as cached,
    exactly like the in-process executor's cache hits.
    """
    if queue_dir is None:
        raise ValueError("run_campaign_distributed needs a queue_dir")
    results_dir = cache_dir if cache_dir is not None else os.path.join(queue_dir, "results")
    traces = trace_dir or default_trace_dir(results_dir)
    scenarios = spec.scenarios()
    plan = build_plan(scenarios, traces)
    for cell in plan.cells:
        if cell.kind != "replay":
            cell.scenario.validate()
    manifest = create_or_attach_queue(
        queue_dir, plan, spec.name, results_dir, telemetry=telemetry
    )
    results_dir = manifest["results_dir"]
    total = len(plan.cells)
    preexisting = set(_ids_in(queue_dir, "done"))

    procs: list[multiprocessing.Process] = []
    settled_done = len(preexisting) + len(_ids_in(queue_dir, "failed"))
    if workers > 0 and settled_done < total:
        for index in range(workers):
            proc = multiprocessing.Process(
                target=_worker_entry,
                args=(queue_dir, index, lease_expiry_s, poll_s),
                daemon=True,
            )
            proc.start()
            procs.append(proc)

    seen: set[str] = set()
    done = 0
    try:
        while True:
            for task_id in _ids_in(queue_dir, "done"):
                if task_id in seen:
                    continue
                seen.add(task_id)
                done += 1
                if progress is not None:
                    marker = _read_json(_state_path(queue_dir, "done", task_id)) or {}
                    progress(
                        marker.get("name", task_id),
                        float(marker.get("elapsed_s", 0.0)),
                        task_id in preexisting or bool(marker.get("cached")),
                        done,
                        total,
                    )
            failures = _ids_in(queue_dir, "failed")
            if failures:
                marker = _read_json(_state_path(queue_dir, "failed", failures[0])) or {}
                raise QueueError(
                    "campaign cell %s (%s) failed on worker %s: %s"
                    % (failures[0], marker.get("name", "?"),
                       marker.get("worker", "?"), marker.get("error", "unknown"))
                )
            if done >= total:
                break
            if procs and all(not p.is_alive() for p in procs):
                raise QueueError(
                    "all %d local workers exited with %d/%d cells settled "
                    "(worker exit codes: %s)"
                    % (len(procs), done, total, [p.exitcode for p in procs])
                )
            reclaim_expired(queue_dir, lease_expiry_s)
            time.sleep(poll_s)
    finally:
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)

    records = collect_records(plan, results_dir, queue_dir, preexisting)
    if telemetry is not None:
        executor._write_telemetry_index(
            telemetry, records,
            [c.run_key() for c in plan.cells], [c.kind for c in plan.cells],
        )
    return CampaignResult(spec=spec, records=records)


def collect_records(
    plan: Plan,
    results_dir: str,
    queue_dir: str,
    preexisting: set[str] | None = None,
) -> list[ScenarioRecord]:
    """Merge a settled queue back into input-order :class:`ScenarioRecord` s.

    Results come from the content-addressed cache (the queue only holds
    provenance markers); a missing entry means the cache was pruned out
    from under the queue, which is unrecoverable without re-running.
    """
    preexisting = preexisting or set()
    records: list[ScenarioRecord] = []
    for cell in plan.cells:
        task_id = "%04d" % cell.index
        key = cell.run_key()
        payload = _cache_load(results_dir, key)
        if payload is None:
            raise QueueError(
                "cell %s (%s) is marked done but its result %s.json is "
                "missing from %s -- the cache was pruned under a live "
                "queue; delete %s and re-run"
                % (task_id, cell.name, key, results_dir, queue_dir)
            )
        marker = _read_json(_state_path(queue_dir, "done", task_id)) or {}
        is_cached = task_id in preexisting or bool(marker.get("cached"))
        records.append(executor._make_record(cell.run, payload, is_cached))
    return records
