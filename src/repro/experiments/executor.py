"""Scenario executor: serial or multiprocess, with an on-disk result cache.

``execute()`` takes a list of :class:`~repro.experiments.spec.Scenario` and
returns one :class:`ScenarioRecord` per scenario **in input order**,
regardless of job count or completion order -- figure rendering and the
byte-identity guarantee (``--jobs 4`` == ``--jobs 1``) depend on that.

Every result crosses a JSON round-trip (even in-process serial runs) so the
three paths -- serial, worker pool, cache hit -- produce bit-identical
rehydrated results.  The cache key is the scenario hash
(:meth:`Scenario.key`): workload + args + config overrides, nothing else.

This module is the only code that turns a cell into a
:class:`ScenarioRecord`: the replay-first planner
(:func:`repro.experiments.plan.execute_plan`) is two :func:`execute`
passes, and the distributed queue (:mod:`repro.experiments.dispatch`) runs
each task through :func:`_cache_or_simulate` and merges with
:func:`_make_record`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.experiments.spec import Scenario
from repro.system import SimResult, run_workload

#: cache format version; bump when the result payload shape changes
CACHE_VERSION = 1

#: observer called with each ScenarioRecord as it is produced (the benchmark
#: harness hooks this to build per-scenario wall-clock artifacts)
record_hook: Callable[["ScenarioRecord"], None] | None = None


@dataclass
class ScenarioRecord:
    """One executed (or cache-served) scenario."""

    scenario: Scenario
    result: SimResult
    elapsed_s: float
    cached: bool
    violations: list[str] = field(default_factory=list)
    #: wall-clock span of the fresh simulation (``perf_counter`` domain,
    #: comparable across worker processes on Linux) -- ``None`` when the
    #: record was served from cache.  Feeds the campaign cells timeline;
    #: deliberately NOT part of :meth:`to_dict`, which is byte-stable.
    t_start_s: float | None = None
    t_end_s: float | None = None
    worker_pid: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "key": self.scenario.key(),
            "result": self.result.to_dict(),
            "elapsed_s": self.elapsed_s,
            "cached": self.cached,
            "violations": list(self.violations),
        }


def simulate_scenario(
    spec_dict: dict, telemetry: dict | None = None, record_to: str | None = None
) -> dict:
    """Worker entry point: simulate one scenario from its plain-dict form.

    Top-level (picklable) and dict-in/dict-out so it crosses the
    ``multiprocessing`` boundary under both fork and spawn start methods.

    ``telemetry`` (plain dict: ``out_dir`` plus optional ``sample_every``
    / ``stats_patterns``) attaches a per-cell telemetry session writing
    ``<out_dir>/<key>.jsonl`` -- keyed by the scenario hash, like the
    result cache, so re-labelled scenarios overwrite the same series.

    ``record_to`` names a ``.gsitrace`` path (the planner's record cells).
    When that file is missing the cell runs with a trace recorder attached
    and publishes the trace atomically, like a cache entry; recording is
    provably inert on the result, so the payload -- and therefore the
    cache entry -- is byte-identical to a plain execution.

    The payload carries wall-clock fields (``t_start``/``t_end``/``pid``)
    for live progress and the cells timeline; they are advisory extras --
    the cache tolerates their absence in pre-existing entries.
    """
    scenario = Scenario.from_dict(spec_dict)
    key = scenario.key()
    tel_cfg = cell_telemetry_config(telemetry, key, scenario.name)
    record = _trace_missing(record_to)
    t0 = time.perf_counter()
    if record:
        from repro.trace import record_workload

        result, trace = record_workload(
            scenario.build_config(),
            scenario.build_workload(),
            name=scenario.workload,
            workload_args=scenario.workload_args,
            telemetry=tel_cfg,
        )
    else:
        result = run_workload(scenario.build_config(), scenario.build_workload(), telemetry=tel_cfg)
    t1 = time.perf_counter()
    if record:
        from repro.trace import save_trace

        os.makedirs(os.path.dirname(record_to) or ".", exist_ok=True)
        # Concurrent recorders of the same group write identical bytes, so
        # a lost race is harmless: last rename wins with the same content.
        _publish(record_to, functools.partial(save_trace, trace))
    return {
        "version": CACHE_VERSION,
        "key": key,
        "result": result.to_dict(),
        "elapsed_s": t1 - t0,
        "t_start": t0,
        "t_end": t1,
        "pid": os.getpid(),
    }


def _trace_missing(record_to: str | None) -> bool:
    """Does this cell still owe its ``record_to`` trace file?"""
    return record_to is not None and not os.path.exists(record_to)


def _simulate_task(task: tuple) -> dict:
    """Pool entry for one ``(spec_dict, telemetry, record_to)`` task.

    Optional arguments are passed only when set, so a plain cell is the
    plain call ``simulate_scenario(spec_dict)``."""
    spec_dict, telemetry, record_to = task
    extra = {}
    if telemetry is not None:
        extra["telemetry"] = telemetry
    if record_to is not None:
        extra["record_to"] = record_to
    return simulate_scenario(spec_dict, **extra)


def cell_telemetry_config(telemetry: dict | None, key: str, name: str):
    """Build the per-cell :class:`repro.obs.TelemetryConfig` from the plain
    batch-telemetry dict (``out_dir`` + optional ``sample_every`` /
    ``stats_patterns``), or ``None`` when telemetry is off."""
    if telemetry is None:
        return None
    from repro.obs import TelemetryConfig

    return TelemetryConfig(
        out=os.path.join(telemetry["out_dir"], "%s.jsonl" % key),
        sample_every=int(telemetry.get("sample_every", 5000)),
        stats_patterns=tuple(telemetry.get("stats_patterns", ())),
        heartbeat=False,
        run_id=key,
        label=name,
    )


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, "%s.json" % key)


def _cache_load(cache_dir: str | None, key: str) -> dict | None:
    if cache_dir is None:
        return None
    path = _cache_path(cache_dir, key)
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError:
        return None
    except ValueError:
        # Corrupt/truncated entry (killed writer, disk full): quarantine it
        # so the miss is visible (`repro cache verify` reports *.bad files)
        # instead of silently re-simulating against it forever.
        _quarantine(path)
        return None
    if not isinstance(payload, dict):
        _quarantine(path)
        return None
    if payload.get("version") != CACHE_VERSION or payload.get("key") != key:
        return None
    return payload


def _quarantine(path: str) -> None:
    try:
        os.replace(path, path + ".bad")
    except OSError:  # pragma: no cover - lost race with another process
        pass


def _publish(path: str, write: Callable[[str], None]) -> None:
    """Create ``path`` atomically: ``write`` fills a pid-suffixed temp file
    that ``os.replace`` then moves into place, so readers never see a
    partial file."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    write(tmp)
    os.replace(tmp, path)


def _write_json_atomic(path: str, payload: dict) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)

    _publish(path, write)


def _cache_store(cache_dir: str | None, key: str, payload: dict) -> None:
    if cache_dir is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    _write_json_atomic(_cache_path(cache_dir, key), payload)


def _store_fresh(cache_dir: str | None, key: str, payload: dict) -> dict:
    """Normalize a fresh payload through JSON -- so serial in-process
    results are bit-identical to pooled (pickled) and cached (file) ones
    -- and store it in the cache."""
    payload = json.loads(json.dumps(payload, sort_keys=True))
    _cache_store(cache_dir, key, payload)
    return payload


def _cache_or_simulate(
    spec_dict: dict,
    key: str,
    cache_dir: str | None,
    telemetry: dict | None,
    record_to: str | None,
) -> tuple[dict, bool]:
    """One cell, cache-served or freshly simulated: ``(payload, cached)``.

    The distributed queue's per-task step; :func:`execute` makes the same
    decisions for a whole batch.  A cache hit that still owes its
    ``record_to`` trace re-runs for that side effect only and keeps the
    cached payload."""
    task = (spec_dict, telemetry, record_to)
    hit = _cache_load(cache_dir, key)
    if hit is None:
        return _store_fresh(cache_dir, key, _simulate_task(task)), False
    if _trace_missing(record_to):
        _simulate_task(task)
    return hit, True


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    cache_dir: str | None = None,
    progress: Callable[[str, float, bool, int, int], None] | None = None,
    telemetry: dict | None = None,
    results_db: str | None = None,
) -> list[ScenarioRecord]:
    """Run every scenario; results come back in input order.

    ``jobs > 1`` fans uncached scenarios out to a ``multiprocessing`` pool.
    Scenarios sharing a hash (identical simulation inputs under different
    names) are simulated once and served to every holder.

    ``progress`` is called once per unique cell as it resolves --
    ``progress(name, elapsed_s, cached, done, total)`` -- cache hits first,
    then fresh runs as they complete (streamed from the pool, in input
    order).  ``telemetry`` (see :func:`simulate_scenario`) attaches a
    per-cell telemetry session in each worker and writes an
    ``index.json`` name->key map next to the per-cell series.

    ``results_db`` names a SQLite results database
    (:class:`repro.results.db.ResultsDB`) to ingest the completed records
    into -- every run, breakdown row and stat leaf becomes queryable via
    ``repro report query`` (the ``sweep --db`` path).
    """
    records, keys = _execute(list(scenarios), jobs, cache_dir, progress, telemetry)
    if telemetry is not None:
        _write_telemetry_index(telemetry, records, keys)
    if results_db is not None:
        from repro.results.db import ResultsDB

        with ResultsDB(results_db) as db:
            db.ingest_records(records, source="executor")
    return records


def _execute(
    scenarios: list[Scenario],
    jobs: int,
    cache_dir: str | None,
    progress,
    telemetry: dict | None,
    record_to: Sequence[str | None] | None = None,
) -> tuple[list[ScenarioRecord], list[str]]:
    """:func:`execute` without its ``index.json``/database outputs; also
    returns each scenario's cache key.  ``record_to`` gives each scenario
    an optional trace path (see :func:`simulate_scenario`); a cache-served
    cell whose trace is missing re-runs for that file alone, invisible to
    progress and keeping its cached payload."""
    _check_unique_names(scenarios)
    for scenario in scenarios:
        scenario.validate()
    keys = [s.key() for s in scenarios]
    if record_to is None:
        record_to = [None] * len(scenarios)

    # Resolve cache hits and the unique set of cells still to run.
    payloads: dict[str, dict] = {}
    cached: dict[str, bool] = {}
    cell_name: dict[str, str] = {}
    todo: list[tuple[str, bool]] = []  # (key, fresh result wanted)
    tasks: list[tuple] = []
    for scenario, key, trace in zip(scenarios, keys, record_to):
        if key in cell_name:
            continue
        cell_name[key] = scenario.name
        hit = _cache_load(cache_dir, key)
        if hit is not None:
            payloads[key] = hit
            cached[key] = True
            if not _trace_missing(trace):
                continue
        todo.append((key, hit is None))
        tasks.append((scenario.to_dict(), telemetry, trace))

    total = len(cell_name)
    done = 0
    if progress is not None:
        for key, payload in payloads.items():
            done += 1
            progress(cell_name[key], float(payload["elapsed_s"]), True, done, total)

    if tasks:
        if telemetry is not None:
            os.makedirs(telemetry["out_dir"], exist_ok=True)
        parallel = jobs > 1 and len(tasks) > 1
        with (
            multiprocessing.Pool(min(jobs, len(tasks))) if parallel
            else contextlib.nullcontext()
        ) as pool:
            # imap (not map) so completions stream back for progress
            # reporting; input order is preserved either way.
            outputs = pool.imap(_simulate_task, tasks) if parallel else map(_simulate_task, tasks)
            for (key, fresh), payload in zip(todo, outputs):
                if not fresh:
                    continue  # trace side effect only
                payload = _store_fresh(cache_dir, key, payload)
                payloads[key] = payload
                cached[key] = False
                done += 1
                if progress is not None:
                    progress(cell_name[key], float(payload["elapsed_s"]), False, done, total)

    records = [
        _make_record(scenario, payloads[key], cached[key])
        for scenario, key in zip(scenarios, keys)
    ]
    return records, keys


def _check_unique_names(scenarios: Sequence[Scenario]) -> None:
    seen: set[str] = set()
    for scenario in scenarios:
        if scenario.name in seen:
            raise ValueError(
                "duplicate scenario name %r: reports key results by name, so "
                "one of the two would silently vanish" % scenario.name
            )
        seen.add(scenario.name)


def _make_record(scenario: Scenario, payload: dict, cached: bool) -> ScenarioRecord:
    """Rehydrate one cell's payload into its :class:`ScenarioRecord` (the
    one record builder of every lane) and show it to :data:`record_hook`."""
    result = SimResult.from_dict(payload["result"])
    record = ScenarioRecord(
        scenario=scenario,
        result=result,
        elapsed_s=float(payload["elapsed_s"]),
        cached=cached,
        violations=scenario.check(result),
        t_start_s=None if cached else payload.get("t_start"),
        t_end_s=None if cached else payload.get("t_end"),
        worker_pid=None if cached else payload.get("pid"),
    )
    if record_hook is not None:
        record_hook(record)
    return record


def _write_telemetry_index(
    telemetry: dict,
    records: Sequence[ScenarioRecord],
    keys: Sequence[str],
    kinds: Sequence[str] | None = None,
) -> None:
    """``index.json``: which scenario name maps to which per-cell series.
    One row per cell; the planned and queue lanes pass each cell's plan
    ``kind`` (``execute``/``record``/``replay``), plain sweeps write none."""
    if kinds is None:
        kinds = [None] * len(keys)
    cells = {}
    for record, key, kind in zip(records, keys, kinds):
        row = {"key": key, "cached": record.cached}
        if kind is not None:
            row["kind"] = kind
        cells[record.scenario.name] = row
    index = {
        "cells": cells,
        "sample_every": int(telemetry.get("sample_every", 5000)),
    }
    os.makedirs(telemetry["out_dir"], exist_ok=True)
    path = os.path.join(telemetry["out_dir"], "index.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(index, fh, sort_keys=True, indent=2)


def results_by_name(records: Sequence[ScenarioRecord]) -> dict[str, SimResult]:
    """Name -> result map (insertion-ordered) for figure rendering."""
    return {r.scenario.name: r.result for r in records}
