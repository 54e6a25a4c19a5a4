"""Telemetry session: samples a live :class:`~repro.system.System`.

A session owns one run's telemetry artifacts.  It is attached *around*
``engine.run`` -- :meth:`start` before, :meth:`finalize` after -- and
samples via the engine's observer-event lane, so:

* the hot loop carries **no** telemetry branch (when no session is
  attached nothing is scheduled, nothing is imported);
* sampling cost is O(samples), not O(cycles) or O(events);
* the ``engine.events`` stat is unperturbed (observer events are excluded
  from event accounting), keeping the resulting ``SimResult``
  byte-identical to a telemetry-off run under both cores.

The sampler stops rescheduling itself when the simulation has no pending
work of its own (no active tickables, no non-observer events), so a run
that would have died with "ran out of events" still does -- telemetry
never keeps a dead simulation's clock advancing.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.core.breakdown import StallBreakdown
from repro.core.stall_types import StallType
from repro.obs.progress import format_heartbeat, new_run_id
from repro.obs.series import SeriesWriter
from repro.obs.trace_event import MAX_SPAN_EVENTS, StallTracks, TraceEventBuilder

#: default stat columns: the stall composition plus the system-level
#: activity counters that move during a run.  ``engine.cycles`` is
#: deliberately absent -- the tick count is flushed at run end, so its
#: mid-run value lags; the live clock is the ``cycle`` field instead.
DEFAULT_PATTERNS: tuple[str, ...] = (
    "breakdown.*",
    "system.engine.events",
    "system.engine.wakeups",
    "system.mesh.messages",
    "system.dram.accesses",
)

#: pid for the counter tracks in the trace (pid 1 is the SM stall tracks)
COUNTER_PID = 2


@dataclass
class TelemetryConfig:
    """Everything a session needs; plain data so it pickles to workers."""

    #: JSONL series path (a sibling ``.csv`` is written next to it);
    #: ``None`` disables the series but not the timeline.
    out: str | None = None
    #: sampling period in cycles
    sample_every: int = 5000
    #: extra fnmatch patterns over flattened stat paths, additive to
    #: :data:`DEFAULT_PATTERNS`
    stats_patterns: tuple = ()
    #: Chrome trace-event output path; ``None`` disables the timeline
    timeline_out: str | None = None
    #: emit heartbeat lines on stderr (they always go to the JSONL too)
    heartbeat: bool = True
    #: minimum wall seconds between heartbeats
    heartbeat_min_s: float = 2.0
    #: run id; generated when omitted
    run_id: str | None = None
    #: human label for the run (workload / scenario name)
    label: str | None = None
    #: also write the sibling CSV
    csv: bool = True
    #: span-event cap for the timeline
    timeline_max_events: int = MAX_SPAN_EVENTS

    def to_dict(self) -> dict:
        return {
            "out": self.out,
            "sample_every": self.sample_every,
            "stats_patterns": list(self.stats_patterns),
            "timeline_out": self.timeline_out,
            "heartbeat": self.heartbeat,
            "heartbeat_min_s": self.heartbeat_min_s,
            "run_id": self.run_id,
            "label": self.label,
            "csv": self.csv,
            "timeline_max_events": self.timeline_max_events,
        }

    @staticmethod
    def from_dict(data: dict) -> "TelemetryConfig":
        cfg = TelemetryConfig()
        for key, value in data.items():
            if hasattr(cfg, key):
                setattr(cfg, key, tuple(value) if key == "stats_patterns" else value)
        return cfg


def _csv_sibling(path: str) -> str:
    root, ext = os.path.splitext(path)
    return (root if ext == ".jsonl" else path) + ".csv"


class TelemetrySession:
    """One run's in-flight telemetry (see module docstring)."""

    def __init__(self, config: TelemetryConfig, system, stream=None) -> None:
        self.cfg = config
        self.system = system
        self.engine = system.engine
        self.run_id = config.run_id or new_run_id()
        self._stderr = stream if stream is not None else sys.stderr
        self._writer: SeriesWriter | None = None
        self._files: list = []
        self.columns: list[str] = []
        self._prev_row: dict[str, object] = {}
        self._seq = 0
        self._t0 = 0.0
        self._hb_wall = 0.0
        self._hb_cycle = 0
        self._last_hb_emit = 0.0
        self._builder: TraceEventBuilder | None = None
        self._tracks: StallTracks | None = None
        self._started = False
        self.samples_taken = 0

    # ------------------------------------------------------------------
    def _collect(self) -> dict[str, object]:
        flat = self.system.stats().flatten()
        inspector = getattr(self.system, "inspector", None)
        if inspector is not None:
            merged = StallBreakdown.merged(inspector.per_sm_breakdowns())
            for stall in StallType:
                flat["breakdown.%s" % stall.value] = merged.counts[stall]
        return flat

    def _select_columns(self, flat: dict[str, object]) -> list[str]:
        patterns = DEFAULT_PATTERNS + tuple(self.cfg.stats_patterns)
        cols = []
        for key in sorted(flat):
            value = flat[key]
            if not isinstance(value, (int, float)):
                continue
            if any(fnmatchcase(key, pat) for pat in patterns):
                cols.append(key)
        return cols

    def _row(self, flat: dict[str, object]) -> dict[str, object]:
        return {c: flat.get(c, 0) for c in self.columns}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open artifacts, take the baseline sample, arm the sampler."""
        if self._started:
            raise RuntimeError("telemetry session already started")
        self._started = True
        self._t0 = time.perf_counter()
        flat = self._collect()
        self.columns = self._select_columns(flat)

        if self.cfg.out:
            os.makedirs(os.path.dirname(os.path.abspath(self.cfg.out)), exist_ok=True)
            jsonl = open(self.cfg.out, "w", encoding="utf-8")
            self._files.append(jsonl)
            csv = None
            if self.cfg.csv:
                csv = open(_csv_sibling(self.cfg.out), "w", encoding="utf-8")
                self._files.append(csv)
            self._writer = SeriesWriter(
                jsonl,
                self.columns,
                csv=csv,
                meta={
                    "run": self.run_id,
                    "label": self.cfg.label,
                    "sample_every": self.cfg.sample_every,
                    "core": self.system.core,
                },
            )

        if self.cfg.timeline_out:
            self._builder = TraceEventBuilder(self.cfg.timeline_max_events)
            inspector = getattr(self.system, "inspector", None)
            if inspector is not None:
                self._tracks = StallTracks(self._builder, len(inspector.per_sm))
                self._tracks.install(inspector)
            self._builder.process_name(COUNTER_PID, "engine counters")

        self._take_sample(flat)
        if self.cfg.sample_every > 0:
            self.engine.schedule_observer(self.cfg.sample_every, self._on_sample)

    # ------------------------------------------------------------------
    def _on_sample(self) -> None:
        self._take_sample(self._collect())
        self._maybe_heartbeat()
        engine = self.engine
        # Re-arm only while the simulation itself still has work: an idle
        # engine must run dry exactly as it would without telemetry.
        if not engine._stopped and (engine._active or engine.pending_sim_events() > 0):
            engine.schedule_observer(self.cfg.sample_every, self._on_sample)

    def _take_sample(self, flat: dict[str, object]) -> None:
        row = self._row(flat)
        prev = self._prev_row
        deltas = {c: row[c] - prev.get(c, 0) for c in self.columns}
        cycle = self.engine.now
        wall = time.perf_counter() - self._t0
        if self._writer is not None:
            self._writer.sample(self._seq, cycle, wall, row, deltas)
        if self._builder is not None:
            ts = float(cycle)
            self._builder.counter(
                COUNTER_PID, "engine events", ts, {"events": deltas.get("system.engine.events", 0)}
            )
            stalls = {
                c.split(".", 1)[1]: deltas[c] for c in self.columns if c.startswith("breakdown.")
            }
            if stalls:
                self._builder.counter(COUNTER_PID, "stall cycles", ts, stalls)
        self._prev_row = row
        self._seq += 1
        self.samples_taken += 1

    # ------------------------------------------------------------------
    def _progress(self) -> tuple[float | None, int, int]:
        scheduler = getattr(self.system, "tb_scheduler", None)
        total = getattr(self.system, "total_thread_blocks", 0)
        if scheduler is None or not total:
            return None, 0, 0
        done = total - scheduler.blocks_remaining
        return done / total, done, total

    def _maybe_heartbeat(self, force: bool = False) -> None:
        wall = time.perf_counter() - self._t0
        if not force and wall - self._last_hb_emit < self.cfg.heartbeat_min_s:
            return
        self._last_hb_emit = wall
        cycle = self.engine.now
        d_wall = wall - self._hb_wall
        cps = (cycle - self._hb_cycle) / d_wall if d_wall > 0 else None
        self._hb_wall, self._hb_cycle = wall, cycle
        frac, done, total = self._progress()
        rec = {
            "run": self.run_id,
            "cycle": cycle,
            "events": self.engine.events_processed - self.engine.observer_events,
            "wall_s": round(wall, 3),
            "cycles_per_s": round(cps, 1) if cps is not None else None,
        }
        if frac is not None:
            rec["progress"] = round(frac, 4)
            rec["blocks_done"] = done
            rec["blocks_total"] = total
            rec["eta_s"] = round(wall * (1 - frac) / frac, 1) if frac > 0 else None
        if self._writer is not None:
            self._writer.heartbeat(rec)
        if self.cfg.heartbeat:
            print(format_heartbeat(rec), file=self._stderr, flush=True)

    # ------------------------------------------------------------------
    def finalize(self, result=None) -> None:
        """Final sample, end record, timeline write-out, tap removal."""
        if not self._started:
            return
        self._take_sample(self._collect())
        wall = time.perf_counter() - self._t0
        if self._writer is not None:
            rec = {
                "run": self.run_id,
                "cycle": self.engine.now,
                "events": self.engine.events_processed - self.engine.observer_events,
                "wall_s": round(wall, 3),
                "samples": self.samples_taken,
                "ok": result is not None,
            }
            if result is not None:
                rec["cycles"] = result.cycles
                rec["workload"] = result.workload
            self._writer.end(rec)
        if self._tracks is not None:
            self._tracks.close()
            self._tracks.uninstall()
        if self._builder is not None:
            payload = self._builder.to_dict(
                {"run": self.run_id, "label": self.cfg.label, "time_domain": "cycles"}
            )
            timeline_dir = os.path.dirname(os.path.abspath(self.cfg.timeline_out))
            os.makedirs(timeline_dir, exist_ok=True)
            with open(self.cfg.timeline_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        for fh in self._files:
            try:
                fh.close()
            except OSError:  # pragma: no cover - best effort on teardown
                pass
        self._files = []
        self._writer = None
        self._builder = None
