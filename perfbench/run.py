"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uts-exec --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans written to ``perfbench/out/``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
REFERENCE = ROOT / "perfbench" / "reference.json"

#: timed set-ups per run; setup_s reports the median
SETUPS = 3

#: peak_rss_mb is read when this many passes have run (every run makes at
#: least this many), so it measures the same work whatever the host speed
RSS_PASSES = 3

#: lookup_ms.p50 is the mean of the medians of windows of this many
#: consecutive requests (see README.md, "Run-to-run spread and bounds")
P50_WINDOW = 100

#: the imports a run needs, timed in fresh interpreters for setup_s
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.system, repro.trace, repro.experiments.campaign, "
    "repro.experiments.plan, repro.results.db, repro.core.report, "
    "repro.workloads.uts, repro.workloads.fleet, repro.workloads.synthetic, "
    "repro.workloads.graph; "
    "print(time.perf_counter() - t)"
)

LAYERS = ("bench", "workloads", "sim", "system", "trace", "experiments", "results", "core")

STALL_CATEGORIES = (
    "no_stall", "idle", "control", "synchronization", "memory_data",
    "memory_structural", "compute_data", "compute_structural",
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_seconds() -> float:
    """Import time of the simulator's layers in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def simulated_counts(results) -> dict:
    """Per-layer counts of simulated work; identical for identical outputs."""
    events = instructions = hits = misses = merges = 0
    l2 = dram = messages = blocked = 0
    hop_weight = 0.0
    stall = dict.fromkeys(STALL_CATEGORIES, 0)
    sm_cycles = 0
    for r in results:
        s = r.stats
        events += s["engine"]["events"]
        instructions += r.instructions
        for l1 in s["l1"].values():
            hits += l1["load_hits"]
            misses += l1["load_misses"]
            merges += l1["mshr_merges"]
        l2 += s["l2"]["loads"] + s["l2"]["stores"] + s["l2"]["atomics"]
        dram += s["dram"]["accesses"]
        messages += s["mesh"]["messages"]
        hop_weight += s["mesh"]["avg_hops"] * s["mesh"]["messages"]
        if "replay" in s:
            blocked += sum(s["replay"]["blocked_cycles"].values())
        for category, cycles in r.breakdown.rows()[: len(STALL_CATEGORIES)]:
            stall[category] += cycles
        sm_cycles += r.breakdown.total_cycles
    out = {
        "sim.engine_events": (events, "count"),
        "gpu.instructions": (instructions, "count"),
        "mem.l1_load_hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "mem.mshr_merges": (merges, "count"),
        "mem.l2_requests": (l2, "count"),
        "mem.dram_accesses": (dram, "count"),
        "noc.messages": (messages, "count"),
        "noc.avg_hops": (hop_weight / max(1, messages), "hops"),
        "trace.blocked_cycles": (blocked, "cycles"),
    }
    for category in STALL_CATEGORIES:
        out["core.stall_share.%s" % category] = (stall[category] / max(1, sm_cycles), "ratio")
    return out


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict:
    # On a shared host request latency switches between two speeds ~1.6x
    # apart every few hundred requests, with or without simulations in the
    # process.  A window of P50_WINDOW requests mostly sits in one of them,
    # so the mean of the window medians follows the share of each speed
    # smoothly where one median over all requests would jump between them.
    # p99 is taken per pass (1000 requests: ten samples beyond it) and its
    # median over passes is reported.
    p50 = statistics.fmean(
        statistics.median(p.latencies[i:i + P50_WINDOW])
        for p in passes
        for i in range(0, len(p.latencies) - P50_WINDOW + 1, P50_WINDOW)
    )
    p99 = statistics.median(percentile(p.latencies, 99) for p in passes)
    return {
        "sim_cycles_per_s": (statistics.median(p.py_cycles / p.py_s for p in passes), "cycles/s"),
        "fast_sim_cycles_per_s": (
            statistics.median(p.fast_cycles / p.fast_s for p in passes), "cycles/s"),
        "cells_per_min": (statistics.median(60 * p.cells / p.cells_s for p in passes), "cells/min"),
        "lookup_ms.p50": (1e3 * p50, "ms"),
        "lookup_ms.p99": (1e3 * p99, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, setup_marks, passes, workload) -> dict:
    """Per-layer metrics from the spans of the set-ups and traced passes."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    setup_d = [tracer.durations(a, b) for a, b in setup_marks]
    pass_d = [tracer.durations(*p.span_range) for p in traced]

    def seconds(*names) -> float:
        """Median per set-up plus median per traced pass of the summed spans."""
        per_setup = statistics.median(sum(sum(d.get(n, ())) for n in names) for d in setup_d)
        per_pass = statistics.median(sum(sum(d.get(n, ())) for n in names) for d in pass_d)
        return per_setup + per_pass

    def call_median(name: str, scale: float) -> float:
        calls = [x for d in pass_d for x in d.get(name, ())]
        return scale * statistics.median(calls) if calls else 0.0

    def per_event(name: str, events) -> float:
        rates = [sum(d.get(name, ())) / n for d, n in zip(pass_d, events) if n]
        return 1e9 * statistics.median(rates) if rates else 0.0

    requests = sum(len(p.latencies) for p in passes)
    pass_time_t = statistics.median(p.pass_s for p in traced)
    pass_time_u = statistics.median(p.pass_s for p in plain)
    out = {
        "system.run_s": (seconds("system.run_workload"), "s"),
        "system.ns_per_event": (
            per_event("system.run_workload", [p.exec_events for p in traced]), "ns"),
        "trace.replay_s": (seconds("trace.replay_trace"), "s"),
        "trace.replay_ns_per_event": (
            per_event("trace.replay_trace", [p.replay_events for p in traced]), "ns"),
        "trace.record_s": (seconds("trace.record_workload"), "s"),
        "trace.save_s": (seconds("trace.save_trace"), "s"),
        "trace.load_s": (seconds("trace.load_trace"), "s"),
        "trace.bytes": (workload.trace_bytes, "bytes"),
        "workloads.build_s": (seconds("workloads.make_workload"), "s"),
        "sim.config_s": (seconds("sim.Scenario.build_config"), "s"),
        "experiments.plan_s": (seconds("experiments.build_plan"), "s"),
        "experiments.cell_overhead_s": (
            statistics.median(p.cell_overhead_s for p in traced), "s"),
        "experiments.write_artifacts_s": (seconds("experiments.write_artifacts"), "s"),
        "results.ingest_s": (seconds("results.ResultsDB.ingest_campaign"), "s"),
        "core.render_s": (
            seconds("core.report.format_campaign_matrix", "core.report.to_csv"), "s"),
        "experiments.key_us": (call_median("experiments.Scenario.key", 1e6), "us"),
        "experiments.cache_hit_ratio": (
            sum(p.hits for p in passes) / max(1, requests), "ratio"),
        "results.query_ms": (call_median("results.ResultsDB.query", 1e3), "ms"),
        "experiments.executed": (passes[0].executed, "count"),
        "experiments.replayed": (passes[0].replayed, "count"),
        "tracing.overhead_s": (pass_time_t - pass_time_u, "s"),
        "tracing.overhead_pct": (100 * (pass_time_t / pass_time_u - 1), "%"),
    }
    out.update(simulated_counts(passes[0].results))
    self_times = [tracer.self_times(*p.span_range) for p in traced]
    for layer in LAYERS[1:]:
        out["self_s.%s" % layer] = (
            statistics.median(s.get(layer, 0.0) for s in self_times), "s")
    out["self_s.bench"] = (
        statistics.median(
            p.pass_s - sum(s.values()) for p, s in zip(traced, self_times)), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log("error: simulator sources not found under %s" % SRC)
        return 2
    # The python core is the default this benchmark measures; the fast
    # core is pinned per config where it is measured.
    os.environ.pop("REPRO_CORE", None)
    # The results database asks git for provenance: keep git inside ROOT.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(SRC))

    import suite
    from tracing import Tracer

    if args.workload not in suite.WORKLOADS:
        log("error: unknown workload %r; choose from %s"
            % (args.workload, ", ".join(suite.WORKLOADS)))
        return 2
    reference = json.loads(REFERENCE.read_text())

    inputs = suite.derive_inputs(args.seed)
    tracer = Tracer()
    ops = suite.Ops(log)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / ("work-%d" % os.getpid())
    workload = None
    peak_rss_mb = 0.0
    try:
        # Import probes run once per set-up and once after every pass, so
        # they sample the whole run rather than one moment of the host.
        import_times = []
        setup_times, setup_marks = [], []
        for _ in range(SETUPS):
            import_times.append(import_seconds())
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            tracer.enabled = bool(args.trace)
            mark = tracer.mark()
            t0 = time.perf_counter()
            workload = suite.WORKLOADS[args.workload](inputs, tracer, str(workdir), ops)
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            setup_marks.append((mark, tracer.mark()))

        tracer.enabled = False
        workload.prepare()

        passes = []
        digests = []
        t_start = time.perf_counter()
        while True:
            p = suite.Pass()
            # A traced run alternates traced and untraced passes, so the
            # tracing overhead is measured within the run.
            p.traced = bool(args.trace) and len(passes) % 2 == 0
            tracer.enabled = p.traced
            mark = tracer.mark()
            t0 = time.perf_counter()
            d = workload.run_pass(p)
            p.pass_s = time.perf_counter() - t0
            p.span_range = (mark, tracer.mark())
            tracer.enabled = False
            passes.append(p)
            if len(passes) > 1:
                # counts come from the first pass; dropping later results
                # keeps the heap, and so the collector's work, constant
                p.results = []
            if d is not None:
                digests.append(d)
            if len(passes) == RSS_PASSES:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            import_times.append(import_seconds())
            enough = len(passes) >= (4 if args.trace else 3)
            if enough and time.perf_counter() - t_start >= args.seconds:
                break
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if digests and args.seed == reference["seed"]:
        if reference["digests"].get(args.workload) != digests[0]:
            # a change meant to alter simulated results updates
            # reference.json by hand with the digest printed here
            ops.check("reference digest", [
                "outputs differ from reference.json: digest %s" % digests[0]])

    correct = ops.failed == 0 and bool(digests)
    if args.trace:
        metrics = per_layer(tracer, setup_marks, passes, workload)
        spans = OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        tracer.dump(str(spans))
        log("spans written to %s" % spans.relative_to(ROOT))
    else:
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        metrics = end_to_end(passes, setup_s, peak_rss_mb)

    requests = sum(len(p.latencies) for p in passes)
    print("workload %s seed %d: %d passes, %d warm requests, ops_total %d, ops_failed %d"
          % (args.workload, args.seed, len(passes), requests, ops.attempted, ops.failed))
    for name, (value, unit) in metrics.items():
        print("  %-34s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
