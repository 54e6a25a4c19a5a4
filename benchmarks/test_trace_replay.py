"""Trace replay speedup: record fig 6.1's UTS run once, replay it.

The replay must reproduce the execution-driven run's memory-side statistics
*exactly* and run at least 3x faster (it skips the GPU compute frontend and
simulates only the memory hierarchy).  Both the execution-driven scenario
and the replay go through the scenario executor, so the session's
``BENCH_engine.json`` perf-trajectory artifact carries a wall-clock row for
each.  The speedup itself is the ratio of the two legs' *process CPU*
seconds, which a co-scheduled job on the host cannot inflate; a leg that
misses the bar is re-measured the same way for both legs.
"""

import os
import time

from repro.experiments.executor import execute
from repro.experiments.spec import Scenario
from repro.trace import compare_replay, record_workload, save_trace
from repro.workloads import make_workload

from benchmarks.conftest import UTS_NODES, run_once

#: the exact fig 6.1 GPU-coherence scenario (same key as test_fig61_uts's
#: grid point, so the BENCH artifact keeps a single execution row)
_EXEC_SCENARIO = Scenario(
    "gpu-coh",
    "uts",
    {"total_nodes": UTS_NODES, "warps_per_tb": 4},
    {"protocol": "gpu"},
)

MIN_SPEEDUP = 3.0


def _timed(scenario):
    """Execute one scenario in-process; return (record, CPU seconds)."""
    start = time.process_time()
    record = execute([scenario])[0]
    return record, time.process_time() - start


def test_trace_replay_speedup_and_exactness(benchmark, show):
    # A stable location (same place as the other bench artifacts,
    # gitignored), referenced *repo-relative* whenever the cwd allows: the
    # scenario cache key embeds the path string and the trace content hash,
    # and both are then machine-independent, so the BENCH_engine.json
    # replay row keeps one key across sessions and checkouts.  Falls back
    # to the absolute path when pytest runs from an unusual cwd.
    abs_path = os.path.join(
        os.path.dirname(__file__), "artifacts", "fig61-uts.gsitrace"
    )
    os.makedirs(os.path.dirname(abs_path), exist_ok=True)
    rel_path = os.path.relpath(abs_path)
    trace_path = rel_path if not rel_path.startswith("..") else abs_path

    replay_scenario = Scenario("fig6.1-uts-replay", "trace", {"path": trace_path})

    def flow():
        # 1. execution-driven run, through the executor (timed row).
        exec_record, exec_s = _timed(_EXEC_SCENARIO)
        # 2. record the trace (not a benchmark row: recording rides on an
        #    execution-driven run and exists to be amortized).
        result, trace = record_workload(
            _EXEC_SCENARIO.build_config(),
            make_workload("uts", total_nodes=UTS_NODES, warps_per_tb=4),
            name="uts",
        )
        save_trace(trace, trace_path)
        # 3. replay, through the executor (timed row).
        replay_record, replay_s = _timed(replay_scenario)
        return exec_record, exec_s, result, replay_record, replay_s

    exec_record, exec_s, recorded_result, replay_record, replay_s = run_once(
        benchmark, flow
    )

    mismatches = compare_replay(recorded_result, replay_record.result)
    assert not mismatches, "replay diverged from execution:\n" + "\n".join(
        mismatches
    )
    assert replay_record.result.cycles == exec_record.result.cycles

    if exec_s / replay_s < MIN_SPEEDUP:
        # CPU time still moves with cache pressure from a busy host.
        # Re-measure both legs once and keep each leg's best: the same
        # policy for the baseline as for the measured candidate.
        exec_s = min(exec_s, _timed(_EXEC_SCENARIO)[1])
        replay_s = min(replay_s, _timed(replay_scenario)[1])
    speedup = exec_s / replay_s
    show(
        "fig6.1 UTS (%d nodes): execution %.2f CPU-s, replay %.2f CPU-s -> %.2fx "
        "(trace: %d events, %s)"
        % (
            UTS_NODES,
            exec_s,
            replay_s,
            speedup,
            replay_record.result.stats["replay"]["events_injected"],
            os.path.basename(trace_path),
        )
    )
    assert speedup >= MIN_SPEEDUP, (
        "replay only %.2fx faster than execution (bar: %.1fx)"
        % (speedup, MIN_SPEEDUP)
    )
