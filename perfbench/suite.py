"""The benchmark's three workloads and the warm-cache request server.

Every workload has the same shape: :meth:`setup` builds its inputs (the
harness repeats it and times each), :meth:`prepare` fills the warm result
cache and results database that single-cell requests are served from, and
:meth:`run_pass` performs one fixed unit of fresh simulation work followed
by a seeded stream of warm requests.  All simulator work goes through the
public function of the layer it belongs to, timed here and wrapped in a
span named ``<layer>.<function>``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time

from repro.core.report import format_campaign_matrix, to_csv
from repro.experiments.campaign import (
    CampaignResult,
    CampaignSpec,
    default_campaign,
    write_artifacts,
)
from repro.experiments.executor import execute
from repro.experiments.plan import build_plan, execute_plan
from repro.experiments.spec import Scenario
from repro.mem.hierarchy import example_shapes
from repro.results.db import ResultsDB
from repro.system import run_workload
from repro.trace import compare_replay, load_trace, record_workload, replay_trace, save_trace
from repro.workloads import make_workload

#: the fig6.1 UTS kernel under GPU coherence, on a 2-SM slice of the
#: Table 5.1 machine: at this size the simulated length varies little with
#: the tree seed (see README.md), so host-time figures are comparable
#: across seeds
UTS_ARGS = {"total_nodes": 300, "warps_per_tb": 2}
UTS_CONFIG = {"protocol": "gpu", "num_sms": 2}
#: ``Scenario.check`` shape of every UTS execution (workers wait on the
#: shared queue and on memory); a replay rebuilds only the memory rows
UTS_EXPECT = {"nonzero": ["synchronization", "memory_data"]}
REPLAY_EXPECT = {"nonzero": ["memory_data"]}

#: memory-side replay sweep: MSHR sizes x protocols x hierarchy shapes; the
#: first point is the recorded configuration
REPLAY_SWEEP = [
    dict(**mshr, **proto, **hier)
    for mshr in ({}, {"mshr_entries": 1})
    for proto in ({}, {"protocol": "denovo"})
    for hier in ({}, {"hierarchy": example_shapes()["shared-l3"]})
]

#: fleet workload -> the keyword argument that seeds its inputs
FLEET_SEED_ARGS = {
    "spmv": "seed",
    "histogram": "seed",
    "matmul_tiled": "seed",
    "bfs": "graph_seed",
}

#: warm requests per pass: p99 of a pass then has ten samples beyond it
REQUESTS_PER_PASS = 1000


def derive_inputs(seed: int) -> dict:
    """Every generated input of a run, drawn from one seeded stream."""
    rng = random.Random(seed)
    return {
        "tree_seed": rng.randrange(1, 1 << 16),
        "fleet": {name: rng.randrange(1, 1 << 16) for name in FLEET_SEED_ARGS},
        "requests": rng.randrange(1 << 32),
    }


def canonical(result) -> str:
    """The byte form two results are compared in."""
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


class Ops:
    """Counts operations (simulations, replays, requests) and failures.

    An operation fails if it raises, breaks a ``Scenario.check``, or does
    not match its reference; each failure is reported on stderr.
    """

    def __init__(self, log) -> None:
        self.attempted = 0
        self.failed = 0
        self.log = log

    def run(self, what: str, fn, *args):
        """Attempt one operation; returns its value, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any failure of the program counts
            self.failed += 1
            self.log("FAIL %s: %s: %s" % (what, type(exc).__name__, exc))
            return None

    def check(self, what: str, problems) -> None:
        """Mark the last operation failed if ``problems`` is non-empty."""
        if problems:
            self.failed += 1
            self.log("FAIL %s: %s" % (what, "; ".join(problems)[:500]))


class Pass:
    """Measurements of one pass (host seconds, simulated counts)."""

    def __init__(self) -> None:
        self.cells = 0          # fresh cells completed
        self.cells_s = 0.0      # host seconds of the fresh-cell phase
        self.py_cycles = 0      # simulated cycles, python core
        self.py_s = 0.0
        self.fast_cycles = 0    # simulated cycles, fast core
        self.fast_s = 0.0
        self.exec_events = 0    # engine events of run_workload results
        self.replay_events = 0  # events injected by replay_trace
        self.cell_overhead_s = 0.0
        self.executed = 0
        self.replayed = 0
        self.results = []       # python-core results, for simulated counts
        self.latencies = []     # warm request latencies (s)
        self.hits = 0
        self.pass_s = 0.0
        self.traced = False
        self.span_range = (0, 0)


# ---------------------------------------------------------------------------
# cold campaigns and the warm request server
# ---------------------------------------------------------------------------

class Campaign:
    """One campaign run cold into a fresh cache, trace store and database."""

    def __init__(self, spec: CampaignSpec, workdir: str, tracer) -> None:
        os.makedirs(workdir)
        self.workdir = workdir
        self.cache_dir = os.path.join(workdir, "cache")
        self.trace_dir = os.path.join(workdir, "traces")
        self.db_path = os.path.join(workdir, "results.db")
        span = tracer.span
        with span("experiments.CampaignSpec.scenarios"):
            scenarios = spec.scenarios()
        with span("experiments.build_plan"):
            self.plan = build_plan(scenarios, self.trace_dir)
        t1 = time.perf_counter()
        with span("experiments.execute_plan"):
            self.records = execute_plan(self.plan, cache_dir=self.cache_dir)
        t2 = time.perf_counter()
        result = CampaignResult(spec=spec, records=self.records)
        with span("experiments.write_artifacts"):
            write_artifacts(result, os.path.join(workdir, "artifacts"))
        with span("results.ResultsDB.ingest_campaign"):
            with ResultsDB(self.db_path) as db:
                db.ingest_campaign(result)
        with span("core.report.format_campaign_matrix"):
            format_campaign_matrix(result.matrix_rows())
        with span("core.report.to_csv"):
            to_csv({r.scenario.name: r.result.breakdown for r in self.records})
        fresh = [r for r in self.records if not r.cached]
        # host seconds of the fresh simulations alone; the rest of
        # execute_plan is the per-cell cache and trace-store overhead
        self.sim_s = sum(r.elapsed_s for r in fresh)
        self.cell_overhead_s = (t2 - t1) - self.sim_s
        self.cells = len(fresh)
        self.cycles = sum(r.result.cycles for r in fresh)
        self.replayed = sum(1 for c in self.plan.cells if c.kind == "replay")
        self.executed = len(self.plan.cells) - self.replayed
        self.canonical = [canonical(r.result) for r in self.records]

    def violations(self) -> list[str]:
        return [
            "%s: %s" % (r.scenario.name, "; ".join(r.violations))
            for r in self.records if r.violations
        ]

    def trace_bytes(self) -> int:
        if not os.path.isdir(self.trace_dir):
            return 0
        return sum(
            os.path.getsize(os.path.join(self.trace_dir, name))
            for name in os.listdir(self.trace_dir)
        )


class Server:
    """Answers single-cell requests from a finished campaign's warm cache.

    A request computes the key of what the cell ran (the planner serves
    replay cells by a trace-replay scenario), reads that run's row from
    the results database, and loads the full result through the executor,
    which must serve it from the cache.  The served result must equal the
    one the campaign produced cold.
    """

    def __init__(self, campaign: Campaign, tracer, rng: random.Random) -> None:
        self.campaign = campaign
        self.tracer = tracer
        self.rng = rng
        self.db = ResultsDB(campaign.db_path)
        self.requests = 0

    def close(self) -> None:
        self.db.close()

    def serve(self, ops: Ops, p: Pass, count: int) -> None:
        cells = self.campaign.plan.cells
        for _ in range(count):
            self.requests += 1
            index = self.rng.randrange(len(cells))
            what = "request %d (%s)" % (self.requests, cells[index].name)
            self.tracer.request = "request-%d" % self.requests
            got = ops.run(what, self._request, cells[index], p)
            self.tracer.request = None
            if got is None:
                continue
            rows, record = got
            problems = []
            if record.cached:
                p.hits += 1
            else:
                problems.append("cache miss on a warm cell")
            cold = self.campaign.records[index].result
            if not rows or rows[0][0] != cold.cycles:
                problems.append("results database row missing or different")
            if canonical(record.result) != self.campaign.canonical[index]:
                problems.append("warm result differs from the cold result")
            problems += record.violations
            ops.check(what, problems)

    def _request(self, cell, p: Pass):
        span = self.tracer.span
        t0 = time.perf_counter()
        with span("experiments.Scenario.key"):
            key = cell.run.key()
        with span("results.ResultsDB.query"):
            _, rows = self.db.query(
                "SELECT cycles, result_sha256 FROM runs WHERE key = ?", (key,)
            )
        with span("experiments.execute"):
            record = execute([cell.run], cache_dir=self.campaign.cache_dir)[0]
        p.latencies.append(time.perf_counter() - t0)
        return rows, record


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, inputs: dict, tracer, workdir: str, ops: Ops) -> None:
        self.inputs = inputs
        self.tracer = tracer
        self.workdir = workdir
        self.ops = ops
        self.server: "Server | None" = None
        self.first: "list[str] | None" = None  # first pass's outputs
        self.trace_bytes = 0

    def uts_scenario(self, **config) -> Scenario:
        args = dict(UTS_ARGS, tree_seed=self.inputs["tree_seed"])
        return Scenario("uts", "uts", args, dict(UTS_CONFIG, **config), dict(UTS_EXPECT))

    def build(self, scenario: Scenario):
        """(config, workload) for ``scenario``, each built by its layer."""
        span = self.tracer.span
        with span("sim.Scenario.build_config"):
            config = scenario.build_config()
        with span("workloads.make_workload"):
            workload = make_workload(scenario.workload, **scenario.workload_args)
        return config, workload

    def serve_from(self, spec: CampaignSpec) -> None:
        """Run ``spec`` cold and keep it as the warm request target."""
        campaign = Campaign(spec, os.path.join(self.workdir, "serving"), self.tracer)
        self.ops.attempted += campaign.cells
        self.ops.check("serving campaign", campaign.violations())
        self.server = Server(
            campaign, self.tracer, random.Random(self.inputs["requests"])
        )

    def serve(self, p: Pass) -> None:
        self.server.serve(self.ops, p, REQUESTS_PER_PASS)

    def same_as_first(self, what: str, outputs: "list[str]") -> "str | None":
        """Outputs of this pass vs the first pass's; returns the digest of
        the first pass's outputs (checked against the reference)."""
        if self.first is None:
            self.first = outputs
            return digest(outputs)
        if outputs != self.first:
            self.ops.check(what, ["outputs differ from the first pass"])
        return None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


class UtsExec(Workload):
    """One long UTS execution on each core, then warm requests."""

    name = "uts-exec"

    def setup(self) -> None:
        self.build(self.uts_scenario())

    def prepare(self) -> None:
        self.serve_from(CampaignSpec(
            workloads=[{"name": "uts", "workload": "uts",
                        "workload_args": self.uts_scenario().workload_args,
                        "config": {"num_sms": UTS_CONFIG["num_sms"]},
                        "expect": UTS_EXPECT}],
            hierarchies={"default": None},
            protocols=[UTS_CONFIG["protocol"]],
            name="uts-exec",
        ))

    def run_pass(self, p: Pass) -> "str | None":
        out = {}
        t_cells = time.perf_counter()
        for core in ("python", "fast"):
            scenario = self.uts_scenario(**({"core": "fast"} if core == "fast" else {}))
            self.tracer.request = "cell-%s" % core
            config, workload = self.build(scenario)
            t0 = time.perf_counter()
            with self.tracer.span("system.run_workload"):
                result = self.ops.run("uts %s run" % core, run_workload, config, workload)
            dt = time.perf_counter() - t0
            self.tracer.request = None
            if result is None:
                continue
            self.ops.check("uts %s check" % core, scenario.check(result))
            out[core] = result
            p.cells += 1
            p.executed += 1
            p.exec_events += result.stats["engine"]["events"]
            if core == "python":
                p.py_cycles += result.cycles
                p.py_s += dt
                p.results.append(result)
            else:
                p.fast_cycles += result.cycles
                p.fast_s += dt
        p.cells_s = time.perf_counter() - t_cells
        self.serve(p)
        if len(out) < 2:
            return None
        py, fast = canonical(out["python"]), canonical(out["fast"])
        if py != fast:
            self.ops.check("uts fast core", ["fast-core result differs from python core"])
        return self.same_as_first("uts pass", [py])


class UtsReplay(Workload):
    """Replay the UTS trace through a memory-side sweep, then warm requests."""

    name = "uts-replay"

    def setup(self) -> None:
        span = self.tracer.span
        config, workload = self.build(self.uts_scenario())
        with span("trace.record_workload"):
            self.recorded_run, trace = record_workload(config, workload)
        self.trace_path = os.path.join(self.workdir, "uts.gsitrace")
        with span("trace.save_trace"):
            save_trace(trace, self.trace_path)
        with span("trace.load_trace"):
            self.trace = load_trace(self.trace_path)
        self.trace_bytes = os.path.getsize(self.trace_path)

    def prepare(self) -> None:
        self.serve_from(CampaignSpec(
            workloads=[{"name": "uts-trace", "workload": "trace",
                        "workload_args": {"path": self.trace_path},
                        "expect": REPLAY_EXPECT}],
            hierarchies={"default": None},
            protocols=[UTS_CONFIG["protocol"]],
            name="uts-replay",
        ))

    def _replay(self, p: Pass, i: int, overrides: dict, core: str):
        self.tracer.request = "replay-%d-%s" % (i, core)
        t0 = time.perf_counter()
        with self.tracer.span("trace.replay_trace"):
            result = self.ops.run(
                "replay %d (%s) %s" % (i, core, sorted(overrides)),
                replay_trace, self.trace, None, dict(overrides, core=core),
            )
        dt = time.perf_counter() - t0
        self.tracer.request = None
        if result is None:
            return None
        p.cells += 1
        p.replayed += 1
        p.replay_events += result.stats["replay"]["events_injected"]
        if core == "python":
            p.py_cycles += result.cycles
            p.py_s += dt
            p.results.append(result)
        else:
            p.fast_cycles += result.cycles
            p.fast_s += dt
        return result

    def run_pass(self, p: Pass) -> "str | None":
        t_cells = time.perf_counter()
        results = [
            self._replay(p, i, point, "python") for i, point in enumerate(REPLAY_SWEEP)
        ]
        fast = self._replay(p, 0, REPLAY_SWEEP[0], "fast")
        p.cells_s = time.perf_counter() - t_cells
        self.serve(p)
        if any(r is None for r in results) or fast is None:
            return None
        if self.first is None:
            self.ops.check("replay vs execution", compare_replay(self.recorded_run, results[0]))
        outputs = [canonical(r) for r in results]
        if canonical(fast) != outputs[0]:
            self.ops.check("replay fast core", ["fast-core replay differs from python core"])
        return self.same_as_first("replay pass", outputs)


class FleetCampaign(Workload):
    """The stock fleet campaign, cold on each core, then warm requests."""

    name = "fleet-campaign"

    def spec(self, core: "str | None" = None) -> CampaignSpec:
        spec = default_campaign()
        for entry in spec.workloads:
            arg = FLEET_SEED_ARGS.get(entry["workload"])
            if arg is not None:
                entry["workload_args"][arg] = self.inputs["fleet"][entry["workload"]]
        if core is not None:
            spec.config = {"core": core}
        return spec

    def setup(self) -> None:
        span = self.tracer.span
        with span("experiments.CampaignSpec.scenarios"):
            scenarios = self.spec().scenarios()
        for scenario in scenarios:
            self.build(scenario)

    def prepare(self) -> None:
        self.passes = 0

    def run_pass(self, p: Pass) -> "str | None":
        self.passes += 1
        base = os.path.join(self.workdir, "pass-%d" % self.passes)
        t_cells = time.perf_counter()
        runs = {}
        for core in ("python", "fast"):
            self.tracer.request = "campaign-%s" % core
            runs[core] = self.ops.run(
                "fleet campaign (%s)" % core, Campaign,
                self.spec(None if core == "python" else core),
                os.path.join(base, core), self.tracer,
            )
            self.tracer.request = None
        p.cells_s = time.perf_counter() - t_cells
        py, fast = runs["python"], runs["fast"]
        for core, run in runs.items():
            if run is None:
                continue
            self.ops.attempted += run.cells - 1  # one op per fresh cell
            self.ops.check("fleet campaign (%s)" % core, run.violations())
            p.cells += run.cells
            p.executed += run.executed
            p.replayed += run.replayed
        if py is None or fast is None:
            return None
        p.py_cycles, p.py_s = py.cycles, py.sim_s
        p.fast_cycles, p.fast_s = fast.cycles, fast.sim_s
        p.cell_overhead_s = py.cell_overhead_s
        p.results = [r.result for r in py.records if not r.cached]
        self.trace_bytes = py.trace_bytes()
        if fast.canonical != py.canonical:
            self.ops.check("fleet fast core", ["fast-core campaign differs from python core"])
        if self.server is not None:  # the previous pass's campaign
            self.server.close()
            shutil.rmtree(os.path.dirname(self.server.campaign.workdir))
        self.server = Server(py, self.tracer, random.Random(
            self.inputs["requests"] + self.passes))
        self.serve(p)
        return self.same_as_first("fleet pass", py.canonical)


WORKLOADS = {cls.name: cls for cls in (UtsExec, UtsReplay, FleetCampaign)}
