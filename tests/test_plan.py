"""Tests for the replay-first campaign planner (experiments/plan.py):
grouping by frontend identity, replay-safe override resets, plan
execution semantics (byte identity with the plain executor where replay
is exact, cache resume, trace regeneration), and the campaign wiring."""

import json
import os

import pytest

from repro.experiments import executor
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.plan import (
    REPLAY_SAFE_FIELDS,
    build_plan,
    execute_plan,
    frontend_identity,
    recordable,
)
from repro.experiments.spec import Scenario

TINY = {
    "name": "tiny",
    "workloads": [
        {"name": "hist", "workload": "histogram",
         "workload_args": {"elements_per_warp": 4}, "config": {"num_sms": 2}},
        {"name": "gups", "workload": "gups",
         "workload_args": {"updates_per_warp": 8}, "config": {"num_sms": 2}},
    ],
    "hierarchies": {"default": None},
    "protocols": ["gpu", "denovo"],
}


def tiny_spec() -> CampaignSpec:
    return CampaignSpec.from_dict(json.loads(json.dumps(TINY)))


def scenario(name="cell", workload="streaming", args=None, config=None):
    return Scenario(name=name, workload=workload,
                    workload_args=args or {"warps_per_tb": 2},
                    config=config or {})


class TestReplaySafety:
    def test_replay_safe_fields_are_real_config_fields(self):
        import dataclasses

        from repro.sim.config import SystemConfig

        names = {f.name for f in dataclasses.fields(SystemConfig)}
        assert REPLAY_SAFE_FIELDS <= names

    def test_frontend_fields_split_groups(self):
        a = scenario("a", config={"num_sms": 2, "protocol": "gpu"})
        b = scenario("b", config={"num_sms": 4, "protocol": "gpu"})
        assert frontend_identity(a) != frontend_identity(b)

    def test_replay_safe_fields_share_groups(self):
        a = scenario("a", config={"num_sms": 2, "protocol": "gpu"})
        b = scenario("b", config={"num_sms": 2, "protocol": "denovo",
                                  "mshr_entries": 8, "dram_latency": 300})
        assert frontend_identity(a) == frontend_identity(b)

    def test_workload_args_split_groups(self):
        a = scenario("a", args={"warps_per_tb": 2})
        b = scenario("b", args={"warps_per_tb": 4})
        assert frontend_identity(a) != frontend_identity(b)

    def test_scratchpad_workloads_not_recordable(self):
        assert not recordable(
            Scenario(name="mm", workload="matmul_tiled",
                     workload_args={"n": 16, "tile": 8})
        )

    def test_plain_workloads_recordable(self):
        assert recordable(scenario())

    def test_trace_workloads_not_recordable(self, tmp_path):
        from repro.sim.config import SystemConfig
        from repro.trace import record_workload, save_trace
        from repro.workloads import make_workload

        _, trace = record_workload(SystemConfig(num_sms=1),
                                   make_workload("streaming", warps_per_tb=2))
        path = str(tmp_path / "t.gsitrace")
        save_trace(trace, path)
        assert not recordable(
            Scenario(name="r", workload="trace", workload_args={"path": path})
        )


class TestBuildPlan:
    def test_tiny_campaign_groups_by_workload(self, tmp_path):
        plan = build_plan(tiny_spec().scenarios(), str(tmp_path))
        assert [c.kind for c in plan.cells] == [
            "record", "replay", "record", "replay"
        ]
        assert plan.predicted_executions == 2
        assert plan.counts() == {"execute": 0, "record": 2, "replay": 2}
        # both cells of one workload share one trace file
        assert plan.cells[0].trace_path == plan.cells[1].trace_path
        assert plan.cells[0].trace_path != plan.cells[2].trace_path

    def test_input_order_preserved(self, tmp_path):
        scenarios = tiny_spec().scenarios()
        plan = build_plan(scenarios, str(tmp_path))
        assert [c.name for c in plan.cells] == [s.name for s in scenarios]

    def test_solitary_cells_stay_executions(self, tmp_path):
        plan = build_plan([scenario("only")], str(tmp_path))
        assert [c.kind for c in plan.cells] == ["execute"]
        assert plan.cells[0].trace_path is None

    def test_exact_duplicates_not_replayed(self, tmp_path):
        cells = [
            scenario("a", config={"protocol": "gpu"}),
            scenario("b", config={"protocol": "gpu"}),  # identical inputs
        ]
        plan = build_plan(cells, str(tmp_path))
        # dedup by key serves cell b; no trace is worth recording
        assert [c.kind for c in plan.cells] == ["execute", "execute"]

    def test_unrecordable_group_stays_executions(self, tmp_path):
        cells = [
            Scenario(name="mm-gpu", workload="matmul_tiled",
                     workload_args={"n": 16, "tile": 8},
                     config={"protocol": "gpu"}),
            Scenario(name="mm-denovo", workload="matmul_tiled",
                     workload_args={"n": 16, "tile": 8},
                     config={"protocol": "denovo"}),
        ]
        plan = build_plan(cells, str(tmp_path))
        assert [c.kind for c in plan.cells] == ["execute", "execute"]

    def test_replay_cell_resets_lead_only_fields(self, tmp_path):
        # The record cell pins a hierarchy the target cell doesn't have:
        # the replay must override it back to the default, not inherit it.
        from repro.mem.hierarchy import example_shapes

        shape = example_shapes()["shared-l3"]
        cells = [
            scenario("a", config={"hierarchy": shape, "mshr_entries": 8}),
            scenario("b", config={}),
        ]
        plan = build_plan(cells, str(tmp_path))
        assert plan.cells[1].kind == "replay"
        overrides = plan.cells[1].run.config
        assert overrides["hierarchy"] is None
        assert overrides["mshr_entries"] == 32  # library default

    def test_replay_scenario_keeps_name_and_expect(self, tmp_path):
        cells = [
            scenario("a", config={"protocol": "gpu"}),
            Scenario(name="b", workload="streaming",
                     workload_args={"warps_per_tb": 2},
                     config={"protocol": "denovo"},
                     expect={"min_cycles": 1}),
        ]
        plan = build_plan(cells, str(tmp_path))
        replay = plan.cells[1]
        assert replay.kind == "replay"
        assert replay.run.name == "b"
        assert replay.run.workload == "trace"
        assert replay.run.expect == {"min_cycles": 1}

    def test_identity_is_stable_and_input_sensitive(self, tmp_path):
        scenarios = tiny_spec().scenarios()
        a = build_plan(scenarios, str(tmp_path)).identity()
        b = build_plan(tiny_spec().scenarios(), str(tmp_path)).identity()
        assert a == b
        c = build_plan(scenarios[:-1], str(tmp_path)).identity()
        assert a != c


class TestExecutePlan:
    def test_record_cell_byte_identical_replay_cell_memory_exact(self, tmp_path):
        # The record cell is a full execution (recording is inert), so it
        # is byte-identical to the unplanned run.  The replay cell keeps
        # the memory-side attribution live (that is replay's contract;
        # frontend categories are attributed on executed cells only).
        scenarios = [
            scenario("gpu", config={"protocol": "gpu"}),
            scenario("denovo", config={"protocol": "denovo"}),
        ]
        plain = executor.execute([s for s in scenarios])
        plan = build_plan(scenarios, str(tmp_path / "traces"))
        assert plan.counts()["replay"] == 1
        planned = execute_plan(plan, cache_dir=str(tmp_path / "cache"))
        assert json.dumps(plain[0].result.to_dict(), sort_keys=True) \
            == json.dumps(planned[0].result.to_dict(), sort_keys=True)
        replayed = planned[1].result
        assert replayed.cycles > 0
        rows = dict(replayed.breakdown.rows())
        assert rows["memory_data"] > 0
        assert sum(replayed.breakdown.mem_data.values()) == rows["memory_data"]

    def test_serial_equals_parallel(self, tmp_path):
        # Same trace store, separate result caches (both runs cold):
        # everything but wall clock must be bit-identical.
        def stable(record):
            data = record.to_dict()
            data.pop("elapsed_s")
            return json.dumps(data, sort_keys=True)

        traces = str(tmp_path / "t")
        p1 = build_plan(tiny_spec().scenarios(), traces)
        r1 = execute_plan(p1, jobs=1, cache_dir=str(tmp_path / "c1"))
        p2 = build_plan(tiny_spec().scenarios(), traces)
        r2 = execute_plan(p2, jobs=3, cache_dir=str(tmp_path / "c2"))
        assert [stable(r) for r in r1] == [stable(r) for r in r2]

    def test_second_run_fully_cached(self, tmp_path):
        scenarios = tiny_spec().scenarios()
        plan = build_plan(scenarios, str(tmp_path / "t"))
        execute_plan(plan, cache_dir=str(tmp_path / "c"))
        again = execute_plan(build_plan(tiny_spec().scenarios(),
                                        str(tmp_path / "t")),
                             cache_dir=str(tmp_path / "c"))
        assert all(r.cached for r in again)

    def test_lost_trace_regenerated_from_cached_record(self, tmp_path):
        scenarios = tiny_spec().scenarios()
        plan = build_plan(scenarios, str(tmp_path / "t"))
        execute_plan(plan, cache_dir=str(tmp_path / "c"))
        trace = plan.cells[0].trace_path
        os.remove(trace)
        # replays' cache keys fold the trace content, which is
        # deterministic -- so the regenerated file serves them from cache
        again = execute_plan(build_plan(tiny_spec().scenarios(),
                                        str(tmp_path / "t")),
                             cache_dir=str(tmp_path / "c"))
        assert os.path.exists(trace)
        assert all(r.cached for r in again)

    def test_progress_covers_every_cell(self, tmp_path):
        calls = []
        scenarios = tiny_spec().scenarios()
        plan = build_plan(scenarios, str(tmp_path / "t"))
        execute_plan(plan, cache_dir=str(tmp_path / "c"),
                     progress=lambda *a: calls.append(a))
        assert len(calls) == 4
        assert {c[0] for c in calls} == {s.name for s in scenarios}
        assert [c[3] for c in calls] == [1, 2, 3, 4]  # done counter
        assert all(c[4] == 4 for c in calls)  # total

    def test_duplicate_names_rejected(self, tmp_path):
        cells = [scenario("same"), scenario("same", config={"protocol": "denovo"})]
        with pytest.raises(ValueError, match="duplicate scenario name"):
            execute_plan(build_plan(cells, str(tmp_path)))

    def test_telemetry_index_covers_all_kinds(self, tmp_path):
        scenarios = tiny_spec().scenarios()
        plan = build_plan(scenarios, str(tmp_path / "t"))
        execute_plan(plan, cache_dir=str(tmp_path / "c"),
                     telemetry={"out_dir": str(tmp_path / "tel")})
        index = json.loads((tmp_path / "tel" / "index.json").read_text())
        assert set(index["cells"]) == {s.name for s in scenarios}
        kinds = {c["kind"] for c in index["cells"].values()}
        assert kinds == {"record", "replay"}

    def test_telemetry_index_written_when_fully_cached(self, tmp_path):
        scenarios = tiny_spec().scenarios()
        execute_plan(build_plan(scenarios, str(tmp_path / "t")),
                     cache_dir=str(tmp_path / "c"))
        execute_plan(build_plan(tiny_spec().scenarios(), str(tmp_path / "t")),
                     cache_dir=str(tmp_path / "c"),
                     telemetry={"out_dir": str(tmp_path / "tel")})
        index = json.loads((tmp_path / "tel" / "index.json").read_text())
        assert set(index["cells"]) == {s.name for s in scenarios}
        assert all(c["cached"] for c in index["cells"].values())


class TestSimulateScenarioRecordTo:
    def test_record_payload_matches_plain_execution(self, tmp_path):
        cell = scenario("rec")
        trace = str(tmp_path / "rec.gsitrace")
        recorded = executor.simulate_scenario(cell.to_dict(), record_to=trace)
        plain = executor.simulate_scenario(cell.to_dict())
        assert recorded["result"] == plain["result"]
        assert recorded["key"] == plain["key"]
        assert os.path.exists(trace)

    def test_existing_trace_not_rerecorded(self, tmp_path):
        cell = scenario("rec")
        trace = str(tmp_path / "rec.gsitrace")
        executor.simulate_scenario(cell.to_dict(), record_to=trace)
        before = os.stat(trace).st_mtime_ns
        executor.simulate_scenario(cell.to_dict(), record_to=trace)
        assert os.stat(trace).st_mtime_ns == before


class TestCampaignWiring:
    def test_run_campaign_plan_flag(self, tmp_path):
        result = run_campaign(tiny_spec(), cache_dir=str(tmp_path / "c"),
                              plan=True, trace_dir=str(tmp_path / "t"))
        assert result.replayed_count == 2
        assert "replay-first: 2 of 4 cells" in result.render()
        cells = result.to_dict()["cells"]
        assert sum(1 for c in cells.values() if c["replayed"]) == 2

    def test_unplanned_campaign_has_no_replay_line(self, tmp_path):
        result = run_campaign(tiny_spec(), cache_dir=str(tmp_path / "c"))
        assert result.replayed_count == 0
        assert "replay-first" not in result.render()
        assert all(not c["replayed"] for c in result.to_dict()["cells"].values())
