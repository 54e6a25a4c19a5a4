"""Tests for the distributed campaign queue (experiments/dispatch.py):
queue creation/attach, claim-by-rename leases, expired-lease reclaim,
record->replay dependency gating, failure propagation, the coordinator's
merge (byte identity with the in-process planned run), and crash-resume
after a SIGKILLed worker."""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import cli
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.dispatch import (
    QueueError,
    _claim_next,
    create_or_attach_queue,
    load_manifest,
    reclaim_expired,
    run_campaign_distributed,
    run_worker,
)
from repro.experiments.plan import build_plan

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

#: one workload whose record cell runs ~1s -- long enough to SIGKILL a
#: worker mid-simulation deterministically
SLOW = {
    "name": "slow",
    "workloads": [
        {"name": "hist", "workload": "histogram",
         "workload_args": {"elements_per_warp": 600}, "config": {"num_sms": 2}},
    ],
    "hierarchies": {"default": None},
    "protocols": ["gpu", "denovo"],
}


def spec_of(data) -> CampaignSpec:
    return CampaignSpec.from_dict(json.loads(json.dumps(data)))


def make_queue(tmp_path, data=TINY):
    queue = str(tmp_path / "q")
    plan = build_plan(spec_of(data).scenarios(), str(tmp_path / "traces"))
    create_or_attach_queue(queue, plan, data["name"], str(tmp_path / "cache"))
    return queue, plan


def stable(record) -> str:
    data = record.to_dict()
    data.pop("elapsed_s")
    data.pop("cached")
    return json.dumps(data, sort_keys=True)


class TestQueueSetup:
    def test_layout_and_manifest(self, tmp_path):
        queue, plan = make_queue(tmp_path)
        for state in ("todo", "claimed", "done", "failed"):
            assert os.path.isdir(os.path.join(queue, state))
        manifest = load_manifest(queue)
        assert manifest["total"] == 4
        assert manifest["plan_id"] == plan.identity()
        assert len(os.listdir(os.path.join(queue, "todo"))) == 4

    def test_replay_tasks_carry_record_dependency(self, tmp_path):
        queue, plan = make_queue(tmp_path)
        replay = json.load(open(os.path.join(queue, "todo", "0001.json")))
        assert replay["kind"] == "replay"
        assert replay["after"] == "0000"

    def test_attach_with_other_plan_refused(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        other = build_plan(spec_of(SLOW).scenarios(), str(tmp_path / "traces"))
        with pytest.raises(QueueError, match="refusing to enqueue"):
            create_or_attach_queue(queue, other, "slow", str(tmp_path / "cache"))

    def test_attach_same_plan_is_idempotent(self, tmp_path):
        queue, plan = make_queue(tmp_path)
        create_or_attach_queue(queue, plan, "tiny", str(tmp_path / "cache"))
        assert len(os.listdir(os.path.join(queue, "todo"))) == 4

    def test_load_manifest_on_non_queue(self, tmp_path):
        with pytest.raises(QueueError, match="not a campaign queue"):
            load_manifest(str(tmp_path / "nowhere"))


class TestLeases:
    def test_claim_is_exclusive_and_ordered(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        first = _claim_next(queue)
        assert first["id"] == "0000" and first["kind"] == "record"
        # next claimable is the other workload's record; both replays wait
        # on traces that don't exist yet
        second = _claim_next(queue)
        assert second["id"] == "0002" and second["kind"] == "record"
        assert _claim_next(queue) is None
        assert sorted(os.listdir(os.path.join(queue, "claimed"))) == [
            "0000.json", "0002.json"
        ]

    def test_reclaim_expired_exactly_once(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        task = _claim_next(queue)
        assert reclaim_expired(queue, max_age_s=3600.0) == []  # lease fresh
        assert reclaim_expired(queue, max_age_s=0.0) == [task["id"]]
        assert reclaim_expired(queue, max_age_s=0.0) == []  # already back
        assert os.path.exists(os.path.join(queue, "todo", "0000.json"))

    def test_reclaim_drops_lease_of_completed_task(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        task = _claim_next(queue)
        # worker finished (marker written) but died before removing the
        # lease: reclaim must drop it, not re-issue the task
        with open(os.path.join(queue, "done", "0000.json"), "w") as fh:
            json.dump({"id": "0000"}, fh)
        assert reclaim_expired(queue, max_age_s=0.0) == []
        assert not os.path.exists(os.path.join(queue, "claimed", "0000.json"))
        assert not os.path.exists(os.path.join(queue, "todo", "0000.json"))


class TestWorker:
    def test_drains_queue_and_reports_stats(self, tmp_path):
        queue, plan = make_queue(tmp_path)
        stats = run_worker(queue, poll_s=0.01)
        assert stats["claimed"] == 4
        assert stats["executed"] == 4
        assert stats["failed"] == 0
        assert len(os.listdir(os.path.join(queue, "done"))) == 4
        assert os.listdir(os.path.join(queue, "claimed")) == []
        # results landed in the shared cache, traces in the trace store
        assert len(os.listdir(tmp_path / "cache")) == 4
        assert len(os.listdir(tmp_path / "traces")) == 2

    def test_max_tasks_stops_early(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        stats = run_worker(queue, poll_s=0.01, max_tasks=1)
        assert stats["claimed"] == 1

    def test_second_worker_serves_from_cache(self, tmp_path):
        queue, plan = make_queue(tmp_path)
        run_worker(queue, poll_s=0.01)
        # wipe markers, keep the cache: a re-run claims every task again
        # but serves all of them from the shared result cache
        for name in os.listdir(os.path.join(queue, "done")):
            os.remove(os.path.join(queue, "done", name))
        create_or_attach_queue(str(tmp_path / "q"), plan, "tiny",
                               str(tmp_path / "cache"))
        stats = run_worker(queue, poll_s=0.01)
        assert stats["cached"] == 4
        assert stats["executed"] == 0

    def test_failed_record_fails_dependent_replays(self, tmp_path):
        queue, plan = make_queue(tmp_path)
        # poison the first record task: its trace workload path never
        # exists, so key() (content fingerprint) raises inside the worker
        bad = {"id": "0000", "kind": "record",
               "scenario": {"name": "hist/default/gpu", "workload": "trace",
                            "workload_args": {"path": str(tmp_path / "no.gsitrace")},
                            "config": {}, "expect": {}},
               "record_to": str(tmp_path / "traces" / "never.gsitrace"),
               "group": "g"}
        with open(os.path.join(queue, "todo", "0000.json"), "w") as fh:
            json.dump(bad, fh)
        stats = run_worker(queue, poll_s=0.01)
        assert stats["failed"] == 2  # the record and its dependent replay
        failed = sorted(os.listdir(os.path.join(queue, "failed")))
        assert failed == ["0000.json", "0001.json"]
        dependent = json.load(open(os.path.join(queue, "failed", "0001.json")))
        assert "record task 0000 failed" in dependent["error"]


class TestCoordinator:
    def test_distributed_matches_planned_serial(self, tmp_path):
        spec = spec_of(TINY)
        traces = str(tmp_path / "traces")
        serial = run_campaign(spec, jobs=1, cache_dir=str(tmp_path / "c1"),
                              plan=True, trace_dir=traces,
                              telemetry={"out_dir": str(tmp_path / "tel1")})
        dist = run_campaign_distributed(
            spec_of(TINY), workers=2, queue_dir=str(tmp_path / "q"),
            cache_dir=str(tmp_path / "c2"), trace_dir=traces, poll_s=0.01,
            telemetry={"out_dir": str(tmp_path / "tel2")},
        )
        assert [stable(r) for r in serial.records] \
            == [stable(r) for r in dist.records]
        assert dist.to_csv() == serial.to_csv()
        assert dist.replayed_count == 2
        # both lanes write the same index.json, byte for byte
        index = (tmp_path / "tel1" / "index.json").read_bytes()
        assert index == (tmp_path / "tel2" / "index.json").read_bytes()
        kinds = {c["kind"] for c in json.loads(index)["cells"].values()}
        assert kinds == {"record", "replay"}

    def test_progress_and_second_invocation_cached(self, tmp_path):
        calls = []
        dist = run_campaign_distributed(
            spec_of(TINY), workers=2, queue_dir=str(tmp_path / "q"),
            cache_dir=str(tmp_path / "c"), poll_s=0.01,
            progress=lambda *a: calls.append(a),
        )
        assert len(calls) == 4
        assert [c[3] for c in calls] == [1, 2, 3, 4]
        assert not dist.fully_cached
        again = run_campaign_distributed(
            spec_of(TINY), workers=2, queue_dir=str(tmp_path / "q"),
            cache_dir=str(tmp_path / "c"), poll_s=0.01,
        )
        assert again.fully_cached
        assert [stable(r) for r in again.records] \
            == [stable(r) for r in dist.records]

    def test_zero_workers_merges_settled_queue(self, tmp_path):
        queue, plan = make_queue(tmp_path)
        run_worker(queue, poll_s=0.01)
        result = run_campaign_distributed(
            spec_of(TINY), workers=0, queue_dir=queue,
            cache_dir=str(tmp_path / "cache"),
            trace_dir=str(tmp_path / "traces"), poll_s=0.01,
        )
        assert len(result.records) == 4
        assert result.fully_cached  # settled before this invocation

    def test_failed_cell_raises(self, tmp_path):
        queue = str(tmp_path / "q")
        for state in ("todo", "claimed", "done", "failed"):
            os.makedirs(os.path.join(queue, state))
        with open(os.path.join(queue, "failed", "0000.json"), "w") as fh:
            json.dump({"id": "0000", "name": "hist/default/gpu",
                       "error": "boom", "worker": "w0"}, fh)
        with pytest.raises(QueueError, match="boom"):
            run_campaign_distributed(
                spec_of(TINY), workers=1, queue_dir=queue,
                cache_dir=str(tmp_path / "cache"),
                trace_dir=str(tmp_path / "traces"), poll_s=0.01,
            )

    def test_pruned_cache_under_queue_raises(self, tmp_path):
        queue, plan = make_queue(tmp_path)
        run_worker(queue, poll_s=0.01)
        for name in os.listdir(tmp_path / "cache"):
            if name.endswith(".json"):
                os.remove(tmp_path / "cache" / name)
        with pytest.raises(QueueError, match="missing"):
            run_campaign_distributed(
                spec_of(TINY), workers=0, queue_dir=queue,
                cache_dir=str(tmp_path / "cache"),
                trace_dir=str(tmp_path / "traces"), poll_s=0.01,
            )


class TestCrashResume:
    def test_sigkilled_worker_resumes_without_loss(self, tmp_path):
        queue, plan = make_queue(tmp_path, SLOW)
        claimed_dir = os.path.join(queue, "claimed")

        worker = multiprocessing.Process(
            target=run_worker, args=(queue,), kwargs={"poll_s": 0.01},
        )
        worker.start()
        try:
            deadline = time.time() + 30.0
            while not os.listdir(claimed_dir):
                assert time.time() < deadline, "worker never claimed a task"
                time.sleep(0.002)
            # the record cell (~1s of simulation) is mid-flight: kill -9
            os.kill(worker.pid, signal.SIGKILL)
        finally:
            worker.join(timeout=10.0)
        assert os.listdir(claimed_dir) == ["0000.json"]  # lease leaked
        assert os.listdir(os.path.join(queue, "done")) == []

        # the expired lease is reclaimed exactly once
        assert reclaim_expired(queue, max_age_s=0.0) == ["0000"]
        assert reclaim_expired(queue, max_age_s=0.0) == []

        # a fresh worker against the same queue finishes the campaign
        stats = run_worker(queue, poll_s=0.01)
        assert stats["failed"] == 0
        assert stats["executed"] == 2  # killed cell ran once, not twice
        done = sorted(os.listdir(os.path.join(queue, "done")))
        assert done == ["0000.json", "0001.json"]
        assert os.listdir(claimed_dir) == []

        # merged results are bit-identical to an untouched serial run
        merged = run_campaign_distributed(
            spec_of(SLOW), workers=0, queue_dir=queue,
            cache_dir=str(tmp_path / "cache"),
            trace_dir=str(tmp_path / "traces"), poll_s=0.01,
        )
        serial = run_campaign(spec_of(SLOW), jobs=1,
                              cache_dir=str(tmp_path / "c-serial"),
                              plan=True, trace_dir=str(tmp_path / "traces"))
        assert [stable(r) for r in merged.records] \
            == [stable(r) for r in serial.records]


class TestWorkerCli:
    def test_worker_command_drains_queue(self, tmp_path, capsys):
        queue, _ = make_queue(tmp_path)
        rc = cli.main(["worker", "--queue", queue, "--poll", "0.01"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 claimed" in out and "4 executed" in out

    def test_worker_command_on_non_queue(self, tmp_path, capsys):
        rc = cli.main(["worker", "--queue", str(tmp_path / "nope")])
        assert rc == 2
        assert "not a campaign queue" in capsys.readouterr().err

    def test_campaign_no_plan_with_workers_rejected(self, capsys):
        rc = cli.main(["campaign", "--fast", "--workers", "2", "--no-plan"])
        assert rc == 2
        assert "replay-first" in capsys.readouterr().err
