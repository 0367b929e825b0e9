"""Tests for repro.faults: plans, injection, and Hadoop-faithful recovery.

Covers the determinism contracts docs/FAULTS.md promises:

* an empty plan is byte-identical to no plan at all;
* the same plan + the same simulation seed replays identically;
* crashes, retries, blacklisting and data loss behave like Hadoop's
  (killed attempts are free, failed attempts count toward
  ``max_task_attempts``, HDFS-backed crashes re-execute completed maps);
* the deployment degrades gracefully (reroute, evacuate, reject) and the
  simulation always terminates, even with speculation on and the whole
  cluster dead.
"""

import pytest

from repro.core.architectures import hybrid, out_ofs, thadoop
from repro.core.deployment import Deployment
from repro.errors import FaultError
from repro.faults import (
    HDFS_REPLICA_LOSS,
    NODE_CRASH,
    NODE_RECOVER,
    OFS_SERVER_LOSS,
    OFS_SERVER_RECOVER,
    TASK_FAILURE,
    FaultEvent,
    FaultPlan,
    crash_storm_plan,
    default_resilience_plan,
)
from repro.mapreduce import build_nodes, JobTracker
from repro.mapreduce.job import JobSpec
from repro.runner.spec import replay_cell
from repro.simulator import Simulation
from repro.storage.hdfs import HDFS
from repro.storage.disk import DiskDevice
from repro.units import GB, MB

from tests.test_jobtracker import (
    make_cluster,
    make_config,
    make_job,
    make_storage,
    make_tracker,
)


def make_hdfs_tracker(sim, cluster=None, config=None):
    """A tracker over HDFS (intermediate data dies with its node)."""
    cluster = cluster or make_cluster()
    config = config or make_config()
    devices = [
        DiskDevice(sim, bandwidth=100 * MB, capacity=100 * GB)
        for _ in range(cluster.count)
    ]
    storage = HDFS(sim, devices, replication=2, access_latency=0.0)
    nodes = build_nodes(sim, cluster, config, ramdisk_bandwidth=2 * GB)
    return JobTracker(sim, cluster, config, storage, nodes)


def trace_job(job_id, input_gb, ratio=0.5, arrival=0.0):
    size = input_gb * GB
    return JobSpec(
        job_id=job_id,
        app="trace",
        input_bytes=size,
        shuffle_bytes=size * ratio,
        output_bytes=size * 0.1,
        map_cpu_per_byte=0.04 / MB,
        reduce_cpu_per_byte=0.002 / MB,
        arrival_time=arrival,
    )


def result_tuples(results):
    """JobResults as comparable tuples (full byte-identity check)."""
    return [
        (r.job_id, r.cluster, r.submit_time, r.end_time, r.map_phase,
         r.shuffle_phase, r.reduce_phase, r.failed, r.failure_reason)
        for r in results
    ]


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(events=(
            FaultEvent(time=9.0, kind=NODE_RECOVER, node=1),
            FaultEvent(time=2.0, kind=NODE_CRASH, node=1),
        ))
        assert [e.time for e in plan.events] == [2.0, 9.0]

    def test_validation(self):
        with pytest.raises(FaultError):
            FaultEvent(time=-1.0, kind=NODE_CRASH)
        with pytest.raises(FaultError):
            FaultEvent(time=0.0, kind="meteor_strike")
        with pytest.raises(FaultError):
            FaultEvent(time=0.0, kind=NODE_CRASH, node=-1)
        with pytest.raises(FaultError):
            FaultEvent(time=0.0, kind=OFS_SERVER_LOSS, count=0)

    def test_round_trip(self, tmp_path):
        plan = default_resilience_plan(1000.0, seed=3)
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan
        assert FaultPlan.load(path).content_key() == plan.content_key()

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FaultError):
            FaultPlan.load(bad)
        with pytest.raises(FaultError):
            FaultPlan.load(tmp_path / "missing.json")
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"schema": 99, "events": []})

    def test_content_key_sees_every_field(self):
        base = FaultPlan(events=(FaultEvent(time=1.0, kind=NODE_CRASH),))
        moved = FaultPlan(events=(FaultEvent(time=2.0, kind=NODE_CRASH),))
        renamed = FaultPlan(
            events=(FaultEvent(time=1.0, kind=NODE_CRASH),), name="x"
        )
        keys = {base.content_key(), moved.content_key(), renamed.content_key()}
        assert len(keys) == 3

    def test_generators_are_seeded(self):
        assert default_resilience_plan(500.0, seed=1) == default_resilience_plan(500.0, seed=1)
        assert default_resilience_plan(500.0, seed=1) != default_resilience_plan(500.0, seed=2)
        assert crash_storm_plan(500.0, seed=4) == crash_storm_plan(500.0, seed=4)

    def test_cell_spec_hashes_the_plan(self):
        plan = default_resilience_plan(100.0)
        healthy = replay_cell(out_ofs(), num_jobs=5)
        explicit_empty = replay_cell(out_ofs(), num_jobs=5, fault_plan=FaultPlan.empty())
        faulted = replay_cell(out_ofs(), num_jobs=5, fault_plan=plan)
        # Empty plan normalises away: one cache identity for "no faults".
        assert explicit_empty.content_key() == healthy.content_key()
        assert faulted.content_key() != healthy.content_key()
        assert "faults" in faulted.describe()


class TestTrackerFaults:
    def test_crash_then_recover_completes_job(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        done = []
        tracker.submit(make_job(input_gb=1.0), done.append)
        sim.schedule_at(3.0, lambda: tracker.crash_node(1))
        sim.schedule_at(20.0, lambda: tracker.recover_node(1))
        sim.run()
        assert len(done) == 1 and not done[0].failed
        assert tracker.nodes_crashed == 1
        assert tracker.nodes[1].alive

    def test_crash_survivor_finishes_alone(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        done = []
        tracker.submit(make_job(input_gb=0.5), done.append)
        sim.schedule_at(3.0, lambda: tracker.crash_node(0))
        sim.run()
        assert len(done) == 1 and not done[0].failed
        # Killed-by-crash attempts are free: no task-attempt charges.
        assert tracker.jobs_failed == 0

    def test_injected_failures_retry_then_fail_job(self):
        config = make_config(max_task_attempts=2)
        sim = Simulation()
        tracker = make_tracker(sim, config=config)
        done = []
        tracker.submit(make_job(input_gb=0.5), done.append)
        # Keep knocking out node 0's attempts until a task exhausts its
        # two attempts; blacklisting may park the node but the repeated
        # charges must eventually fail the job.
        def hammer():
            tracker.fail_running_attempts(0, count=4)
            tracker.fail_running_attempts(1, count=4)
            if not done:
                sim.schedule_at(sim.now + 1.0, hammer)
        sim.schedule_at(2.5, hammer)
        sim.run()
        assert len(done) == 1
        assert done[0].failed
        assert "2 attempts" in done[0].failure_reason
        assert tracker.jobs_failed == 1
        assert tracker.task_attempt_failures >= 2

    def test_blacklisting_after_threshold(self):
        config = make_config(blacklist_threshold=2, max_task_attempts=10)
        sim = Simulation()
        tracker = make_tracker(sim, config=config)
        done = []
        tracker.submit(make_job(input_gb=1.0), done.append)
        sim.schedule_at(2.5, lambda: tracker.fail_running_attempts(0, count=2))
        sim.run()
        assert tracker.nodes_blacklisted == 1
        assert not tracker._node_ok(0)
        assert len(done) == 1 and not done[0].failed  # node 1 carried it
        tracker.recover_node(0)
        assert tracker._node_ok(0)

    def test_data_loss_fails_jobs(self):
        sim = Simulation()
        storage = make_storage(sim)
        tracker = make_tracker(sim, storage=storage)
        done = []
        tracker.submit(make_job(input_gb=1.0), done.append)
        def lose_data():
            storage.data_lost = True
        sim.schedule_at(0.5, lose_data)
        sim.run()
        assert len(done) == 1
        assert done[0].failed
        assert "data lost" in done[0].failure_reason

    def test_hdfs_crash_reexecutes_completed_maps(self):
        sim = Simulation()
        tracker = make_hdfs_tracker(sim)
        done = []
        # Long shuffle: maps finish well before reducers copy them.
        tracker.submit(make_job(input_gb=1.0, shuffle_ratio=2.0), done.append)
        def crash_after_first_wave():
            if any(next(iter(tracker._active_states.values())).map_done_flags):
                tracker.crash_node(0)
            else:
                sim.schedule_at(sim.now + 0.5, crash_after_first_wave)
        sim.schedule_at(3.0, crash_after_first_wave)
        sim.run()
        assert len(done) == 1 and not done[0].failed
        assert tracker.maps_reexecuted > 0

    def test_ofs_crash_skips_map_reexecution(self):
        sim = Simulation()
        tracker = make_tracker(sim)  # OrangeFS: shuffle data is remote
        done = []
        tracker.submit(make_job(input_gb=1.0, shuffle_ratio=2.0), done.append)
        def crash_after_first_wave():
            if any(next(iter(tracker._active_states.values())).map_done_flags):
                tracker.crash_node(0)
            else:
                sim.schedule_at(sim.now + 0.5, crash_after_first_wave)
        sim.schedule_at(3.0, crash_after_first_wave)
        sim.run()
        assert len(done) == 1 and not done[0].failed
        assert tracker.maps_reexecuted == 0

    def test_speculation_plus_total_death_terminates(self):
        config = make_config(speculative_execution=True)
        sim = Simulation()
        tracker = make_tracker(sim, config=config)
        done = []
        tracker.submit(make_job(input_gb=1.0), done.append)
        def kill_everything():
            tracker.crash_node(0)
            tracker.crash_node(1)
        sim.schedule_at(3.0, kill_everything)
        sim.run()  # must return: the speculation tick disarms itself
        assert not tracker.is_operational()
        assert done == []  # stranded, not deadlocked
        assert tracker.abort_active_jobs("cluster never recovered") == 1
        assert done[0].failed

    def test_speculation_crash_recover_completes(self):
        config = make_config(speculative_execution=True)
        sim = Simulation()
        tracker = make_tracker(sim, config=config)
        done = []
        tracker.submit(make_job(input_gb=1.0), done.append)
        sim.schedule_at(3.0, lambda: tracker.crash_node(1))
        sim.schedule_at(15.0, lambda: tracker.recover_node(1))
        sim.run()
        assert len(done) == 1 and not done[0].failed


def _run_hybrid(plan=None, jobs=None):
    deployment = Deployment(hybrid(), fault_plan=plan)
    jobs = jobs or [
        trace_job("a", 1.0, arrival=0.0),
        trace_job("b", 60.0, arrival=5.0),
        trace_job("c", 2.0, arrival=10.0),
    ]
    results = deployment.run_trace(jobs)
    deployment.fail_unfinished()
    return deployment, results


class TestInjection:
    def test_empty_plan_is_byte_identical_to_none(self):
        _, healthy = _run_hybrid(None)
        _, empty = _run_hybrid(FaultPlan.empty())
        assert result_tuples(healthy) == result_tuples(empty)

    def test_same_plan_replays_identically(self):
        plan = default_resilience_plan(200.0, seed=5)
        _, first = _run_hybrid(plan)
        _, second = _run_hybrid(plan)
        assert result_tuples(first) == result_tuples(second)

    def test_faults_change_results(self):
        plan = FaultPlan(events=(
            FaultEvent(time=2.0, kind=NODE_CRASH, member="out", node=0),
            FaultEvent(time=2.0, kind=NODE_CRASH, member="out", node=1),
        ))
        _, healthy = _run_hybrid(None)
        _, faulted = _run_hybrid(plan)
        assert result_tuples(healthy) != result_tuples(faulted)

    def test_inapplicable_events_are_skipped(self):
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind=NODE_CRASH, member="up", node=0),
            FaultEvent(time=2.0, kind=OFS_SERVER_LOSS, count=2),
        ))
        deployment = Deployment(thadoop(), fault_plan=plan)
        deployment.run_trace([trace_job("a", 1.0)])
        assert deployment.injector is not None
        assert deployment.injector.counts["faults.injected"] == 0
        assert deployment.injector.counts["faults.skipped"] == 2

    def test_hdfs_replica_loss_rereplicates(self):
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind=HDFS_REPLICA_LOSS, member="out", node=0),
        ))
        deployment = Deployment(thadoop(), fault_plan=plan)
        results = deployment.run_trace(
            [trace_job("a", 4.0)], register_dataset=True
        )
        storage = deployment.storages[0]
        assert storage.lost_datanodes == 1
        assert storage.rereplication_bytes > 0
        assert not results[0].failed

    def test_ofs_server_loss_and_recovery(self):
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind=OFS_SERVER_LOSS, count=2),
            FaultEvent(time=30.0, kind=OFS_SERVER_RECOVER, count=2),
        ))
        deployment, results = _run_hybrid(plan)
        storage = deployment.storages[0]
        assert storage.active_servers == storage.num_servers
        assert not any(r.failed for r in results)

    def test_routing_falls_back_when_cluster_down(self):
        plan = FaultPlan(events=(
            FaultEvent(time=0.0, kind=NODE_CRASH, member="up", node=0),
            FaultEvent(time=0.0, kind=NODE_CRASH, member="up", node=1),
        ))
        # A small job Algorithm 1 would route to the (dead) up cluster.
        deployment, results = _run_hybrid(
            plan, jobs=[trace_job("small", 1.0, arrival=1.0)]
        )
        assert deployment.jobs_rerouted == 1
        assert results[0].cluster == "scale-out"
        assert not results[0].failed

    def test_no_operational_cluster_rejects(self):
        events = [
            FaultEvent(time=0.0, kind=NODE_CRASH, member="out", node=i)
            for i in range(12)
        ]
        plan = FaultPlan(events=tuple(events))
        deployment = Deployment(out_ofs(), fault_plan=plan)
        results = deployment.run_trace([trace_job("doomed", 1.0, arrival=1.0)])
        deployment.fail_unfinished()
        assert deployment.jobs_rejected == 1
        assert results[0].failed
        assert results[0].cluster == "unrouted"

    def test_outage_evacuates_running_jobs(self):
        plan = FaultPlan(events=(
            FaultEvent(time=2.0, kind=NODE_CRASH, member="up", node=0),
            FaultEvent(time=2.0, kind=NODE_CRASH, member="up", node=1),
        ))
        deployment, results = _run_hybrid(
            plan, jobs=[trace_job("evacuee", 1.0, arrival=0.0)]
        )
        assert deployment.jobs_requeued == 1
        assert len(results) == 1
        assert not results[0].failed
        assert results[0].cluster == "scale-out"

    def test_task_failure_event_is_absorbed(self):
        plan = FaultPlan(events=(
            # Mid-trace, while job "b" keeps the out cluster busy.
            FaultEvent(time=8.0, kind=TASK_FAILURE, member="out", node=0),
        ))
        deployment, results = _run_hybrid(plan)
        summary = deployment.fault_summary()
        assert summary["task_attempt_failures"] >= 1
        assert not any(r.failed for r in results)

    def test_fault_summary_shape(self):
        deployment, _ = _run_hybrid(default_resilience_plan(200.0))
        summary = deployment.fault_summary()
        for key in (
            "injected_events", "skipped_events", "task_attempt_failures",
            "maps_reexecuted", "jobs_failed", "nodes_crashed",
            "nodes_blacklisted", "jobs_rerouted", "jobs_requeued",
            "jobs_rejected", "storage_data_loss", "rereplication_bytes",
        ):
            assert key in summary
