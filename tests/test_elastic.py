"""Elastic membership, degradation and chaos (repro.elastic; docs/ELASTIC.md).

The contracts pinned here:

* **plans** — scale events ride in a :class:`FaultPlan`, which
  round-trips, validates and hashes them like faults; an *empty* plan is
  byte-identical to no plan at all, and normalises away in
  :class:`CellSpec` cache keys;
* **drain vs crash** — a graceful decommission lets running attempts
  finish and only then retires the node; a crash mid-drain wins (the
  drain cancels, attempts requeue); a recover mid-drain cancels the
  drain and keeps the node;
* **chaos invariants** — every seeded churn scenario completes with no
  job lost and none double-completed, deterministically;
* **autoscaling** — the threshold controller is deterministic, bounded,
  cooldown-limited, and a quiescent autoscaler perturbs nothing;
* **brownout** — watermark levels, admission shedding with typed
  reasons, tuner suspension while unhealthy;
* **durability** — kill/restore mid-churn replays byte-identically, and
  the generational checkpoint store degrades to older intact snapshots.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro

from repro.core.api import JobSubmission, ServiceState
from repro.core.architectures import hybrid, rhadoop
from repro.core.deployment import Deployment
from repro.elastic import (
    CHAOS_SCENARIOS,
    BrownoutConfig,
    HEALTH_BROWNED_OUT,
    HEALTH_DEGRADED,
    HEALTH_OK,
    ThresholdAutoscaler,
    check_invariants,
    default_elastic_plan,
    run_chaos,
)
from repro.errors import (
    CheckpointCorruptError,
    ConfigurationError,
    ElasticError,
    FaultError,
    ServiceError,
)
from repro.faults import (
    NODE_CRASH,
    NODE_DECOMMISSION,
    NODE_JOIN,
    NODE_RECOVER,
    OFS_SERVER_ADD,
    FaultEvent,
    FaultPlan,
)
from repro.runner.spec import replay_cell
from repro.service import (
    CheckpointStore,
    REASON_SHED_BROWNED_OUT,
    REASON_SHED_DEGRADED,
    ReproService,
)
from repro.simulator import Simulation
from repro.tune.tuner import Tuner
from repro.tune.window import Observation
from repro.units import GB

from tests.test_jobtracker import make_job, make_tracker
from tests.test_service import make_trace, results_bytes, submissions_for


class TestScalePlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(events=(
            FaultEvent(time=9.0, kind=NODE_JOIN),
            FaultEvent(time=2.0, kind=NODE_DECOMMISSION, node=1),
        ))
        assert [e.time for e in plan.events] == [2.0, 9.0]

    def test_validation(self):
        with pytest.raises(FaultError):
            FaultEvent(time=-1.0, kind=NODE_JOIN)
        with pytest.raises(FaultError):
            FaultEvent(time=0.0, kind="teleport")
        with pytest.raises(FaultError):
            FaultEvent(time=0.0, kind=NODE_DECOMMISSION, node=-1)
        with pytest.raises(FaultError):
            FaultEvent(time=0.0, kind=NODE_JOIN, count=0)

    def test_round_trip(self, tmp_path):
        # What `repro elastic --save-plan` writes, `replay --faults` loads.
        plan = default_elastic_plan(1000.0, seed=3)
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
        base = FaultPlan(events=(FaultEvent(time=1.0, kind=NODE_JOIN),))
        moved = FaultPlan(events=(FaultEvent(time=2.0, kind=NODE_JOIN),))
        renamed = FaultPlan(
            events=(FaultEvent(time=1.0, kind=NODE_JOIN),), name="x"
        )
        keys = {base.content_key(), moved.content_key(), renamed.content_key()}
        assert len(keys) == 3

    def test_generators_are_seeded(self):
        assert default_elastic_plan(500.0, seed=1) == default_elastic_plan(500.0, seed=1)
        assert default_elastic_plan(500.0, seed=1) != default_elastic_plan(500.0, seed=2)

    def test_cell_spec_hashes_the_plan(self):
        plan = default_elastic_plan(100.0)
        static = replay_cell(rhadoop(), num_jobs=5)
        explicit_empty = replay_cell(
            rhadoop(), num_jobs=5, fault_plan=FaultPlan.empty()
        )
        elastic = replay_cell(rhadoop(), num_jobs=5, fault_plan=plan)
        # Empty plan normalises away: one cache identity for "static".
        assert explicit_empty.content_key() == static.content_key()
        assert elastic.content_key() != static.content_key()
        assert "scale events" in elastic.describe()


class TestEmptyPlanIdentity:
    def test_empty_plan_is_byte_identical_to_no_plan(self):
        jobs = make_trace(20).to_jobspecs()
        plain = Deployment(hybrid()).run_trace(jobs)
        empty = Deployment(
            hybrid(), fault_plan=FaultPlan.empty()
        ).run_trace(jobs)
        # A brownout config with no transitions is a pure observer too.
        observed = Deployment(
            hybrid(), brownout=BrownoutConfig()
        ).run_trace(jobs)
        assert results_bytes(plain) == results_bytes(empty)
        assert results_bytes(plain) == results_bytes(observed)


class TestDecommission:
    def test_idle_node_retires_immediately(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        left = []
        tracker.on_decommissioned = left.append
        assert tracker.decommission_node(1)
        assert tracker.nodes_decommissioned == 1
        assert left == [1]
        assert tracker.schedulable_nodes() == 1
        assert tracker.intended_nodes == 1
        # Retirement is final: no re-drain, no recover.
        assert not tracker.decommission_node(1)
        tracker.recover_node(1)
        assert tracker.schedulable_nodes() == 1

    def test_busy_node_drains_then_retires(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        done = []
        tracker.submit(make_job(input_gb=1.0), done.append)
        sim.schedule_at(3.0, lambda: tracker.decommission_node(1))
        sim.run()
        assert len(done) == 1 and not done[0].failed  # attempts finished
        assert tracker.nodes_decommissioned == 1
        assert tracker.schedulable_nodes() == 1
        # The capacity series sampled the drain: 2 nodes, then 1.
        counts = [count for _, count in tracker.capacity_series]
        assert counts[0] == 2 and counts[-1] == 1

    def test_crash_wins_over_drain(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        done = []
        tracker.submit(make_job(input_gb=1.0), done.append)
        sim.schedule_at(3.0, lambda: tracker.decommission_node(1))
        sim.schedule_at(3.5, lambda: tracker.crash_node(1))
        sim.run()
        assert len(done) == 1 and not done[0].failed  # survivor carried it
        assert tracker.nodes_crashed == 1
        assert tracker.nodes_decommissioned == 0  # the drain was cancelled
        # A crashed node is missing, not retired: it may recover.
        tracker.recover_node(1)
        assert tracker._node_ok(1)
        assert tracker.schedulable_nodes() == 2

    def test_recover_cancels_drain(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        done = []
        tracker.submit(make_job(input_gb=1.0), done.append)
        sim.schedule_at(3.0, lambda: tracker.decommission_node(1))
        sim.schedule_at(3.5, lambda: tracker.recover_node(1))
        sim.run()
        assert len(done) == 1 and not done[0].failed
        assert tracker.nodes_decommissioned == 0
        assert tracker._node_ok(1)
        assert tracker.schedulable_nodes() == 2


class TestDeploymentElastic:
    def test_add_node_grows_capacity(self):
        deployment = Deployment(rhadoop())
        before = deployment.intended_nodes()
        index = deployment.add_node(0)
        assert index == before  # joins append at the next free index
        assert deployment.intended_nodes() == before + 1
        assert deployment.healthy_fraction() == 1.0
        with pytest.raises(ConfigurationError):
            deployment.add_node(5)

    def test_fault_summary_has_capacity_series(self):
        plan = FaultPlan(events=(
            FaultEvent(time=5.0, kind=NODE_CRASH, member="out", node=0),
        ))
        deployment = Deployment(rhadoop(), fault_plan=plan)
        deployment.run_trace(make_trace(10).to_jobspecs())
        summary = deployment.fault_summary()
        series = summary["healthy_capacity"]
        assert len(series) == 1
        values = next(iter(series.values()))
        assert values[0] == [0.0, 24]
        assert any(count == 23 for _, count in values)
        assert summary["nodes_crashed"] == 1
        assert summary["scale_events_applied"] == 0

    def test_elastic_summary_counts_plan_actions(self):
        plan = FaultPlan(events=(
            FaultEvent(time=1.0, kind=NODE_JOIN, member="out"),
            FaultEvent(time=2.0, kind=NODE_DECOMMISSION, member="up", node=0),
            FaultEvent(time=3.0, kind=OFS_SERVER_ADD, count=1),
        ))
        deployment = Deployment(rhadoop(), fault_plan=plan)
        deployment.run_trace(make_trace(10).to_jobspecs())
        summary = deployment.elastic_summary()
        # The join and the OFS add apply; RHadoop has no "up" member.
        assert summary["scale_plan"]["applied"] == 2
        assert summary["scale_plan"]["skipped"] == 1
        assert summary["nodes_joined"] == 1
        assert summary["health"] == HEALTH_OK


class TestChaosScenarios:
    @pytest.mark.parametrize("name", sorted(CHAOS_SCENARIOS))
    def test_invariants_hold(self, name):
        report = run_chaos(name, num_jobs=25)
        assert report.ok, report.violations
        assert report.completed + report.failed == 25
        assert report.makespan > 0

    def test_chaos_is_deterministic(self):
        first = run_chaos("flapping_node", num_jobs=25)
        second = run_chaos("flapping_node", num_jobs=25)
        assert first.makespan == second.makespan
        assert first.completed == second.completed
        assert first.faults == second.faults
        assert first.elastic == second.elastic

    def test_check_invariants_flags_loss_and_duplicates(self):
        class R:
            def __init__(self, job_id):
                self.job_id = job_id

        violations = check_invariants(
            ["a", "b", "c"], [R("a"), R("a"), R("x")]
        )
        text = "\n".join(violations)
        assert "double-completed" in text
        assert "lost" in text and "b" in text and "c" in text
        assert "unknown" in text


class TestAutoscaler:
    def churn(self, num_jobs=40):
        duration = 86400.0 * num_jobs / 6000.0 / 6.0
        trace = make_trace(num_jobs)
        plan = FaultPlan(tuple(
            FaultEvent(time=duration * 0.10 + 15.0 * i, kind=NODE_CRASH,
                       member="out", node=11 - i)
            for i in range(6)
        ))
        return trace.to_jobspecs(), plan

    def controller(self):
        return ThresholdAutoscaler(
            min_nodes=12, max_nodes=26, scale_up_backlog=0.5,
            cooldown=45.0, step=2,
        )

    def test_validation(self):
        with pytest.raises(ElasticError):
            ThresholdAutoscaler(min_nodes=0)
        with pytest.raises(ElasticError):
            ThresholdAutoscaler(min_nodes=4, max_nodes=2)
        with pytest.raises(ElasticError):
            ThresholdAutoscaler(scale_up_backlog=1.0, scale_down_backlog=2.0)
        with pytest.raises(ElasticError):
            ThresholdAutoscaler(cooldown=-1.0)
        with pytest.raises(ElasticError):
            ThresholdAutoscaler(step=0)
        with pytest.raises(ElasticError):
            ThresholdAutoscaler(tick_period=0.0)

    def test_deterministic_and_bounded(self):
        jobs, plan = self.churn()
        runs = []
        for _ in range(2):
            scaler = self.controller()
            deployment = Deployment(
                rhadoop(), fault_plan=plan, autoscaler=scaler
            )
            results = deployment.run_trace(jobs)
            deployment.fail_unfinished()
            runs.append((results_bytes(results), scaler.actions))
            assert scaler.scale_ups > 0  # the controller actually acted
            assert deployment.trackers[0].schedulable_nodes() <= 26
            # Cooldown: consecutive actions are spaced apart.
            times = [t for t, _, _ in scaler.actions]
            assert all(b - a >= 45.0 for a, b in zip(times, times[1:]))
        assert runs[0] == runs[1]

    def test_quiescent_autoscaler_perturbs_nothing(self):
        jobs = make_trace(20).to_jobspecs()
        plain = Deployment(rhadoop()).run_trace(jobs)
        idle = ThresholdAutoscaler(
            min_nodes=24, max_nodes=24, scale_up_backlog=1e9,
        )
        ticked = Deployment(rhadoop(), autoscaler=idle).run_trace(jobs)
        assert results_bytes(plain) == results_bytes(ticked)
        assert idle.actions == []


class DummyTuner:
    def __init__(self):
        self.calls = []

    def suspend(self):
        self.calls.append("suspend")

    def resume(self):
        self.calls.append("resume")


class TestBrownout:
    def test_config_validation(self):
        with pytest.raises(ElasticError):
            BrownoutConfig(degraded_below=0.4, browned_out_below=0.5)
        with pytest.raises(ElasticError):
            BrownoutConfig(degraded_below=1.5)
        with pytest.raises(ElasticError):
            BrownoutConfig(degraded_shed_shuffle_over=-1.0)

    def test_levels_and_thresholds(self):
        config = BrownoutConfig()
        assert config.level_for(1.0) == HEALTH_OK
        assert config.level_for(0.75) == HEALTH_OK  # strict comparison
        assert config.level_for(0.6) == HEALTH_DEGRADED
        assert config.level_for(0.4) == HEALTH_BROWNED_OUT
        assert config.shed_threshold(HEALTH_OK) is None
        assert config.shed_threshold(HEALTH_DEGRADED) == 32e9
        assert config.shed_threshold(HEALTH_BROWNED_OUT) == 4e9

    def test_transitions_suspend_and_resume_the_tuner(self):
        deployment = Deployment(rhadoop(), brownout=BrownoutConfig())
        deployment.tuner = DummyTuner()
        tracker = deployment.trackers[0]
        for node in range(7):  # 17/24 < 0.75: degraded
            tracker.crash_node(node)
        deployment._refresh_health()
        assert deployment.health_level() == HEALTH_DEGRADED
        assert deployment.tuner.calls == ["suspend"]
        for node in range(7, 13):  # 11/24 < 0.5: browned out
            tracker.crash_node(node)
        deployment._refresh_health()
        assert deployment.health_level() == HEALTH_BROWNED_OUT
        assert deployment.tuner.calls == ["suspend", "suspend"]
        for node in range(13):
            tracker.recover_node(node)
        deployment._refresh_health()
        assert deployment.health_level() == HEALTH_OK
        assert deployment.tuner.calls == ["suspend", "suspend", "resume"]

    def test_tuner_suspension_drops_observations(self):
        tuner = Tuner()
        tuner.suspend()
        tuner.suspend()  # idempotent: one suspension, not two
        tuner.observe(None, None, None, 0)  # dropped before any access
        assert tuner.observations == 0
        summary = tuner.summary()
        assert summary["suspended"] is True
        assert summary["suspensions"] == 1
        assert summary["observations_dropped"] == 1
        tuner.resume()
        assert tuner.summary()["suspended"] is False

    def test_observation_validates_queue_wait(self):
        with pytest.raises(ConfigurationError):
            Observation(
                job=make_job(), member=0, role="out",
                runtime=1.0, queue_wait=-0.5,
            )

    def crash_plan(self, nodes):
        return FaultPlan(tuple(
            FaultEvent(time=1.0 + i, kind=NODE_CRASH, member="out", node=i)
            for i in range(nodes)
        ))

    def test_service_sheds_degraded(self):
        service = ReproService(
            "RHadoop",
            fault_plan=self.crash_plan(7),  # 17/24: degraded
            brownout=BrownoutConfig(degraded_shed_shuffle_over=1 * GB),
        )
        service.advance_until(20.0)
        assert service.health()["status"] == HEALTH_DEGRADED
        big = service.submit(JobSubmission(
            job_id="big", input_bytes=1 * GB, shuffle_bytes=2 * GB,
        ))
        assert not big.accepted
        assert big.reason == REASON_SHED_DEGRADED
        small = service.submit(JobSubmission(
            job_id="small", input_bytes=1 * GB, shuffle_bytes=0.5 * GB,
        ))
        assert small.accepted
        dump = service.metrics_dump()
        assert dump["service"]["rejected"] == 1
        assert dump["metrics"][
            f"service.admission.rejected.{REASON_SHED_DEGRADED}"
        ] == 1
        assert dump["elastic"]["health"] == HEALTH_DEGRADED

    def test_service_sheds_browned_out(self):
        service = ReproService(
            "RHadoop",
            fault_plan=self.crash_plan(12),  # 12/24 < 0.75 = both marks
            brownout=BrownoutConfig(
                degraded_below=0.75,
                browned_out_below=0.75,
                browned_out_shed_shuffle_over=1 * GB,
            ),
        )
        service.advance_until(20.0)
        assert service.health()["status"] == HEALTH_BROWNED_OUT
        status = service.submit(JobSubmission(
            job_id="big", input_bytes=1 * GB, shuffle_bytes=2 * GB,
        ))
        assert not status.accepted
        assert status.reason == REASON_SHED_BROWNED_OUT


class TestDurabilityUnderChurn:
    def churn_plan(self):
        return FaultPlan(events=(
            FaultEvent(time=50.0, kind=NODE_CRASH, member="out", node=3),
            FaultEvent(time=80.0, kind=NODE_RECOVER, member="out", node=3),
            FaultEvent(time=30.0, kind=NODE_DECOMMISSION, member="out", node=11),
            FaultEvent(time=90.0, kind=NODE_JOIN, member="out"),
        ))

    def test_kill_restore_mid_churn_is_byte_identical(self, tmp_path):
        trace = make_trace(40)
        plan = self.churn_plan()
        reference = Deployment(
            hybrid(), fault_plan=plan
        ).run_trace(trace.to_jobspecs())

        path = str(tmp_path / "state.json")
        service = ReproService(
            "Hybrid", checkpoint_path=path, fault_plan=plan,
        )
        for sub in submissions_for(trace):
            assert service.submit(sub).accepted
        service.advance_until(60.0)  # mid-churn: drained + crashed, not yet recovered
        assert 0 < len(service.results) < 40
        service.checkpoint()
        del service  # the crash

        restored = ReproService.restore(path, fault_plan=plan)
        summary = restored.drain()
        assert summary["accepted"] == summary["finished"] == 40
        assert check_invariants(
            [job.job_id for job in trace.jobs], restored.results
        ) == []
        assert results_bytes(restored.results) == results_bytes(reference)


def service_states(count):
    """Distinct, valid ServiceStates (one per admitted job)."""
    service = ReproService("Hybrid")
    states = []
    for i in range(count):
        service.submit(JobSubmission(job_id=f"j{i}", input_bytes=1 * GB))
        states.append(service.state())
    return states


def journal_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestCheckpointStore:
    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ServiceError):
            CheckpointStore(tmp_path / "s.json", keep=0)

    def test_rotation_keeps_last_n(self, tmp_path):
        # A store instance compacts on its first save, and every
        # compaction rotates the generations down one slot.
        states = service_states(4)
        for state in states:
            CheckpointStore(tmp_path / "s.json", keep=3).save(state)
        store = CheckpointStore(tmp_path / "s.json", keep=3)
        paths = store.generations()
        assert all(p.exists() for p in paths)
        assert not (tmp_path / "s.json.3").exists()  # oldest fell off
        # Newest-first: path holds state 4, path.1 state 3, path.2 state 2,
        # each as one compacted record.
        for path, state in zip(paths, reversed(states[1:])):
            assert journal_records(path) == [state.to_wire()]
        loaded = store.load()
        assert loaded is not None
        assert loaded.to_wire() == states[-1].to_wire()

    def test_appends_do_not_rotate(self, tmp_path):
        states = service_states(25)
        store = CheckpointStore(tmp_path / "s.json", keep=3)
        for state in states[19:]:
            store.save(state)
        assert not (tmp_path / "s.json.1").exists()
        records = journal_records(tmp_path / "s.json")
        assert records[0] == states[19].to_wire()
        assert [len(r["accepted"]) for r in records] == [20, 1, 1, 1, 1, 1]
        assert store.load().to_wire() == states[-1].to_wire()

    def test_corrupt_newest_falls_back(self, tmp_path):
        states = service_states(3)
        for state in states[:2]:
            CheckpointStore(tmp_path / "s.json", keep=3).save(state)
        (tmp_path / "s.json").write_text("{torn write")
        loaded = CheckpointStore(tmp_path / "s.json", keep=3).load()
        assert loaded is not None
        assert loaded.to_wire() == states[0].to_wire()

    def test_corrupt_first_record_drops_its_appends(self, tmp_path):
        states = service_states(12)
        CheckpointStore(tmp_path / "s.json").save(states[0])
        store = CheckpointStore(tmp_path / "s.json")
        for state in states[9:]:
            store.save(state)  # one compaction, then appends
        path = tmp_path / "s.json"
        assert len(journal_records(path)) == 3
        path.write_text("{torn" + path.read_text()[5:])
        # The appends extend a record that is gone: the whole file is
        # skipped, never half-applied.
        assert store.load().to_wire() == states[0].to_wire()

    @pytest.mark.parametrize("value", ["x", [3]])
    def test_bad_counter_in_newest_falls_back(self, tmp_path, value):
        path = tmp_path / "s.json"
        service = ReproService("Hybrid", checkpoint_path=str(path))
        service.submit(JobSubmission(job_id="j0", input_bytes=1 * GB))
        service.checkpoint()
        service.submit(JobSubmission(job_id="j1", input_bytes=1 * GB))
        service.checkpoint()
        records = journal_records(path)
        assert [len(r["accepted"]) for r in records] == [1, 1]
        records[-1]["counters"]["accepted"] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

        restored = ReproService.restore(str(path))
        assert [s.job_id for s in restored.state().accepted] == ["j0"]
        assert restored.drain()["accepted"] == 1

    def test_all_corrupt_raises_typed_error(self, tmp_path):
        store = CheckpointStore(tmp_path / "s.json", keep=2)
        (tmp_path / "s.json").write_text("{torn")
        (tmp_path / "s.json.1").write_text("also torn")
        with pytest.raises(CheckpointCorruptError, match="corrupt"):
            store.load()
        assert issubclass(CheckpointCorruptError, ServiceError)

    def test_no_snapshots_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path / "s.json").load() is None


class TestCheckpointJournal:
    """One record per save; load folds them back into the saved state."""

    def test_every_save_round_trips(self, tmp_path):
        trace = make_trace(640)
        subs = submissions_for(trace)
        path = tmp_path / "s.json"
        service = ReproService("Hybrid", checkpoint_path=str(path))
        compactions, inode = 0, None
        for start in range(0, len(subs), 10):
            chunk = subs[start:start + 10]
            statuses, _ = service.submit_ndjson(
                "".join(json.dumps(s.to_wire()) + "\n" for s in chunk)
            )
            assert all(s.accepted for s in statuses)
            assert CheckpointStore(path).load().to_wire() == service.state().to_wire()
            compactions += path.stat().st_ino != inode
            inode = path.stat().st_ino
            # Jobs finish out of admission order between saves.
            service.advance_until(chunk[-1].arrival_time)
        service.drain()
        loaded = CheckpointStore(path).load()
        assert loaded.to_wire() == service.state().to_wire()
        assert len(loaded.finished) == 640
        assert compactions >= 3

    def test_torn_tail_loads_previous_record(self, tmp_path):
        states = service_states(6)
        path = tmp_path / "s.json"
        store = CheckpointStore(path)
        for state in states[3:]:
            store.save(state)
        data = path.read_bytes()
        start = data.rindex(b"\n", 0, len(data) - 1) + 1
        end = len(data) - 1  # the last record's closing newline
        os.truncate(path, end)
        assert store.load().to_wire() == states[5].to_wire()
        for cut in reversed(range(start, end)):
            os.truncate(path, cut)
            assert store.load().to_wire() == states[4].to_wire(), cut

    @pytest.mark.parametrize("field,value", [
        ("architecture", "THadoop"),
        ("max_total_pending", 5),
        ("counters", {"accepted": -1}),
    ])
    def test_load_stops_at_the_first_bad_record(self, tmp_path, field, value):
        states = service_states(7)
        path = tmp_path / "s.json"
        store = CheckpointStore(path)
        for state in states[4:]:
            store.save(state)
        records = journal_records(path)
        assert len(records) == 3
        records[1][field] = value  # the record after it is intact
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert store.load().to_wire() == states[4].to_wire()

    def test_state_that_does_not_extend_the_journal_compacts(self, tmp_path):
        states = service_states(6)
        done = dataclasses.replace(states[5], finished=["j0", "j1"])
        stream = [
            states[5], states[3],  # the log got shorter
            states[4], dataclasses.replace(states[4], accepted=states[5].accepted[1:]),
            done, dataclasses.replace(done, finished=["j1"]),  # j0 unfinished
            done, dataclasses.replace(done, register=True),
        ]
        path = tmp_path / "s.json"
        store = CheckpointStore(path, keep=1)
        for first, second in zip(stream[::2], stream[1::2]):
            store.save(first)
            store.save(second)
            assert len(journal_records(path)) == 1
            assert store.load().to_wire() == second.to_wire()

    def test_restarted_store_never_appends_after_a_torn_tail(self, tmp_path):
        states = service_states(6)
        path = tmp_path / "s.json"
        store = CheckpointStore(path)
        for state in states[3:5]:
            store.save(state)
        path.write_bytes(path.read_bytes()[:-7])
        CheckpointStore(path).save(states[5])
        assert path.read_text().count("\n") == 1
        assert CheckpointStore(path).load().to_wire() == states[5].to_wire()

    def test_sigkilled_appender_keeps_its_committed_prefix(self, tmp_path):
        path = tmp_path / "s.json"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        child = subprocess.Popen(
            [sys.executable, "-c", APPENDER, str(path)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        # A child that never commits is killed after 60 s, so its stdout
        # ends and the readline below fails instead of hanging.
        deadline = threading.Timer(60, child.kill)
        deadline.start()
        try:
            reported = [int(child.stdout.readline()) for _ in range(5)]
            child.send_signal(signal.SIGKILL)
            tail, _ = child.communicate(timeout=60)
            assert child.returncode == -signal.SIGKILL
            reported += [int(line) for line in tail.split()]
        finally:
            deadline.cancel()
            if child.poll() is None:
                child.kill()
                child.wait()

        loaded = CheckpointStore(path).load()
        count = len(loaded.accepted)
        # Every save the child saw return is there; at most one more
        # save returned before the kill landed ahead of its report.
        assert reported[-1] <= count <= reported[-1] + 1
        assert loaded.to_wire() == appended_state(count).to_wire()

    def test_legacy_indented_checkpoint_restores_and_drains(self, tmp_path):
        trace = make_trace(20)
        reference = Deployment(hybrid()).run_trace(trace.to_jobspecs())
        service = ReproService("Hybrid")
        for sub in submissions_for(trace):
            assert service.submit(sub).accepted
        service.advance_until(100.0)
        assert 0 < len(service.results) < 20
        path = tmp_path / "state.json"
        # The single-document format written before the journal.
        path.write_text(json.dumps(service.state().to_wire(), indent=1, sort_keys=True))

        assert CheckpointStore(path).load().to_wire() == service.state().to_wire()
        restored = ReproService.restore(str(path))
        summary = restored.drain()
        assert summary["accepted"] == summary["finished"] == 20
        assert results_bytes(restored.results) == results_bytes(reference)
        # The drain's checkpoint compacted: the legacy file rotated away.
        assert (tmp_path / "state.json.1").exists()
        assert len(path.read_text().splitlines()) == 1


#: A child that saves an ever-longer stream of states through one store
#: and prints each job count after its save returns; the states are
#: :func:`appended_state`'s.
APPENDER = """
import sys
from repro.core.api import JobSubmission, ServiceState
from repro.service import CheckpointStore

store = CheckpointStore(sys.argv[1])
accepted = []
for count in range(1, 10**6):
    i = count - 1
    accepted.append(JobSubmission(job_id=f"j{i}", input_bytes=(i + 1) << 30,
                                  arrival_time=float(i)))
    store.save(ServiceState(
        architecture="Hybrid", register=False, clock=float(count),
        accepted=list(accepted),
        finished=[s.job_id for s in accepted[: count // 2]],
        counters={"accepted": count},
    ))
    print(count, flush=True)
"""


def appended_state(count):
    """The state the appender child saves after admitting ``count`` jobs."""
    accepted = [
        JobSubmission(job_id=f"j{i}", input_bytes=(i + 1) * GB, arrival_time=float(i))
        for i in range(count)
    ]
    return ServiceState(
        architecture="Hybrid",
        register=False,
        clock=float(count),
        accepted=accepted,
        finished=[s.job_id for s in accepted[: count // 2]],
        counters={"accepted": count},
    )
