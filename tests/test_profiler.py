"""Tests for the offline profiler: determinism (profiling never touches
the simulation), the critical-path partition invariant, bottleneck
buckets, the dashboard artifact, runner integration and the CLI.
"""

import hashlib
import json

import pytest

from repro.apps import TERASORT, WORDCOUNT
from repro.cli import main
from repro.core.architectures import hybrid, out_ofs, thadoop
from repro.core.deployment import Deployment
from repro.errors import ConfigurationError
from repro.faults import NODE_CRASH, FaultEvent, FaultPlan, default_resilience_plan
from repro.profiler import (
    BUCKETS,
    build_run_profile,
    profile_run,
    profile_trace_file,
    render_dashboard,
    write_dashboard,
)
from repro.runner import PoolRunner, ResultCache, decode_profile
from repro.runner.spec import isolated_cell, replay_cell
from repro.runner.work import execute_cell
from repro.telemetry import Tracer, write_chrome_trace
from repro.units import GB
from repro.workload.fb2009 import DAY, generate_fb2009

TOL = 1e-6


def _run_job(app, size, arch=None, tracer=None):
    deployment = Deployment(
        arch or hybrid(), register_datasets=True, tracer=tracer
    )
    return deployment, deployment.run_job(app.make_job(size))


def _replay(num_jobs=30, arch=None, tracer=None):
    trace = generate_fb2009(num_jobs=num_jobs, seed=7, duration=450.0)
    trace = trace.shrink(5.0)
    deployment = Deployment(
        arch or hybrid(), register_datasets=True, tracer=tracer
    )
    return deployment, deployment.run_trace(trace.to_jobspecs())


class TestDeterminism:
    """Profiling is post-hoc: it can never change simulated results."""

    def test_profiled_run_is_byte_identical_to_bare(self):
        _, bare = _run_job(WORDCOUNT, 8 * GB)
        deployment, traced = _run_job(WORDCOUNT, 8 * GB, tracer=Tracer())
        deployment.profile_run()  # profiling happens *after* the run...
        assert bare == traced     # ...and the results match field-for-field

    def test_profiled_replay_is_byte_identical_to_bare(self):
        _, bare = _replay()
        deployment, traced = _replay(tracer=Tracer())
        deployment.profile_run()
        assert bare == traced

    def test_profile_run_is_reproducible(self):
        deployment, _ = _replay(tracer=Tracer())
        first = deployment.profile_run(label="a")
        second = deployment.profile_run(label="a")
        assert first.to_summary() == second.to_summary()
        assert render_dashboard([first]) == render_dashboard([second])

    def test_profile_run_without_tracer_is_an_error(self):
        deployment = Deployment(hybrid(), register_datasets=True)
        with pytest.raises(ConfigurationError, match="tracer"):
            deployment.profile_run()


class TestCriticalPath:
    """The path partitions [submit, end]: durations sum to the makespan."""

    def _check_invariants(self, profile):
        assert profile.jobs, "nothing profiled"
        for job in profile.jobs:
            path_total = sum(seg.duration for seg in job.path)
            assert path_total == pytest.approx(job.makespan, abs=TOL)
            bucket_total = sum(job.buckets.values())
            assert bucket_total == pytest.approx(job.makespan, abs=TOL)
            # Segments telescope in time order without overlap.
            for prev, seg in zip(job.path, job.path[1:]):
                assert seg.start == pytest.approx(prev.end, abs=TOL)
            assert all(seg.duration >= -TOL for seg in job.path)
            assert all(v >= -TOL for v in job.buckets.values())
            assert set(job.buckets) == set(BUCKETS)

    def test_wordcount_job(self):
        deployment, _ = _run_job(WORDCOUNT, 8 * GB, tracer=Tracer())
        self._check_invariants(deployment.profile_run())

    def test_shuffle_heavy_job_on_scale_out(self):
        deployment, _ = _run_job(
            TERASORT, 32 * GB, arch=out_ofs(), tracer=Tracer()
        )
        profile = deployment.profile_run()
        self._check_invariants(profile)
        # A 32 GB terasort is shuffle/network bound, not queue bound.
        job = profile.jobs[0]
        assert job.buckets["shuffle-wait"] + job.buckets["network"] > 0

    def test_fb2009_replay_jobs(self):
        deployment, results = _replay(tracer=Tracer())
        profile = deployment.profile_run()
        self._check_invariants(profile)
        completed = [r for r in results if not r.failed]
        assert len(profile.jobs) == len(completed)
        # The path ends where the job ends: the final span has zero slack.
        for job in profile.jobs:
            timed = [seg for seg in job.path if seg.kind != "wait"]
            if timed:
                assert min(seg.slack for seg in timed) == pytest.approx(
                    0.0, abs=TOL
                )

    def test_run_buckets_aggregate_job_buckets(self):
        deployment, _ = _replay(tracer=Tracer())
        profile = deployment.profile_run()
        for bucket in BUCKETS:
            assert profile.buckets[bucket] == pytest.approx(
                sum(j.buckets[bucket] for j in profile.jobs), abs=TOL
            )
        assert profile.total_attributed == pytest.approx(
            sum(j.makespan for j in profile.jobs), abs=TOL
        )


class TestTraceFileProfiling:
    def test_profile_from_exported_trace_matches_live(self, tmp_path):
        deployment, _ = _run_job(WORDCOUNT, 8 * GB, tracer=Tracer())
        live = deployment.profile_run(label="x")
        path = write_chrome_trace(deployment.tracer, tmp_path / "t.json")
        restored = profile_trace_file(path, label="x")
        assert len(restored.jobs) == len(live.jobs)
        for a, b in zip(live.jobs, restored.jobs):
            assert b.makespan == pytest.approx(a.makespan, abs=1e-6)
            for bucket in BUCKETS:
                assert b.buckets[bucket] == pytest.approx(
                    a.buckets[bucket], abs=1e-5
                )
        assert restored.dominant_bucket == live.dominant_bucket


def _ab_profiles():
    """Hybrid vs THadoop, each on the same 15-job FB-2009 replay."""
    profiles = []
    for arch in (hybrid(), thadoop()):
        deployment, _ = _replay(num_jobs=15, arch=arch, tracer=Tracer())
        profiles.append(deployment.profile_run(label=arch.name))
    return profiles


def _node_crash_profile():
    """One Wordcount job on the hybrid while an ``out`` node crashes."""
    plan = FaultPlan(events=(
        FaultEvent(time=5.0, kind=NODE_CRASH, member="out", node=1),
    ))
    tracer = Tracer()
    deployment = Deployment(
        hybrid(), register_datasets=True, tracer=tracer, fault_plan=plan
    )
    deployment.run_job(WORDCOUNT.make_job(64 * GB))
    return deployment.profile_run()


def _resilience_profile(num_jobs=30):
    """A hybrid FB-2009 replay under the seeded resilience schedule."""
    duration = DAY * num_jobs / 6000.0
    trace = generate_fb2009(num_jobs=num_jobs, seed=2009, duration=duration)
    deployment = Deployment(
        hybrid(),
        register_datasets=True,
        tracer=Tracer(),
        fault_plan=default_resilience_plan(duration, seed=1),
    )
    deployment.run_trace(trace.shrink(5.0).to_jobspecs())
    deployment.fail_unfinished()
    return deployment.profile_run(label="Hybrid under faults")


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestDashboard:
    def _ab_profiles(self):
        return _ab_profiles()

    def test_html_is_self_contained(self, tmp_path):
        profiles = self._ab_profiles()
        path = write_dashboard(profiles, tmp_path / "run.html")
        html = path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "http://" not in html and "https://" not in html
        assert "<script src" not in html and "@import" not in html
        assert "<svg" in html

    def test_ab_mode_renders_both_runs(self):
        html = render_dashboard(self._ab_profiles())
        assert html.count('class="run"') == 2
        assert "Hybrid" in html and "THadoop" in html

    def test_fault_annotations_reach_the_dashboard(self):
        profile = _node_crash_profile()
        assert any(f["name"] == "node_crash" for f in profile.faults)
        html = render_dashboard([profile])
        assert "node_crash" in html


#: sha256 of the rendered page for each fixture.  Any change to the
#: renderer that moves a byte of the page fails here; a deliberate
#: change to what the page shows re-records these.
DASHBOARD_PINS = {
    "ab": (
        "61dcf78e10de1512721eff23ccb98563"
        "1a2bd34c54980daf41bc8be64e3dcac8"
    ),
    "node_crash_titled": (
        "7e6021d735b5c11b2ff8498ed7259d2b"
        "2d6783954d0f7e3d1e99ef7b4b3fd8ff"
    ),
    "resilience": (
        "e6f5959f65a9acdbaf3adbb502cbd5b6"
        "2523db9dfd45ebb5621ec3c3a8466eed"
    ),
}


class TestDashboardPins:
    """The profiler page's bytes, pinned per fixture."""

    def test_ab_hybrid_vs_thadoop(self):
        html = render_dashboard(_ab_profiles())
        assert _sha(html) == DASHBOARD_PINS["ab"]

    def test_titled_node_crash_run(self, tmp_path):
        path = write_dashboard(
            [_node_crash_profile()], tmp_path / "crash.html",
            title="node crash <out/1> & recovery",
        )
        assert _sha(path.read_text()) == DASHBOARD_PINS["node_crash_titled"]

    def test_resilience_plan_replay(self):
        profile = _resilience_profile()
        assert profile.faults
        html = render_dashboard([profile])
        assert _sha(html) == DASHBOARD_PINS["resilience"]


class TestRunnerIntegration:
    def test_profiled_cell_payload_carries_a_summary(self):
        cell = isolated_cell(hybrid(), WORDCOUNT, "4GB", profile=True)
        payload = execute_cell(cell)
        summary = decode_profile(payload)
        assert summary is not None and summary["jobs"] == 1
        assert set(summary["buckets"]) == set(BUCKETS)
        # Identical bare cell: different content key, no profile, same result.
        bare = isolated_cell(hybrid(), WORDCOUNT, "4GB")
        assert bare.content_key() != cell.content_key()
        bare_payload = execute_cell(bare)
        assert decode_profile(bare_payload) is None
        assert bare_payload["result"] == payload["result"]

    def test_profiled_replay_cell(self):
        cell = replay_cell(hybrid(), num_jobs=10, profile=True)
        summary = decode_profile(execute_cell(cell))
        assert summary is not None and summary["jobs"] >= 1
        assert "cluster_buckets" in summary

    def test_profile_survives_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cell = isolated_cell(hybrid(), WORDCOUNT, "2GB", profile=True)
        runner = PoolRunner(max_workers=1, cache=cache)
        first = runner.run_cells([cell])[0]
        again = PoolRunner(max_workers=1, cache=cache).run_cells([cell])[0]
        assert again.from_cache and not first.from_cache
        assert decode_profile(again.payload) == decode_profile(first.payload)

    def test_sweep_architectures_exposes_profiles(self, tmp_path):
        from repro.analysis.sweep import sweep_architectures

        grid = sweep_architectures(
            [hybrid()], WORDCOUNT, ["1GB", "2GB"],
            runner=PoolRunner(max_workers=1, cache=None), profile=True,
        )
        column = grid["Hybrid"]
        assert len(column.profiles) == 2
        assert all(p and p["jobs"] == 1 for p in column.profiles)
        bare = sweep_architectures(
            [hybrid()], WORDCOUNT, ["1GB", "2GB"],
            runner=PoolRunner(max_workers=1, cache=None),
        )
        assert all(p is None for p in bare["Hybrid"].profiles)
        assert [r.execution_time for r in column.results] == [
            r.execution_time for r in bare["Hybrid"].results
        ]


class TestCli:
    def test_profile_command_writes_dashboard_and_json(self, tmp_path, capsys):
        out = tmp_path / "run.html"
        summary = tmp_path / "summary.json"
        rc = main([
            "profile", "--jobs", "12", "--ab",
            "--out", str(out), "--json", str(summary),
        ])
        assert rc == 0
        html = out.read_text()
        assert "http://" not in html and "https://" not in html
        assert html.count('class="run"') == 2
        labels = [entry["label"] for entry in json.loads(summary.read_text())]
        assert labels == ["Hybrid", "THadoop"]
        assert "dashboard written" in capsys.readouterr().out

    def test_profile_command_accepts_a_trace_file(self, tmp_path):
        trace_path = tmp_path / "t.json"
        deployment, _ = _run_job(WORDCOUNT, 4 * GB, tracer=Tracer())
        write_chrome_trace(deployment.tracer, trace_path)
        out = tmp_path / "p.html"
        rc = main(["profile", "--trace-in", str(trace_path), "--out", str(out)])
        assert rc == 0 and "<svg" in out.read_text()

    def test_profile_rejects_identical_ab_pair(self, capsys):
        rc = main(["profile", "--arch", "Hybrid", "--ab", "Hybrid"])
        assert rc == 1

    def test_replay_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        rc = main([
            "replay", "--jobs", "12", "--no-cache", "--metrics-out", str(out),
        ])
        assert rc == 0
        flat = json.loads(out.read_text())
        assert flat and any(key.endswith(".p95") for key in flat)


class TestSummary:
    def test_to_summary_is_json_safe_and_complete(self):
        deployment, _ = _replay(num_jobs=10, tracer=Tracer())
        summary = deployment.profile_run(label="s").to_summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["label"] == "s"
        assert summary["jobs"] == len(deployment.profile_run().jobs)
        assert set(summary["buckets"]) == set(BUCKETS)

    def test_build_run_profile_accepts_raw_events(self):
        tracer = Tracer()
        deployment = Deployment(hybrid(), register_datasets=True, tracer=tracer)
        deployment.run_job(WORDCOUNT.make_job(2 * GB))
        via_tracer = build_run_profile(tracer, label="r")
        via_events = profile_run(list(tracer.events), label="r")
        assert via_events.to_summary() == via_tracer.to_summary()
