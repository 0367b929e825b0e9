"""Tests for the resilience experiment and its CLI command.

The load-bearing contract: the report is deterministic across serial,
parallel and warm-cache execution, because the fault plan hashes into
each cell's content key and injection draws no randomness of its own.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.analysis.resilience import (
    ResilienceReport,
    render_resilience,
    resilience_experiment,
)
from repro.faults import FaultEvent, FaultPlan, NODE_CRASH, default_resilience_plan
from repro.runner import PoolRunner, ResultCache


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep every run's result cache out of the repo tree."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


JOBS = 24


def report_dict(report: ResilienceReport) -> dict:
    return {
        name: dataclasses.asdict(arch)
        for name, arch in report.architectures.items()
    }


class TestExperiment:
    def test_report_shape(self):
        report = resilience_experiment(num_jobs=JOBS)
        assert set(report.architectures) == {"Hybrid", "THadoop", "RHadoop"}
        for arch in report.architectures.values():
            assert arch.total == JOBS
            assert arch.faults["injected_events"] >= 1
        assert not report.plan.is_empty

    def test_serial_parallel_warm_cache_identical(self, tmp_path):
        serial = resilience_experiment(num_jobs=JOBS)
        parallel = resilience_experiment(
            num_jobs=JOBS,
            runner=PoolRunner(max_workers=2, cache=ResultCache(tmp_path / "c")),
        )
        warm = resilience_experiment(
            num_jobs=JOBS,
            runner=PoolRunner(max_workers=2, cache=ResultCache(tmp_path / "c")),
        )
        assert report_dict(serial) == report_dict(parallel)
        assert report_dict(parallel) == report_dict(warm)

    def test_fault_seed_changes_plan_not_workload(self):
        a = resilience_experiment(num_jobs=JOBS, fault_seed=1)
        b = resilience_experiment(num_jobs=JOBS, fault_seed=2)
        assert a.plan != b.plan
        assert a.num_jobs == b.num_jobs == JOBS

    def test_explicit_plan_is_used(self):
        plan = FaultPlan(
            events=(FaultEvent(time=5.0, kind=NODE_CRASH, member="out", node=0),),
            name="one-crash",
        )
        report = resilience_experiment(num_jobs=JOBS, fault_plan=plan)
        assert report.plan is plan
        assert all(
            arch.faults["nodes_crashed"] == 1
            for arch in report.architectures.values()
        )

    def test_render_mentions_every_architecture(self):
        report = resilience_experiment(num_jobs=JOBS)
        text = render_resilience(report)
        for name in ("Hybrid", "THadoop", "RHadoop"):
            assert name in text
        assert "faults injected" in text
        assert "plan events:" in text

    def test_render_counts_scale_events(self):
        from repro.elastic import default_elastic_plan
        from repro.workload.fb2009 import DAY

        plan = default_elastic_plan(DAY * JOBS / 6000.0, seed=0)
        report = resilience_experiment(num_jobs=JOBS, fault_plan=plan)
        archs = list(report.architectures.values())
        for arch in archs:
            assert arch.faults["injected_events"] == 0
            assert arch.faults["scale_events_applied"] > 0
            assert (arch.faults["scale_events_applied"]
                    + arch.faults["scale_events_skipped"]) == len(plan.events)
        rows = {
            " ".join(line.split()[:-len(archs)]): line.split()[-len(archs):]
            for line in render_resilience(report).splitlines()
        }
        for key, label in (("scale_events_applied", "scale events applied"),
                           ("scale_events_skipped", "scale events skipped")):
            assert rows[label] == [str(arch.faults[key]) for arch in archs]


class TestCli:
    def test_resilience_command(self, capsys, tmp_path):
        from repro.workload.fb2009 import DAY

        plan_file = tmp_path / "plan.json"
        assert main([
            "resilience", "--jobs", str(JOBS),
            "--save-plan", str(plan_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "Resilience:" in out
        assert "THadoop" in out
        saved = FaultPlan.load(plan_file)
        assert saved == default_resilience_plan(DAY * JOBS / 6000.0, seed=0)

    def test_resilience_with_plan_file(self, capsys, tmp_path):
        plan = FaultPlan(
            events=(FaultEvent(time=5.0, kind=NODE_CRASH, member="out", node=1),),
            name="from-file",
        )
        path = plan.save(tmp_path / "p.json")
        assert main(["resilience", "--jobs", str(JOBS), "--faults", str(path)]) == 0
        assert "from-file" in capsys.readouterr().out

    def test_replay_accepts_faults(self, capsys, tmp_path):
        path = default_resilience_plan(300.0, seed=0).save(tmp_path / "p.json")
        assert main([
            "replay", "--jobs", str(JOBS), "--faults", str(path),
        ]) == 0
        assert "failed jobs:" in capsys.readouterr().out

    def test_malformed_plan_is_a_one_line_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["resilience", "--faults", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_debug_reraises(self, tmp_path):
        from repro.errors import FaultError

        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(FaultError):
            main(["--debug", "resilience", "--faults", str(bad)])

    def test_cache_explains_holes(self, capsys):
        # An infeasible sweep cell (up-HDFS beyond its capacity) leaves a
        # hole; `repro cache` must say why.
        assert main([
            "sweep", "--app", "wordcount", "--sizes", "128GB",
        ]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "infeasible holes" in out
        assert "CapacityError" in out
