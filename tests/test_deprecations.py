"""Deprecation hygiene: completed cycles fail loudly, the repo stays quiet.

Two invariants:

* a removed legacy spelling raises ``TypeError`` — the
  ``register_datasets=`` kwarg and the bare-default ``run_job`` warning
  completed their deprecation cycle and are gone, so stale callers fail
  loudly instead of silently changing behaviour; and
* no in-repo caller — library entry points, CLI commands — triggers any
  deprecation warning.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

import pytest

from repro.analysis.figures import fig10_trace_replay
from repro.analysis.sweep import run_isolated, sweep_architectures
from repro.apps import GREP
from repro.cli import main
from repro.core.architectures import up_hdfs, up_ofs
from repro.core.deployment import Deployment
from repro.units import GB
from repro.workload.fb2009 import generate_fb2009


@contextmanager
def no_deprecations():
    """Turn any DeprecationWarning raised inside the block into a failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


class TestCompletedCyclesFailLoudly:
    """Removed spellings raise TypeError, never warn-and-continue."""

    def test_run_trace_plural_kwarg_is_gone(self):
        deployment = Deployment(up_ofs())
        trace = generate_fb2009(num_jobs=3, seed=7, duration=60.0)
        with pytest.raises(TypeError, match="register_datasets"):
            deployment.run_trace(trace.to_jobspecs(), register_datasets=False)

    def test_run_job_bare_default_no_longer_warns(self):
        deployment = Deployment(up_ofs())
        with no_deprecations():
            result = deployment.run_job(GREP.make_job(1 * GB))
        assert result.execution_time > 0


class TestRepoIsWarningClean:
    """No in-repo caller goes through a deprecated path."""

    def test_run_isolated(self):
        with no_deprecations():
            run_isolated(up_ofs(), GREP, 1 * GB)

    def test_sweep_architectures(self):
        with no_deprecations():
            sweep_architectures([up_ofs(), up_hdfs()], GREP, [1 * GB])

    def test_fig10_trace_replay(self):
        with no_deprecations():
            fig10_trace_replay(num_jobs=10, seed=7)

    def test_cli_run_command(self, capsys):
        with no_deprecations():
            assert main(["run", "--app", "grep", "--size", "1GB",
                         "--arch", "up-OFS"]) == 0
        capsys.readouterr()

    def test_cli_sweep_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with no_deprecations():
            assert main(["sweep", "--app", "grep", "--sizes", "1GB",
                         "--workers", "2"]) == 0
        capsys.readouterr()

    def test_service_admission_path(self, tmp_path):
        from repro.core.api import JobSubmission
        from repro.service import ReproService

        with no_deprecations():
            service = ReproService(
                "Hybrid", checkpoint_path=str(tmp_path / "state.json")
            )
            service.submit(JobSubmission(job_id="j1", input_bytes=1 * GB))
            service.drain()
