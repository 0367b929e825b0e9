"""Runner scaling: the Fig. 7 cross-point grid, serial vs parallel vs
cached.

Times the same cell grid three ways —

* serial  (``max_workers=1``, no cache),
* parallel (``max_workers=N``; N from ``REPRO_JOBS``, default 2),
* warm-cache re-run (every cell already cached),

asserts all three produce byte-identical payloads, and archives the
timings plus cache-hit statistics (and the Python, sqlite and CPU
environment they were taken in) to ``BENCH_runner.json`` at the repo
root.  No minimum speedup is asserted: cells are milliseconds-long
analytic simulations, so the wall-clock ratio is reported, not
enforced.  What *is* enforced is the subsystem's contract: same bytes,
and zero simulations when warm.

On a box with fewer than two CPUs a "parallel speedup" would measure
process-switching contention, not scaling, so the report marks the
parallel timing as skipped (with the reason) and the test skips with
the same note — the contract assertions still run first.
"""

from __future__ import annotations

import json
import os
import platform
import sqlite3
import time
from pathlib import Path

import pytest

from repro.analysis.figures import FIG7_SIZES
from repro.apps import GREP, WORDCOUNT
from repro.core.architectures import out_ofs, up_ofs
from repro.runner import PoolRunner, ResultCache, canonical_json, sweep_experiment
from conftest import runner_workers

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / "BENCH_runner.json"


def fig7_cells():
    """The cross-point grid: both shuffle apps on up-OFS and out-OFS."""
    archs = [up_ofs(), out_ofs()]
    return (
        sweep_experiment(archs, WORDCOUNT, FIG7_SIZES).cells
        + sweep_experiment(archs, GREP, FIG7_SIZES).cells
    )


def timed(runner: PoolRunner, cells):
    t0 = time.perf_counter()
    outcomes = runner.run_cells(cells)
    return time.perf_counter() - t0, outcomes


def test_runner_scaling(benchmark, artifact, tmp_path):
    cells = fig7_cells()
    workers = max(2, runner_workers())

    serial_seconds, serial = benchmark.pedantic(
        lambda: timed(PoolRunner(max_workers=1), cells),
        rounds=1, iterations=1,
    )

    parallel_runner = PoolRunner(
        max_workers=workers, cache=ResultCache(tmp_path / "cache")
    )
    parallel_seconds, parallel = timed(parallel_runner, cells)
    parallel_stats = parallel_runner.last_stats

    warm_runner = PoolRunner(
        max_workers=workers, cache=ResultCache(tmp_path / "cache")
    )
    warm_seconds, warm = timed(warm_runner, cells)
    warm_stats = warm_runner.last_stats

    # The contract: identical bytes in all three modes, zero warm work.
    serial_bytes = [canonical_json(o.payload) for o in serial]
    assert serial_bytes == [canonical_json(o.payload) for o in parallel]
    assert serial_bytes == [canonical_json(o.payload) for o in warm]
    assert parallel_stats.simulated == len(cells)
    assert warm_stats.simulated == 0
    assert warm_stats.cache_hits == len(cells)

    cpus = os.cpu_count() or 1
    report = {
        "grid": "fig7-crosspoints",
        "cells": len(cells),
        "pool_workers": workers,
        "effective_parallelism": min(workers, cpus),
        "used_pool": parallel_stats.used_pool,
        "serial_seconds": round(serial_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(serial_seconds / warm_seconds, 3),
        "parallel_identical_to_serial": True,
        "cache": {
            "cold": parallel_runner.cache.stats.as_dict(),
            "warm": warm_runner.cache.stats.as_dict(),
        },
        "env": {
            "REPRO_JOBS": os.environ.get("REPRO_JOBS", ""),
            "cpu_count": cpus,
            "python": platform.python_version(),
            "sqlite": sqlite3.sqlite_version,
            "machine": platform.machine(),
        },
    }
    single_core_note = (
        f"parallel speedup not published: cpu_count={cpus} < 2, so "
        f"{workers} workers would measure contention, not scaling"
    )
    if cpus >= 2:
        report["parallel_seconds"] = round(parallel_seconds, 4)
        report["speedup"] = round(serial_seconds / parallel_seconds, 3)
    else:
        report["parallel_timing"] = {"skipped": True, "note": single_core_note}
    REPORT.write_text(json.dumps(report, indent=1) + "\n")
    artifact("runner_scaling", json.dumps(report, indent=1))
    if cpus < 2:
        pytest.skip(single_core_note)
