"""Runner scaling: the Fig. 7 cross-point grid, serial vs parallel vs
cached.

Times the same cell grid four ways —

* serial  (``max_workers=1``, no cache),
* parallel (``max_workers=N``; N from ``REPRO_JOBS``, default 2),
* warm-cache re-run (every cell already cached),
* warm-cache re-run over a *rebuilt* grid (new cell instances, built as
  the figure functions build them on every call),

asserts all four produce byte-identical payloads, and archives the
timings plus cache-hit statistics (and the Python, sqlite and CPU
environment they were taken in) to ``BENCH_runner.json`` at the repo
root.  Beside them it reports the per-cell cost of a content key on
rebuilt and on reused cells, against the unmemoized reference (the key
hashed straight from ``CellSpec.canonical_payload``).  No minimum
speedup is asserted: cells are milliseconds-long analytic simulations,
so the wall-clock ratio is reported, not enforced.  What *is* enforced
is the subsystem's contract: same bytes, and zero simulations when warm.

On a box with fewer than two CPUs a "parallel speedup" would measure
process-switching contention, not scaling, so the report marks the
parallel timing as skipped (with the reason) and the test skips with
the same note — the contract assertions still run first.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sqlite3
import statistics
import time
from pathlib import Path

import pytest

from repro.analysis.figures import FIG7_SIZES
from repro.apps import GREP, WORDCOUNT
from repro.core.architectures import out_ofs, up_ofs
from repro.runner import (
    CellSpec,
    PoolRunner,
    ResultCache,
    canonical_json,
    sweep_experiment,
)
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


def reference_key(cell: CellSpec) -> str:
    """The key without memos: SHA-256 of the ``asdict`` payload."""
    return hashlib.sha256(
        canonical_json(cell.canonical_payload()).encode("utf-8")
    ).hexdigest()


def key_us_per_cell(key, reuse: bool, rounds: int = 9) -> float:
    """Median per-cell cost of ``key`` over a fig7 grid, microseconds.

    ``reuse`` keys the same instances again (after one keying pass);
    otherwise every round keys a freshly rebuilt grid.
    """
    cells = fig7_cells()
    if reuse:
        for cell in cells:
            key(cell)
    samples = []
    for _ in range(rounds):
        if not reuse:
            cells = fig7_cells()
        t0 = time.perf_counter()
        for cell in cells:
            key(cell)
        samples.append((time.perf_counter() - t0) / len(cells))
    return round(statistics.median(samples) * 1e6, 2)


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

    # Figure functions build new cells on every call: keys of fresh
    # instances, not memoized ones, are what a re-drawn figure pays.
    rebuilt_runner = PoolRunner(
        max_workers=workers, cache=ResultCache(tmp_path / "cache")
    )
    warm_rebuilt_seconds, warm_rebuilt = timed(rebuilt_runner, fig7_cells())
    rebuilt_stats = rebuilt_runner.last_stats

    # The contract: identical bytes in all four modes, zero warm work.
    serial_bytes = [canonical_json(o.payload) for o in serial]
    assert serial_bytes == [canonical_json(o.payload) for o in parallel]
    assert serial_bytes == [canonical_json(o.payload) for o in warm]
    assert serial_bytes == [canonical_json(o.payload) for o in warm_rebuilt]
    assert parallel_stats.simulated == len(cells)
    assert warm_stats.simulated == 0
    assert warm_stats.cache_hits == len(cells)
    assert rebuilt_stats.simulated == 0
    assert rebuilt_stats.cache_hits == len(cells)
    assert [c.content_key() for c in fig7_cells()] == [
        reference_key(c) for c in fig7_cells()
    ]

    cpus = os.cpu_count() or 1
    report = {
        "grid": "fig7-crosspoints",
        "cells": len(cells),
        "pool_workers": workers,
        "effective_parallelism": min(workers, cpus),
        "used_pool": parallel_stats.used_pool,
        "serial_seconds": round(serial_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_rebuilt_seconds": round(warm_rebuilt_seconds, 4),
        "warm_speedup": round(serial_seconds / warm_seconds, 3),
        "key_us_per_cell": {
            "reference": key_us_per_cell(reference_key, reuse=False),
            "rebuilt": key_us_per_cell(CellSpec.content_key, reuse=False),
            "reused": key_us_per_cell(CellSpec.content_key, reuse=True),
        },
        "parallel_identical_to_serial": True,
        "cache": {
            "cold": parallel_runner.cache.stats.as_dict(),
            "warm": warm_runner.cache.stats.as_dict(),
            "warm_rebuilt": rebuilt_runner.cache.stats.as_dict(),
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
