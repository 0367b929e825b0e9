"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures, printing
the series and archiving it under ``benchmarks/out/`` so the run leaves
inspectable artifacts.  Environment knobs:

* ``REPRO_FULL=1``  — run the Section V replay at the paper's full 6000
  jobs (default: 600, same arrival rate);
* ``REPRO_JOBS=N``  — fan simulation cells out across N worker
  processes (default 1 = serial; results are byte-identical either way);
* ``REPRO_CACHE=1`` — reuse cached cell results across benchmark runs
  through the result store (``$REPRO_CACHE_DIR/results.sqlite``, default
  ``.repro-cache/``); off by default so a benchmark always measures real
  simulations.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.runner import PoolRunner, ResultCache

OUT_DIR = Path(__file__).parent / "out"


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "") == "1"


def replay_jobs() -> int:
    return 6000 if full_scale() else 600


def runner_workers() -> int:
    return max(1, int(os.environ.get("REPRO_JOBS", "1")))


def make_runner() -> PoolRunner:
    """The PoolRunner the environment asked for (see module docstring)."""
    cache = None
    if os.environ.get("REPRO_CACHE", "") == "1":
        cache = ResultCache()
    return PoolRunner(max_workers=runner_workers(), cache=cache)


@pytest.fixture
def runner():
    """Per-test experiment runner; prints its stats after the test."""
    active = make_runner()
    yield active
    if active.lifetime_stats.cells:
        print(f"\n[runner] {active.lifetime_stats.describe()}")


@pytest.fixture
def artifact():
    """Writer that archives a figure's rendered text (and optional JSON
    data for external plotting) and prints the text."""

    def write(name: str, text: str, data=None) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        if data is not None:
            import json

            (OUT_DIR / f"{name}.json").write_text(json.dumps(data, indent=1))
        print()
        print(text)

    return write
