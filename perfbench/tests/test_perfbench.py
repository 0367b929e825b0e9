"""Self-tests of the benchmark, at tiny sizes.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Chunk, Tracer, aggregate  # noqa: E402


def bench(tmp_path: Path, workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    for name, unit in run.PER_LAYER if trace else run.END_TO_END:
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}") for line in lines), name
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    result = bench(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in names
    }
    if trace:
        assert result["metrics"]["trace.telescope_err"]["value"] <= 0.05
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_replay_gives_the_untraced_digest(tmp_path):
    exact = workloads.build("fb2009-exact", tmp_path, tiny=True)
    plain = exact.run_pass(exact.setup(7))
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        traced = exact.run_pass(exact.setup(7))
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    assert len(tracer.log.start) > 0


def test_self_times_telescope_to_the_traced_wall(tmp_path):
    exact = workloads.build("fb2009-exact", tmp_path, tiny=True)
    tracer = Tracer(tmp_path)
    log = tracer.log
    tracer.install()
    try:
        root = log.open(log.intern("bench:self"))
        exact.run_pass(exact.setup(7))
        log.close(root)
    finally:
        tracer.uninstall()
    wall = log.end[root] - log.start[root]
    rows = aggregate([Chunk(log.snapshot())])
    layers = {name.split(":")[0] for name in rows}
    assert layers <= set(run.LAYERS)
    assert {"simulator", "resources", "mapreduce", "storage", "core"} <= layers
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(wall, rel=0.05)


def test_windowed_replay_equals_run_trace(tmp_path):
    exact = workloads.build("fb2009-exact", tmp_path, tiny=True)
    windowed = exact.run_pass(exact.setup(7))
    state = exact.setup(7)
    assert workloads.result_digest(state.deployment.run_trace(state.jobs)) == windowed.digest


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    exact = workloads.build("fb2009-exact", tmp_path, tiny=True)
    assert exact.jobs(7, 0) == exact.jobs(7, 0)
    assert exact.jobs(7, 0) != exact.jobs(8, 0)
    assert exact.jobs(7, 0) != exact.jobs(7, 1)


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (copy / name).write_text((BENCH / name).read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
