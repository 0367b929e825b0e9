"""Host-time benchmark of the reproduction: one command, four workloads.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fb2009-exact --seed 2009 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached:
set-ups and timed passes repeat until ``--seconds`` have gone by, and
each metric is the median (or percentile) over them.  ``--trace 1`` is
the separate traced run: one untraced pass, then one pass with the span
wrappers of ``tracing.py`` installed, reported as per-layer metrics.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md for the workloads, the metrics and the
seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Working space for stores, checkpoints and span files, inside the tree
#: the benchmark runs from (ignored by git).
OUT = Path.cwd() / ".perfbench"

#: Variables that select program behaviour; the benchmark measures the
#: defaults, so each one found set is recorded and then unset.
REPRO_ENV = (
    "REPRO_KERNEL", "REPRO_CACHE_BACKEND", "REPRO_CACHE_DIR",
    "REPRO_CACHE", "REPRO_JOBS", "REPRO_FULL",
)
#: Set-ups measured per run: at least MIN_SETUPS, unless the passes'
#: own set-ups already took MAX_SETUP_SECONDS.
MIN_SETUPS = 9
MAX_SETUP_SECONDS = 2.0
#: The default seed; 4242 is held out for later claims (README.md).
DEFAULT_SEED = 2009

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("round_p50_ms", "ms"),
    ("round_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("bench.self_s", "s"), ("client.self_s", "s"), ("other.self_s", "s"),
    ("simulator.events", "count"), ("simulator.scheduled", "count"),
    ("simulator.useful_ratio", "ratio"), ("simulator.loop_self_s", "s"),
    ("simulator.us_per_event", "us"),
    ("resources.calls", "count"), ("resources.self_s", "s"),
    ("slots.calls", "count"), ("slots.self_s", "s"),
    ("mapreduce.callbacks", "count"), ("mapreduce.submit_s", "s"),
    ("mapreduce.self_s", "s"),
    ("storage.reads", "count"), ("storage.writes", "count"),
    ("storage.self_s", "s"),
    ("core.submit_s", "s"), ("core.self_s", "s"),
    ("fastpath.calls", "count"), ("fastpath.accept_ratio", "ratio"),
    ("fastpath.self_s", "s"), ("fastpath.err_p99", "ratio"),
    ("fastpath.err_max", "ratio"),
    ("workload.generate_s", "s"),
    ("runner.cell_busy_s", "s"), ("runner.pool_overhead_s", "s"),
    ("runner.key_s", "s"), ("runner.store_get_s", "s"), ("runner.store_put_s", "s"),
    ("runner.self_s", "s"), ("runner.hit_ratio", "ratio"),
    ("runner.retries", "count"), ("runner.failures", "count"),
    ("service.validate_s", "s"), ("service.admit_s", "s"),
    ("service.advance_self_s", "s"), ("service.drain_s", "s"),
    ("service.status_s", "s"), ("service.metrics_s", "s"),
    ("service.rejected", "count"), ("service.clamped", "count"),
    ("checkpoint.saves", "count"), ("checkpoint.save_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("http.requests", "count"), ("http.post_s", "s"), ("http.get_s", "s"),
    ("bus.frames", "count"), ("bus.publish_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio"),
    ("trace.telescope_err", "ratio"), ("trace.spans", "count"),
)

#: Layers whose self times partition a traced pass.
LAYERS = (
    "bench", "client", "other", "simulator", "resources", "slots",
    "mapreduce", "storage", "core", "fastpath", "workload", "runner",
    "service", "checkpoint", "http", "bus",
)
TELESCOPE_TOLERANCE = 0.05


def environment(found: Dict[str, str]) -> Dict[str, Any]:
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repro_env_unset": found,
    }


def import_program() -> None:
    """Import ``repro`` from this tree's ``src``, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: repro imported from outside {src}", file=sys.stderr)
        raise SystemExit(2)


# -- untraced: end-to-end metrics ----------------------------------------


def measure(workload: Any, seed: int, seconds: float) -> Tuple[Dict[str, float], int, int, List[Any]]:
    from workloads import Check

    setups: List[float] = []
    passes: List[Any] = []
    checks: List[Any] = []
    digests: Dict[int, set] = {}
    deadline = time.perf_counter() + seconds
    last = 0.0
    # Start another pass only while one more (as long as the last) fits.
    while len(passes) < workload.draws or time.perf_counter() + last <= deadline:
        draw = len(passes) % workload.draws
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed, draw)
        setups.append(time.perf_counter() - t0)
        try:
            done = workload.run_pass(state)
            last = time.perf_counter() - t0
            if not passes:
                checks += workload.checks(seed, state, done)
        finally:
            workload.teardown(state)
        passes.append(done)
        digests.setdefault(draw, set()).add(done.digest)
    while len(setups) < MIN_SETUPS and sum(setups) < MAX_SETUP_SECONDS:
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed, len(setups) % workload.draws)
        setups.append(time.perf_counter() - t0)
        workload.teardown(state)

    checks.append(
        Check(
            "repeated passes give the same results",
            all(len(d) == 1 for d in digests.values()),
            f"{len(passes)} passes over {len(digests)} input sets",
        )
    )
    rounds = [r for p in passes for r in p.rounds]
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": statistics.median(p.work / p.wall for p in passes),
        "round_p50_ms": 1000 * statistics.median(rounds),
        "round_p95_ms": 1000 * statistics.quantiles(rounds, n=20, method="inclusive")[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": sum(p.failed for p in passes) / sum(p.attempted for p in passes),
        "passes": len(passes),
        "rounds": len(rounds),
    }
    return (
        metrics,
        sum(p.attempted for p in passes),
        sum(p.failed for p in passes),
        checks,
    )


# -- traced: per-layer metrics -------------------------------------------


def traced(workload: Any, seed: int, spans_path: Path) -> Tuple[Dict[str, float], int, int, List[Any]]:
    from tracing import Chunk, Tracer, aggregate, merge_rows, root_seconds, write_spans
    from workloads import Check

    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    try:
        plain = workload.run_pass(state)
        untraced_wall = time.perf_counter() - t0
        checks = workload.checks(seed, state, plain)
    finally:
        workload.teardown(state)

    spool = Path(tempfile.mkdtemp(prefix="spool-", dir=OUT))
    tracer = Tracer(spool)
    log = tracer.log
    gc.collect()
    tracer.install()
    try:
        t0 = time.perf_counter()
        root = log.open(log.intern("bench:self"))
        state = workload.setup(seed)
    except BaseException:
        tracer.uninstall()
        raise
    try:
        try:
            done = workload.run_pass(state)
            log.close(root)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        extras = workload.extras(state, done)
    finally:
        workload.teardown(state)
    workers = tracer.collect_spool()
    shutil.rmtree(spool, ignore_errors=True)
    main = Chunk(log.snapshot())
    chunks = [main] + workers
    write_spans(spans_path, chunks)

    # Self times telescope: the main process's to its traced wall time,
    # the pool workers' to the cells they ran.
    main_rows, worker_rows = aggregate([main]), aggregate(workers)
    telescope = abs(sum(r["self_s"] for r in main_rows.values()) - traced_wall) / traced_wall
    busy = root_seconds(workers)
    if workers:
        worker_sum = sum(r["self_s"] for r in worker_rows.values())
        telescope = max(telescope, abs(worker_sum - busy) / busy)
    rows = merge_rows(main_rows, worker_rows)
    counts: Dict[str, float] = {}
    for chunk in chunks:
        for key, value in chunk.counts.items():
            counts[key] = counts.get(key, 0) + value

    def self_s(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0)

    def count(name: str) -> float:
        return rows.get(name, {}).get("count", 0)

    def layer(name: str) -> float:
        return sum(r["self_s"] for n, r in rows.items() if n.split(":")[0] == name)

    events = counts.get("simulator.events", 0)
    scheduled = counts.get("simulator.scheduled", 0)
    calls = counts.get("fastpath.calls", 0)
    if not workers:
        busy = rows.get("runner:execute_cell", {}).get("total_s", 0.0)
    loop_total = rows.get("simulator:loop", {}).get("total_s", 0.0)
    metrics: Dict[str, float] = {f"{name}.self_s": layer(name) for name in ("bench", "client", "other")}
    metrics.update({
        "simulator.events": events,
        "simulator.scheduled": scheduled,
        "simulator.useful_ratio": events / scheduled if scheduled else 0.0,
        "simulator.loop_self_s": layer("simulator"),
        "simulator.us_per_event": 1e6 * loop_total / events if events else 0.0,
        "resources.calls": count("resources:call") + count("resources:callback"),
        "resources.self_s": layer("resources"),
        "slots.calls": count("slots:call"),
        "slots.self_s": layer("slots"),
        "mapreduce.callbacks": count("mapreduce:callback"),
        "mapreduce.submit_s": self_s("mapreduce:submit"),
        "mapreduce.self_s": layer("mapreduce"),
        "storage.reads": count("storage:read"),
        "storage.writes": count("storage:write"),
        "storage.self_s": layer("storage"),
        "core.submit_s": self_s("core:submit"),
        "core.self_s": layer("core"),
        "fastpath.calls": calls,
        "fastpath.accept_ratio": counts.get("fastpath.accepted", 0) / calls if calls else 0.0,
        "fastpath.self_s": layer("fastpath"),
        "fastpath.err_p99": 0.0,
        "fastpath.err_max": 0.0,
        "workload.generate_s": layer("workload"),
        "runner.cell_busy_s": busy,
        # A grid pass's wall time is its cold pass.
        "runner.pool_overhead_s": done.wall * workload.workers - busy if busy else 0.0,
        "runner.key_s": self_s("runner:content_key"),
        "runner.store_get_s": self_s("runner:store_get"),
        "runner.store_put_s": self_s("runner:store_put"),
        "runner.self_s": layer("runner"),
        "runner.hit_ratio": 0.0,
        "runner.retries": 0,
        "runner.failures": 0,
        "service.validate_s": self_s("service:validate"),
        "service.admit_s": self_s("service:admit"),
        "service.advance_self_s": self_s("service:advance"),
        "service.drain_s": self_s("service:drain"),
        "service.status_s": self_s("service:status"),
        "service.metrics_s": self_s("service:metrics"),
        "service.rejected": 0,
        "service.clamped": 0,
        "checkpoint.saves": count("checkpoint:save"),
        "checkpoint.save_s": layer("checkpoint"),
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0),
        "http.requests": count("http:post") + count("http:get"),
        "http.post_s": self_s("http:post"),
        "http.get_s": self_s("http:get"),
        "bus.frames": count("bus:publish"),
        "bus.publish_s": layer("bus"),
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.telescope_err": telescope,
        "trace.spans": sum(len(c.start) for c in chunks),
    })
    metrics.update(extras)

    unknown = sorted(n for n in rows if n.split(":")[0] not in LAYERS)
    checks += [
        Check("traced results equal untraced", done.digest == plain.digest, done.digest[:16]),
        Check(
            "layer self times telescope to the traced wall",
            telescope <= TELESCOPE_TOLERANCE and not unknown,
            f"error {telescope:.4f}{' unknown spans ' + ','.join(unknown) if unknown else ''}",
        ),
    ]
    attempted = plain.attempted + done.attempted
    failed = plain.failed + done.failed
    metrics["failed_frac"] = failed / attempted
    return metrics, attempted, failed, checks


# -- entry point ------------------------------------------------------------


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Host-time benchmark of the repro package.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    found = {k: os.environ.pop(k) for k in REPRO_ENV if k in os.environ}
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = environment(found)
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    workload = workloads.build(args.workload, workdir, tiny=args.tiny)
    names = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}.pkl"
            metrics, attempted, failed, checks = traced(workload, args.seed, spans)
        else:
            metrics, attempted, failed, checks = measure(workload, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # Pool workers exit on their own after the pool shuts down; wait.
        for child in multiprocessing.active_children():
            child.join(timeout=60)

    for check in checks:
        print(f"check {'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    for key in ("passes", "rounds"):
        if key in metrics:
            print(f"{key:<26} {metrics.pop(key)}")
    print(f"{'failed_frac':<26} {metrics.pop('failed_frac'):.6g} ratio ({failed} of {attempted})")
    for name, unit in names:
        print(f"{name:<26} {metrics[name]:.6g} {unit}")
    correct = all(c.ok for c in checks) and failed == 0
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(
            {"workload": args.workload, "seed": args.seed, "env": env,
             "checks": [c.__dict__ for c in checks], "metrics": metrics},
            indent=1, sort_keys=True,
        ) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
