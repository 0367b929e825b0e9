"""Trace-scale replay bench: how fast can we retire a million jobs?

Replays FB-2009 synthesized traces (same 6000-jobs/day arrival rate as
the Section V replay, shrink factor 5) at growing scale through two
configurations of the simulator:

* ``heap``     — full event-by-event simulation on the engine's
  binary-heap event queue;
* ``analytic`` — the same engine with the full-analytic fast path
  (``FastPathPolicy.full_analytic()``): one completion event per job,
  fluid FIFO queueing, tolerance-validated — NOT byte-identical.

For each scale the report archives wall-clock, events processed and
events/sec.  For the analytic mode it also archives
``equivalent_events_per_sec`` — the events the heap baseline needed for
the same trace, divided by the analytic wall time ("baseline event work
retired per second") — plus honest accuracy deltas against the baseline
(makespan + per-job execution-time error quantiles).  Nothing is
extrapolated: every number comes from an end-to-end replay at that
scale, and scales that were not run in this invocation are not carried
over into the report.

Usage::

    python benchmarks/bench_trace_scale.py --jobs 10000
    python benchmarks/bench_trace_scale.py --jobs 10000,100000,1000000
    python benchmarks/bench_trace_scale.py --jobs 10000 --budget 300

``--budget N`` asserts total wall-clock stays under N seconds (the CI
trace-scale-smoke job uses this).  The acceptance bar — the analytic
mode must retire baseline event work at >=10x the full simulation's
events/sec — is asserted on every run that includes the heap baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.core import Deployment, FastPathPolicy
from repro.core.architectures import hybrid
from repro.workload.fb2009 import DAY, generate_fb2009

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / "BENCH_trace.json"

#: Paper arrival rate: 6000 jobs per day, times the fig10 shrink factor.
SHRINK = 5.0
SEED = 2009

#: The acceptance bar (ISSUE 7): analytic mode must retire the heap
#: baseline's event work at >= this multiple of the heap rate.
MIN_EQUIVALENT_SPEEDUP = 10.0


def build_jobs(num_jobs: int):
    trace = generate_fb2009(
        num_jobs=num_jobs, duration=DAY * num_jobs / 6000.0, seed=SEED
    ).shrink(SHRINK)
    return trace.to_jobspecs()


def replay(jobs, fast: bool):
    policy = FastPathPolicy.full_analytic() if fast else None
    # ~200 events/job of headroom: a 1M-job full simulation is ~160M
    # events, past the engine's default runaway-chain valve.
    deployment = Deployment(
        hybrid(),
        fast_path=policy,
        max_events=max(50_000_000, 500 * len(jobs)),
    )
    t0 = time.perf_counter()
    results = deployment.run_trace(jobs, register_dataset=False)
    wall = time.perf_counter() - t0
    return wall, deployment.sim.events_processed, results


def makespan(results) -> float:
    return max(r.end_time for r in results) - min(
        r.submit_time for r in results
    )


def accuracy(baseline, approximate) -> dict:
    """Per-job execution-time error quantiles of an approximate replay
    against the event-accurate baseline (jobs matched by submit order)."""
    errs = sorted(
        abs(a.execution_time - b.execution_time) / b.execution_time
        for b, a in zip(
            sorted(baseline, key=lambda r: r.submit_time),
            sorted(approximate, key=lambda r: r.submit_time),
        )
        if b.execution_time > 0
    )
    count = len(errs)
    base_span = makespan(baseline)
    return {
        "makespan_rel_err": round(
            abs(makespan(approximate) - base_span) / base_span, 5
        ),
        "exec_time_rel_err": {
            "mean": round(sum(errs) / count, 4),
            "median": round(errs[count // 2], 4),
            "p90": round(errs[int(count * 0.9)], 4),
            "max": round(errs[-1], 4),
        },
    }


def run_scale(num_jobs: int, modes) -> dict:
    t0 = time.perf_counter()
    jobs = build_jobs(num_jobs)
    gen_seconds = time.perf_counter() - t0
    print(
        f"[{num_jobs:>9,} jobs] trace generated in {gen_seconds:.1f}s",
        flush=True,
    )

    entry: dict = {"generate_seconds": round(gen_seconds, 2), "modes": {}}
    baseline = None
    baseline_events = baseline_rate = None
    for mode in modes:
        wall, events, results = replay(jobs, fast=(mode == "analytic"))
        rate = events / wall
        stats = {
            "wall_seconds": round(wall, 2),
            "events_processed": events,
            "events_per_sec": round(rate),
            "makespan_seconds": round(makespan(results), 2),
        }
        line = f"[{num_jobs:>9,} jobs] {mode:<8} {wall:9.2f}s  {events:>12,} events  {rate:>12,.0f} ev/s"
        if mode == "heap":
            baseline, baseline_events, baseline_rate = results, events, rate
        elif mode == "analytic" and baseline is not None:
            equivalent_rate = baseline_events / wall
            speedup = equivalent_rate / baseline_rate
            stats["equivalent_events_per_sec"] = round(equivalent_rate)
            stats["speedup_vs_heap"] = round(speedup, 1)
            stats["accuracy_vs_heap"] = accuracy(baseline, results)
            line += f"  ({speedup:.1f}x heap)"
            assert speedup >= MIN_EQUIVALENT_SPEEDUP, (
                f"analytic mode retired baseline event work at only "
                f"{speedup:.1f}x the heap rate (bar: {MIN_EQUIVALENT_SPEEDUP}x)"
            )
        entry["modes"][mode] = stats
        print(line, flush=True)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        default="10000",
        help="comma-separated trace sizes to replay (default: 10000)",
    )
    parser.add_argument(
        "--modes",
        default="heap,analytic",
        help="comma-separated subset of heap,analytic",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="assert total wall-clock (seconds) stays under this",
    )
    parser.add_argument(
        "--report",
        default=str(REPORT),
        help=f"output path (default: {REPORT})",
    )
    args = parser.parse_args(argv)

    scales = [int(s) for s in args.jobs.split(",")]
    modes = [m.strip() for m in args.modes.split(",")]
    unknown = set(modes) - {"heap", "analytic"}
    if unknown:
        parser.error(f"unknown modes: {sorted(unknown)}")

    t0 = time.perf_counter()
    report = {
        "trace": {
            "workload": "fb2009-synthesized",
            "arrival_rate_jobs_per_day": 6000,
            "shrink_factor": SHRINK,
            "seed": SEED,
            "architecture": "hybrid",
        },
        "scales": {
            str(n): run_scale(n, modes) for n in scales
        },
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
    }
    total = time.perf_counter() - t0
    report["total_wall_seconds"] = round(total, 2)

    Path(args.report).write_text(json.dumps(report, indent=1) + "\n")
    print(f"report -> {args.report}  (total {total:.1f}s)", flush=True)

    if args.budget is not None and total > args.budget:
        print(
            f"FAIL: wall-clock {total:.1f}s exceeded budget {args.budget:.0f}s",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
