"""Resilience experiment: the FB-2009 replay under a shared fault plan.

The paper compares Hybrid, THadoop and RHadoop on a *healthy* testbed
(Section V).  This experiment asks the follow-on question the hybrid
design raises: how do the three architectures degrade when the
infrastructure misbehaves — nodes crash mid-trace, the shared OFS array
loses stripe servers, an HDFS datanode's disk dies, tasks fail
transiently?

One seeded :class:`~repro.faults.plan.FaultPlan` drives all three
deployments; each experiences the subset of events that applies to it
(an ``"up"`` crash only exists on the hybrid, OFS server loss only on
OFS-backed deployments, HDFS replica loss only on THadoop).  The report
compares makespan, completed/failed job counts, completion-time
percentiles, and the fault/retry/degradation counters the trackers and
router accumulate.

Determinism: cells run through :class:`~repro.runner.pool.PoolRunner`,
so serial, parallel and warm-cache runs produce byte-identical reports
(pinned by tests/test_resilience.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.faults.plan import FaultPlan, default_resilience_plan
from repro.mapreduce.job import JobResult
from repro.runner.pool import PoolRunner, raise_on_failure
from repro.runner.spec import replay_cell
from repro.runner.work import decode_replay_results
from repro.workload.cdf import quantile

#: Fault-summary counters worth a row in the rendered report, in order.
_COUNTER_ROWS = (
    ("injected_events", "faults injected"),
    ("task_attempt_failures", "task attempts failed"),
    ("maps_reexecuted", "maps re-executed"),
    ("nodes_crashed", "node crashes"),
    ("nodes_blacklisted", "nodes blacklisted"),
    ("jobs_rerouted", "jobs rerouted"),
    ("jobs_requeued", "jobs requeued"),
    ("jobs_rejected", "jobs rejected"),
    ("storage_data_loss", "storage data loss"),
    ("scale_events_applied", "scale events applied"),
    ("scale_events_skipped", "scale events skipped"),
)


@dataclass
class ArchResilience:
    """One architecture's outcome under the fault plan."""

    architecture: str
    completed: int
    failed: int
    makespan: float
    p50: float
    p90: float
    p99: float
    faults: Dict[str, Any] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.completed + self.failed


@dataclass
class ResilienceReport:
    """The full hybrid-vs-THadoop-vs-RHadoop degradation comparison."""

    plan: FaultPlan
    num_jobs: int
    seed: int
    architectures: Dict[str, ArchResilience] = field(default_factory=dict)


def _summarise(name: str, results: List[JobResult], faults: Dict[str, Any]) -> ArchResilience:
    completed = [r for r in results if not r.failed]
    failed = [r for r in results if r.failed]
    times = [r.execution_time for r in completed]
    if times:
        p50, p90, p99 = (float(v) for v in quantile(times, [0.5, 0.9, 0.99]))
        makespan = max(r.end_time for r in completed)
    else:
        p50 = p90 = p99 = makespan = math.nan
    return ArchResilience(
        architecture=name,
        completed=len(completed),
        failed=len(failed),
        makespan=makespan,
        p50=p50,
        p90=p90,
        p99=p99,
        faults=faults,
    )


def resilience_experiment(
    num_jobs: int = 300,
    seed: int = 2009,
    fault_plan: Optional[FaultPlan] = None,
    fault_seed: int = 0,
    shrink_factor: float = 5.0,
    calibration: Calibration = DEFAULT_CALIBRATION,
    *,
    runner: Optional[PoolRunner] = None,
) -> ResilienceReport:
    """Replay the FB-2009 trace under faults on all three architectures.

    ``fault_plan`` defaults to
    :func:`~repro.faults.plan.default_resilience_plan` seeded with
    ``fault_seed`` and sized to the replay's arrival window, so every
    event lands while the trace is active.  Pass an explicit plan (e.g.
    loaded from ``--faults plan.json``) to replay a recorded schedule.
    """
    from repro.analysis.figures import replay_architectures
    from repro.workload.fb2009 import DAY

    duration = DAY * num_jobs / 6000.0
    if fault_plan is None:
        fault_plan = default_resilience_plan(duration, seed=fault_seed)
    specs = replay_architectures()
    cells = [
        replay_cell(
            spec,  # type: ignore[arg-type]
            num_jobs=num_jobs,
            seed=seed,
            shrink_factor=shrink_factor,
            calibration=calibration,
            duration=duration,
            fault_plan=fault_plan,
        )
        for spec in specs.values()
    ]
    active = runner if runner is not None else PoolRunner()
    outcomes = active.run_cells(cells)
    raise_on_failure(outcomes)
    report = ResilienceReport(plan=fault_plan, num_jobs=num_jobs, seed=seed)
    for name, outcome in zip(specs, outcomes):
        payload = outcome.payload
        assert payload is not None
        results = decode_replay_results(payload)
        report.architectures[name] = _summarise(
            name, results, payload.get("faults", {})
        )
    return report


def render_resilience(report: ResilienceReport) -> str:
    """The resilience report as aligned text tables (CLI output)."""
    from repro.analysis.report import render_table

    def fmt(value: float) -> str:
        return "-" if value != value else f"{value:.1f}"  # NaN check

    rows = [
        [
            arch.architecture,
            arch.completed,
            arch.failed,
            fmt(arch.makespan),
            fmt(arch.p50),
            fmt(arch.p90),
            fmt(arch.p99),
        ]
        for arch in report.architectures.values()
    ]
    tables = [
        render_table(
            ["architecture", "completed", "failed", "makespan (s)",
             "p50 (s)", "p90 (s)", "p99 (s)"],
            rows,
            title=(
                f"Resilience: {report.num_jobs}-job FB-2009 replay under "
                f"{report.plan.describe()}"
            ),
        )
    ]
    counter_rows = []
    for key, label in _COUNTER_ROWS:
        counter_rows.append(
            [label]
            + [
                arch.faults.get(key, 0)
                for arch in report.architectures.values()
            ]
        )
    tables.append(
        render_table(
            ["counter"] + list(report.architectures),
            counter_rows,
            title="fault handling",
        )
    )
    lines = [event.describe() for event in report.plan.events]
    tables.append("plan events:\n  " + "\n  ".join(lines) if lines else "plan events: none")
    return "\n\n".join(tables)


__all__ = [
    "ArchResilience",
    "ResilienceReport",
    "render_resilience",
    "resilience_experiment",
]
