"""One function per paper figure, returning its data series.

Everything here is deterministic given a calibration and a seed.  The
benchmark files under ``benchmarks/`` call these functions and print the
series; EXPERIMENTS.md records the comparison against the paper.

Every producer accepts ``runner=`` (a
:class:`~repro.runner.pool.PoolRunner`) to fan its independent
simulation cells out across processes and reuse cached results; with
``runner=None`` cells run serially in-process and the output is
byte-identical either way (pinned by tests/test_runner_determinism.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import normalize_series
from repro.analysis.sweep import SweepResult, sweep_architectures
from repro.apps import GREP, TESTDFSIO_WRITE, WORDCOUNT
from repro.apps.base import AppProfile, get_app
from repro.core.architectures import (
    hybrid,
    out_hdfs,
    out_ofs,
    rhadoop,
    thadoop,
    up_hdfs,
    up_ofs,
)
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.crosspoint import estimate_cross_point, normalized_ratio
from repro.core.scheduler import PAPER_CROSS_POINTS, Decision, SizeAwareScheduler
from repro.faults.plan import FaultPlan
from repro.mapreduce.job import JobResult
from repro.runner.pool import PoolRunner, raise_on_failure
from repro.runner.spec import replay_cell
from repro.runner.work import decode_replay_results, execute_replay_observed
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer
from repro.units import GB
from repro.workload.cdf import cdf_at
from repro.workload.fb2009 import FIG3_AXIS_POINTS, generate_fb2009, segment_shares
from repro.workload.trace import Trace

#: The x-axes of the paper's measurement figures.
SHUFFLE_APP_SIZES: Tuple[float, ...] = tuple(
    s * GB for s in (0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 448)
)
DFSIO_SIZES: Tuple[float, ...] = tuple(
    s * GB for s in (1, 3, 5, 10, 30, 50, 80, 100, 300, 500, 800, 1000)
)
#: Fig. 7 sweeps 0–100 GB; Fig. 8 sweeps 0–30 GB.
FIG7_SIZES: Tuple[float, ...] = tuple(
    s * GB for s in (0.5, 1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 80, 100)
)
FIG8_SIZES: Tuple[float, ...] = tuple(s * GB for s in (1, 3, 5, 8, 10, 15, 20, 30))

#: Normalization reference, per the paper.
REFERENCE_ARCH = "up-OFS"


@dataclass
class FigureData:
    """One panel: x sizes and named y series (None = infeasible cell)."""

    title: str
    sizes: List[float]
    series: Dict[str, List[Optional[float]]]
    notes: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (for plotting outside this library)."""
        return {
            "title": self.title,
            "sizes": list(self.sizes),
            "series": {k: list(v) for k, v in self.series.items()},
            "notes": dict(self.notes),
        }


def _table1_specs():
    return (out_ofs(), up_ofs(), out_hdfs(), up_hdfs())


def measurement_panels(
    app: AppProfile,
    sizes: Sequence[float] = SHUFFLE_APP_SIZES,
    calibration: Calibration = DEFAULT_CALIBRATION,
    *,
    seed: int = 0,
    runner: Optional[PoolRunner] = None,
) -> Dict[str, FigureData]:
    """The four panels of Figs. 5/6/9 for one application.

    Execution time and map-phase duration are normalized by up-OFS (as in
    the paper); shuffle and reduce durations are raw seconds.
    """
    grid = sweep_architectures(
        _table1_specs(), app, sizes, calibration, seed=seed, runner=runner
    )
    sizes_list = list(sizes)

    def collect(attr: str) -> Dict[str, List[Optional[float]]]:
        return {name: getattr(grid[name], attr) for name in grid}

    exec_norm = normalize_series(collect("execution_times"), REFERENCE_ARCH)
    map_norm = normalize_series(collect("map_phases"), REFERENCE_ARCH)
    return {
        "execution": FigureData(
            f"{app.name}: normalized execution time (by {REFERENCE_ARCH})",
            sizes_list,
            exec_norm,
        ),
        "map": FigureData(
            f"{app.name}: normalized map phase duration (by {REFERENCE_ARCH})",
            sizes_list,
            map_norm,
        ),
        "shuffle": FigureData(
            f"{app.name}: shuffle phase duration (s)",
            sizes_list,
            collect("shuffle_phases"),
        ),
        "reduce": FigureData(
            f"{app.name}: reduce phase duration (s)",
            sizes_list,
            collect("reduce_phases"),
        ),
    }


def fig3_trace_cdf(
    trace: Optional[Trace] = None, num_jobs: int = 6000, seed: int = 2009
) -> FigureData:
    """CDF of input data size in the FB-2009 synthesized trace."""
    if trace is None:
        trace = generate_fb2009(num_jobs=num_jobs, seed=seed)
    sizes = trace.input_sizes()
    axis = list(FIG3_AXIS_POINTS)
    cdf = cdf_at(sizes, axis)
    small, median, large = segment_shares(trace)
    return FigureData(
        "Fig 3: CDF of input data size (FB-2009 synthesized)",
        axis,
        {"CDF": [float(v) for v in cdf]},
        notes={
            "share_below_1MB": small,
            "share_1MB_to_30GB": median,
            "share_above_30GB": large,
            "num_jobs": len(trace),
        },
    )


def fig5_wordcount(
    calibration: Calibration = DEFAULT_CALIBRATION,
    sizes: Sequence[float] = SHUFFLE_APP_SIZES,
    *,
    runner: Optional[PoolRunner] = None,
) -> Dict[str, FigureData]:
    """Fig. 5(a-d): Wordcount on the four architectures."""
    return measurement_panels(WORDCOUNT, sizes, calibration, runner=runner)


def fig6_grep(
    calibration: Calibration = DEFAULT_CALIBRATION,
    sizes: Sequence[float] = SHUFFLE_APP_SIZES,
    *,
    runner: Optional[PoolRunner] = None,
) -> Dict[str, FigureData]:
    """Fig. 6(a-d): Grep on the four architectures."""
    return measurement_panels(GREP, sizes, calibration, runner=runner)


def fig9_dfsio(
    calibration: Calibration = DEFAULT_CALIBRATION,
    sizes: Sequence[float] = DFSIO_SIZES,
    *,
    runner: Optional[PoolRunner] = None,
) -> Dict[str, FigureData]:
    """Fig. 9(a-d): TestDFSIO write on the four architectures."""
    return measurement_panels(TESTDFSIO_WRITE, sizes, calibration, runner=runner)


def _up_out_sweep(
    app: AppProfile,
    sizes: Sequence[float],
    calibration: Calibration,
    runner: Optional[PoolRunner] = None,
) -> Tuple[SweepResult, SweepResult]:
    grid = sweep_architectures(
        (up_ofs(), out_ofs()), app, sizes, calibration, runner=runner
    )
    return grid["up-OFS"], grid["out-OFS"]


def crosspoint_series(
    app_name: str,
    sizes: Sequence[float],
    calibration: Calibration = DEFAULT_CALIBRATION,
    *,
    runner: Optional[PoolRunner] = None,
) -> Tuple[List[float], Optional[float]]:
    """Normalized out-OFS/up-OFS execution-time curve and its cross point."""
    app = get_app(app_name)
    up, out = _up_out_sweep(app, sizes, calibration, runner)
    up_times = [t for t in up.execution_times]
    out_times = [t for t in out.execution_times]
    if any(t is None for t in up_times + out_times):
        raise RuntimeError("OFS sweeps should never be infeasible")
    ratio = normalized_ratio(up_times, out_times)
    cross = estimate_cross_point(list(sizes), up_times, out_times)
    return [float(r) for r in ratio], cross


def fig7_crosspoints(
    calibration: Calibration = DEFAULT_CALIBRATION,
    sizes: Sequence[float] = FIG7_SIZES,
    *,
    runner: Optional[PoolRunner] = None,
) -> FigureData:
    """Fig. 7: cross points of Wordcount (~32 GB) and Grep (~16 GB)."""
    wc_ratio, wc_cross = crosspoint_series(
        "wordcount", sizes, calibration, runner=runner
    )
    grep_ratio, grep_cross = crosspoint_series(
        "grep", sizes, calibration, runner=runner
    )
    return FigureData(
        "Fig 7: normalized out-OFS execution time (by up-OFS)",
        list(sizes),
        {"out-OFS-Wordcount": wc_ratio, "out-OFS-Grep": grep_ratio},
        notes={
            "wordcount_cross_point": wc_cross,
            "grep_cross_point": grep_cross,
            "paper_wordcount_cross_point": PAPER_CROSS_POINTS.high_ratio_cross,
            "paper_grep_cross_point": PAPER_CROSS_POINTS.mid_ratio_cross,
        },
    )


def fig8_crosspoint_dfsio(
    calibration: Calibration = DEFAULT_CALIBRATION,
    sizes: Sequence[float] = FIG8_SIZES,
    *,
    runner: Optional[PoolRunner] = None,
) -> FigureData:
    """Fig. 8: cross point of TestDFSIO write (~10 GB)."""
    ratio, cross = crosspoint_series(
        "testdfsio-write", sizes, calibration, runner=runner
    )
    return FigureData(
        "Fig 8: normalized out-OFS execution time (by up-OFS)",
        list(sizes),
        {"out-OFS-Write": ratio},
        notes={
            "dfsio_cross_point": cross,
            "paper_dfsio_cross_point": PAPER_CROSS_POINTS.low_ratio_cross,
        },
    )


# -- Fig. 10: the Section V trace-driven evaluation ------------------------


@dataclass
class TraceReplayResult:
    """Per-architecture outcome of the FB-2009 replay."""

    architecture: str
    results: List[JobResult]
    scale_up_times: np.ndarray
    scale_out_times: np.ndarray

    @property
    def max_scale_up_time(self) -> float:
        return float(self.scale_up_times.max())

    @property
    def max_scale_out_time(self) -> float:
        return float(self.scale_out_times.max())

    @property
    def mean_execution_time(self) -> float:
        return float(np.mean([r.execution_time for r in self.results]))


def replay_architectures() -> Dict[str, object]:
    """The three Section V deployments, freshly specified."""
    return {"Hybrid": hybrid(), "THadoop": thadoop(), "RHadoop": rhadoop()}


def fig10_trace_replay(
    calibration: Calibration = DEFAULT_CALIBRATION,
    num_jobs: int = 6000,
    seed: int = 2009,
    shrink_factor: float = 5.0,
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    runner: Optional[PoolRunner] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Dict[str, TraceReplayResult]:
    """Replay the FB-2009 trace on Hybrid, THadoop and RHadoop.

    Jobs are classified as *scale-up jobs* / *scale-out jobs* by
    Algorithm 1 (the classification the paper uses to split Fig. 10a
    from 10b) and that same classification is applied to every
    architecture so the comparisons line up job-for-job.

    When ``num_jobs`` is below the trace's 6000 jobs, the replay window
    shrinks proportionally so the *arrival rate* — and therefore the slot
    contention the paper's Fig. 10(b) argument rests on — matches the
    full trace.

    Optional ``tracer``/``metrics`` observers are attached to the Hybrid
    replay only (one tracer records one simulation clock); telemetry
    never changes the results.  Because
    observers cannot cross process boundaries, the observed replay runs
    in-process and uncached; the other architectures still go through
    ``runner``.

    An optional ``fault_plan`` is injected into every architecture's
    replay (each experiences the subset of events that applies to it —
    see :mod:`repro.faults.plan`); omitted or empty, the replay is the
    healthy one, byte-identical to runs that predate fault injection.
    """
    from repro.workload.fb2009 import DAY

    duration = DAY * num_jobs / 6000.0
    trace = generate_fb2009(
        num_jobs=num_jobs, seed=seed, duration=duration
    ).shrink(shrink_factor)
    jobs = trace.to_jobspecs()
    scheduler = SizeAwareScheduler()
    up_ids = {
        j.job_id
        for j in jobs
        if scheduler.decide_job(j) is Decision.SCALE_UP
    }

    specs = replay_architectures()
    cells = {
        name: replay_cell(
            spec,  # type: ignore[arg-type]
            num_jobs=num_jobs,
            seed=seed,
            shrink_factor=shrink_factor,
            calibration=calibration,
            duration=duration,
            fault_plan=fault_plan,
        )
        for name, spec in specs.items()
    }
    observed = (
        "Hybrid" if (tracer is not None or metrics is not None) else None
    )
    pooled = [name for name in cells if name != observed]
    active = runner if runner is not None else PoolRunner()
    outcomes = active.run_cells([cells[name] for name in pooled])
    raise_on_failure(outcomes)
    payloads = {name: o.payload for name, o in zip(pooled, outcomes)}
    if observed is not None:
        payloads[observed] = execute_replay_observed(
            cells[observed], tracer=tracer, metrics=metrics
        )

    outcome: Dict[str, TraceReplayResult] = {}
    for name in specs:
        results = decode_replay_results(payloads[name])  # type: ignore[arg-type]
        up_times = np.array(
            [r.execution_time for r in results if r.job_id in up_ids]
        )
        out_times = np.array(
            [r.execution_time for r in results if r.job_id not in up_ids]
        )
        outcome[name] = TraceReplayResult(
            architecture=name,
            results=results,
            scale_up_times=up_times,
            scale_out_times=out_times,
        )
    return outcome
