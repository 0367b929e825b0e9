"""Head-to-head evaluation: static Algorithm 1 vs online tuning.

The experiment the tuning subsystem exists to answer: *when the
substrate drifts away from the constants the paper measured, does
routing that learns online beat routing frozen at the paper's
thresholds?*

Setup
-----

* **Drifted truth.**  The "real" deployment runs under a
  :func:`drifted_truth` calibration — scale-up cores slower and
  scale-up task overhead higher than the paper's measurements (the
  machines aged, the JVM changed, …).  The true cross points therefore
  sit well below 10/16/32 GB, so the paper's static thresholds
  over-route to scale-up.
* **Shifting mix.**  The workload replays in phases — shuffle-heavy
  (terasort/wordcount) first, then input-heavy (grep/TestDFSIO) — with
  seeded log-uniform sizes and exponential interarrivals, so a policy
  tuned on the early mix must keep up when the mix shifts.
* **Policies**, all replaying the *identical* trace on identical
  deployments (only the router differs):

  - ``static`` — Algorithm 1 with the paper's cross points (the
    baseline the ISSUE pits everything against);
  - ``recalibrated`` — a :class:`~repro.tune.tuner.Tuner` pairing the
    :class:`~repro.tune.calibrator.OnlineCalibrator` with an
    :class:`~repro.tune.router.AdaptiveRouter`: it re-fits the model to
    observed runtimes and re-derives the cross points at every publish
    point;
  - ``bandit`` — a model-free :class:`~repro.tune.router.BanditRouter`
    learning per-(band, size-bucket) costs;
  - ``oracle`` — per-job best member under the *truth* calibration
    (isolated prediction per member, argmin), the regret reference.
    It is not a lower bound under load: it ignores queueing, so on a
    backlogged trace it over-fills scale-up and regret goes negative
    (docs/TUNE.md, "Honest limitations").

* **Metric.**  Per-job regret = the job's measured runtime under a
  policy minus its measured runtime under the oracle routing, matched
  by job id; reported as a cumulative curve in arrival order.  The
  calibrator's MAPE trajectory (training and holdout, before/after
  each publish) rides along.

Everything is seeded: same seed => byte-identical report
(``tests/test_tune.py`` pins ``canonical_json(report.to_dict())``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.apps import get_app
from repro.core.architectures import ArchitectureSpec, hybrid
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.deployment import Deployment
from repro.core.scheduler import CrossPoints
from repro.errors import ConfigurationError
from repro.mapreduce.job import JobSpec
from repro.runner.pool import PoolRunner, raise_on_failure
from repro.runner.spec import isolated_cell
from repro.runner.work import decode_result
from repro.tune.calibrator import OnlineCalibrator, ParamRange, profile_for_job
from repro.tune.router import AdaptiveRouter, BanditRouter
from repro.tune.tuner import Tuner
from repro.tune.window import ObservationWindow
from repro.units import GB

#: The policies :func:`evaluate_policies` knows how to build.
POLICIES = ("static", "recalibrated", "bandit")


def drifted_truth(base: Calibration = DEFAULT_CALIBRATION) -> Calibration:
    """A plausibly aged substrate: scale-up cores ~18% slower and
    scale-up task overhead ~1s higher than the paper measured.  The
    true cross points drop to roughly 5/4.7/3.3 GB (vs the paper's
    32/16/10), so static thresholds over-route mid-size jobs to
    scale-up — yet small jobs still genuinely belong there, so the
    optimal policy stays size-aware.  Both drifted values sit on
    :func:`default_search_params`' grids, so a perfect calibration is
    *reachable* — whether the search finds it from a noisy window is
    the experiment."""
    return base.with_options(core_speed_up=0.9, task_overhead_up=1.61)


def default_search_params() -> Tuple[ParamRange, ...]:
    """Free parameters for the drift experiment: the two knobs
    :func:`drifted_truth` moves, with grids straddling both the paper
    value and the drifted one."""
    return (
        ParamRange("core_speed_up", 0.5, 1.3, points=5),
        ParamRange("task_overhead_up", 0.61, 2.61, points=5),
    )


@dataclass(frozen=True)
class MixPhase:
    """One phase of the shifting workload mix."""

    name: str
    apps: Tuple[str, ...]
    jobs: int
    min_gb: float
    max_gb: float
    #: Mean exponential interarrival, seconds.  Keep it large relative
    #: to job runtimes: observed runtimes feed the calibrator, and
    #: queueing inflates them (docs/TUNE.md).
    interarrival: float = 300.0

    def __post_init__(self) -> None:
        if not self.apps:
            raise ConfigurationError(f"phase {self.name!r} needs apps")
        if self.jobs < 1:
            raise ConfigurationError(f"phase {self.name!r} needs >= 1 job")
        if not 0 < self.min_gb <= self.max_gb:
            raise ConfigurationError(
                f"phase {self.name!r}: need 0 < min_gb <= max_gb"
            )
        if self.interarrival <= 0:
            raise ConfigurationError(
                f"phase {self.name!r}: interarrival must be positive"
            )


#: Shuffle-heavy opening, input-heavy close — the shift that moves the
#: optimal routing (sized to straddle the drifted cross points).
DEFAULT_PHASES: Tuple[MixPhase, ...] = (
    MixPhase("shuffle-heavy", ("terasort", "wordcount"), 20, 2.0, 24.0),
    MixPhase("input-heavy", ("grep", "testdfsio-write"), 20, 4.0, 48.0),
)


def make_trace(
    phases: Sequence[MixPhase] = DEFAULT_PHASES, *, seed: int = 0
) -> List[JobSpec]:
    """Generate the shifting-mix trace (seeded, arrival-ordered).

    Sizes are log-uniform inside each phase's range; apps cycle through
    the phase's tuple; arrivals accumulate exponential gaps across the
    whole trace so phases abut without overlapping resets.
    """
    rng = np.random.default_rng(seed)
    jobs: List[JobSpec] = []
    clock = 0.0
    rank = 0
    for phase in phases:
        lo, hi = np.log(phase.min_gb * GB), np.log(phase.max_gb * GB)
        for i in range(phase.jobs):
            clock += float(rng.exponential(phase.interarrival))
            size = float(np.exp(rng.uniform(lo, hi)))
            app = get_app(phase.apps[i % len(phase.apps)])
            jobs.append(
                app.make_job(
                    size,
                    job_id=f"tune-{phase.name}-{rank:04d}",
                    arrival_time=clock,
                )
            )
            rank += 1
    return jobs


class FixedRouter:
    """Route each job to a pre-computed member (the oracle's policy)."""

    def __init__(self, assignment: Mapping[str, int], default: int = 0) -> None:
        self.assignment = dict(assignment)
        self.default = default

    def __call__(self, job: JobSpec, deployment: Deployment) -> int:
        return self.assignment.get(job.job_id, self.default)


def oracle_assignment(
    spec: ArchitectureSpec,
    jobs: Sequence[JobSpec],
    truth: Calibration,
    *,
    runner: Optional[PoolRunner] = None,
    seed: int = 0,
) -> Dict[str, int]:
    """Per-job argmin member under the truth calibration.

    One fan-out predicts every job on every member in isolation; ties
    break toward the lower member index (deterministic).  Jobs
    infeasible everywhere fall back to member 0.
    """
    runner = runner if runner is not None else PoolRunner(max_workers=1)
    slices = [
        ArchitectureSpec(
            name=f"{spec.name}:{member.role}",
            members=(member,),
            storage=spec.storage,
        )
        for member in spec.members
    ]
    grid = [(job, m) for job in jobs for m in range(len(slices))]
    cells = [
        isolated_cell(
            slices[m],
            profile_for_job(job),
            job.input_bytes,
            calibration=truth,
            seed=seed,
            register_dataset=False,
        )
        for job, m in grid
    ]
    outcomes = runner.run_cells(cells)
    raise_on_failure(outcomes)
    times: Dict[str, List[Optional[float]]] = {
        job.job_id: [None] * len(slices) for job in jobs
    }
    for (job, m), outcome in zip(grid, outcomes):
        result = decode_result(outcome.payload) if outcome.payload else None
        if result is not None:
            times[job.job_id][m] = result.execution_time
    assignment: Dict[str, int] = {}
    for job in jobs:
        candidates = [
            (t, m) for m, t in enumerate(times[job.job_id]) if t is not None
        ]
        assignment[job.job_id] = min(candidates)[1] if candidates else 0
    return assignment


@dataclass
class PolicyOutcome:
    """One policy's replay, summarised."""

    policy: str
    total_runtime: float
    mean_runtime: float
    cumulative_regret: float
    #: Cumulative regret after each job, in arrival order.
    regret_curve: List[float]
    routing: Dict[str, Any]
    #: Calibration publishes (recalibrated policy only).
    updates: List[Dict[str, Any]] = field(default_factory=list)
    tuning: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "total_runtime": self.total_runtime,
            "mean_runtime": self.mean_runtime,
            "cumulative_regret": self.cumulative_regret,
            "regret_curve": list(self.regret_curve),
            "routing": self.routing,
            "updates": list(self.updates),
            "tuning": self.tuning,
        }


@dataclass
class EvaluationReport:
    """The full head-to-head, JSON-ready (seeded => byte-identical)."""

    seed: int
    jobs: int
    phases: List[Dict[str, Any]]
    oracle_total_runtime: float
    outcomes: List[PolicyOutcome]

    def outcome(self, policy: str) -> PolicyOutcome:
        for outcome in self.outcomes:
            if outcome.policy == policy:
                return outcome
        raise KeyError(policy)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "jobs": self.jobs,
            "phases": self.phases,
            "oracle_total_runtime": self.oracle_total_runtime,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def _replay(
    spec: ArchitectureSpec,
    jobs: Sequence[JobSpec],
    truth: Calibration,
    router: Any,
    tuner: Optional[Tuner] = None,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Run the trace under one policy; returns (job_id -> runtime,
    routing summary).  The deployment always runs under the *truth*
    calibration — policies differ only in where jobs land."""
    deployment = Deployment(spec, calibration=truth, router=router, tuner=tuner)
    results = deployment.run_trace(list(jobs))
    failed = [r.job_id for r in results if r.failed]
    if failed:
        raise ConfigurationError(
            f"evaluation replay had failed jobs: {failed[:5]}"
        )
    return (
        {r.job_id: r.execution_time for r in results},
        deployment.routing_summary(),
    )


def evaluate_policies(
    spec: Optional[ArchitectureSpec] = None,
    *,
    phases: Sequence[MixPhase] = DEFAULT_PHASES,
    truth: Optional[Calibration] = None,
    base: Calibration = DEFAULT_CALIBRATION,
    params: Optional[Sequence[ParamRange]] = None,
    policies: Sequence[str] = POLICIES,
    runner: Optional[PoolRunner] = None,
    seed: int = 0,
    publish_period: float = 1800.0,
    min_observations: int = 8,
    window_capacity: int = 48,
    max_publishes: Optional[int] = 3,
    calibration_rounds: int = 1,
    bandit_strategy: str = "epsilon",
) -> EvaluationReport:
    """Replay the shifting mix under every policy and score regret.

    ``runner`` is shared by the calibrator, the cross-point derivation
    and the oracle — pass a cached :class:`PoolRunner` so repeated
    predictions are warm-cache.  Everything downstream of ``seed`` is
    deterministic.
    """
    spec = spec if spec is not None else hybrid()
    truth = truth if truth is not None else drifted_truth(base)
    params = tuple(params) if params is not None else default_search_params()
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r} (expected one of {POLICIES})"
            )
    runner = runner if runner is not None else PoolRunner(max_workers=1)
    jobs = make_trace(phases, seed=seed)
    order = [job.job_id for job in jobs]

    assignment = oracle_assignment(spec, jobs, truth, runner=runner, seed=seed)
    oracle_times, _ = _replay(spec, jobs, truth, FixedRouter(assignment))

    def regret(times: Dict[str, float]) -> Tuple[List[float], float]:
        curve: List[float] = []
        running = 0.0
        for job_id in order:
            running += times[job_id] - oracle_times[job_id]
            curve.append(running)
        return curve, running

    outcomes: List[PolicyOutcome] = []
    for policy in policies:
        tuner: Optional[Tuner] = None
        router: Any = None
        if policy == "static":
            router = None  # Deployment default: Algorithm 1, paper thresholds
        elif policy == "recalibrated":
            tuner = Tuner(
                router=AdaptiveRouter(
                    CrossPoints(), runner=runner, seed=seed
                ),
                calibrator=OnlineCalibrator(
                    spec,
                    params,
                    base=base,
                    runner=runner,
                    seed=seed,
                    rounds=calibration_rounds,
                ),
                window=ObservationWindow(capacity=window_capacity),
                publish_period=publish_period,
                min_observations=min_observations,
                max_publishes=max_publishes,
            )
        elif policy == "bandit":
            tuner = Tuner(
                router=BanditRouter(strategy=bandit_strategy, seed=seed),
                window=ObservationWindow(capacity=window_capacity),
            )
        times, routing = _replay(spec, jobs, truth, router, tuner)
        curve, total_regret = regret(times)
        outcomes.append(
            PolicyOutcome(
                policy=policy,
                total_runtime=float(sum(times.values())),
                mean_runtime=float(sum(times.values()) / len(times)),
                cumulative_regret=total_regret,
                regret_curve=curve,
                routing=routing,
                updates=[u.to_dict() for u in tuner.updates] if tuner else [],
                tuning=tuner.summary() if tuner else None,
            )
        )

    return EvaluationReport(
        seed=seed,
        jobs=len(jobs),
        phases=[
            {
                "name": p.name,
                "apps": list(p.apps),
                "jobs": p.jobs,
                "min_gb": p.min_gb,
                "max_gb": p.max_gb,
                "interarrival": p.interarrival,
            }
            for p in phases
        ],
        oracle_total_runtime=float(sum(oracle_times.values())),
        outcomes=outcomes,
    )


__all__ = [
    "DEFAULT_PHASES",
    "EvaluationReport",
    "FixedRouter",
    "MixPhase",
    "POLICIES",
    "PolicyOutcome",
    "default_search_params",
    "drifted_truth",
    "evaluate_policies",
    "make_trace",
    "oracle_assignment",
]
