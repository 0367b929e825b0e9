"""Chaos/soak harness: seeded churn scenarios with hard invariants.

Each :class:`ChaosScenario` carries one :class:`FaultPlan` mixing
membership churn (scale events) with infrastructure misbehaviour
(faults), synthesized from one seed so a scenario replays
byte-identically.  The harness runs an FB-2009 trace slice through a
deployment under that plan and then checks the invariants that make
elastic membership safe to trust:

* **no job lost** — every submitted job produces exactly one result
  (completed or explicitly failed), even when its node drained or
  crashed mid-flight;
* **no job double-completed** — evacuation + requeue never duplicates a
  result;
* **accounting closes** — routing counters (primary + fallback +
  rejected) account for every submission.

Scenario shapes (all seeded, all scaled to the trace duration):

``flapping_node``
    One node crashes and recovers repeatedly while a replacement joins —
    the blacklist/recover/join interaction.
``cascading_loss``
    Staggered graceful decommissions plus an OFS server removal — a
    shrinking cluster under load.
``thundering_herd``
    Several nodes drain away, then all replacements join at the *same*
    timestamp — the rejoin stampede.
``kill_during_decommission``
    A node is decommissioned and then crashes mid-drain — crash wins,
    running attempts are requeued, the drain is cancelled.

The module lazy-imports :class:`~repro.core.deployment.Deployment`
inside functions: ``deployment.py`` imports :mod:`repro.elastic` at
module load, so a top-level import here would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, List, Optional

from repro.elastic.degrade import BrownoutConfig
from repro.errors import ElasticError
from repro.faults.plan import (
    NODE_CRASH,
    NODE_DECOMMISSION,
    NODE_JOIN,
    NODE_RECOVER,
    OFS_SERVER_ADD,
    OFS_SERVER_REMOVE,
    FaultEvent,
    FaultPlan,
    _jittered,
)


@dataclass(frozen=True)
class ChaosScenario:
    """One named churn schedule: fault events first, then scale events."""

    name: str
    fault_plan: FaultPlan
    description: str = ""


def default_elastic_plan(
    duration: float,
    seed: int = 0,
    member: str = "out",
    nodes: int = 12,
) -> FaultPlan:
    """A representative seeded churn schedule over ``duration``.

    Two scale-out nodes drain away mid-trace, replacements join in the
    second half, and the shared OFS array gains a stripe server — all
    addressed by role so the same plan drives every Section V
    deployment.
    """
    if nodes < 2:
        raise ElasticError(f"nodes must be >= 2: {nodes}")
    rng = Random(f"elastic:{seed}")
    t = lambda frac: _jittered(rng, duration * frac)  # noqa: E731
    events = (
        FaultEvent(time=t(0.20), kind=NODE_DECOMMISSION, member=member, node=nodes - 1),
        FaultEvent(time=t(0.35), kind=NODE_DECOMMISSION, member=member, node=nodes - 2),
        FaultEvent(time=t(0.55), kind=NODE_JOIN, member=member, count=2),
        FaultEvent(time=t(0.70), kind=OFS_SERVER_ADD, count=1),
    )
    return FaultPlan(events=events, seed=seed, name=f"default-elastic-s{seed}")


def flapping_node(duration: float, seed: int = 0) -> ChaosScenario:
    """One node crash/recover-flaps three times while a spare joins."""
    rng = Random(f"chaos-flap:{seed}")
    node = 3
    fault_events = []
    for i in range(3):
        down = _jittered(rng, duration * (0.15 + 0.22 * i))
        up = down + _jittered(rng, duration * 0.08)
        fault_events.append(FaultEvent(time=down, kind=NODE_CRASH, member="out", node=node))
        fault_events.append(FaultEvent(time=up, kind=NODE_RECOVER, member="out", node=node))
    join = FaultEvent(
        time=_jittered(rng, duration * 0.30), kind=NODE_JOIN, member="out"
    )
    return ChaosScenario(
        name="flapping_node",
        fault_plan=FaultPlan((*fault_events, join), seed=seed, name=f"flap-s{seed}"),
        description="node 3 flaps 3x; one replacement joins mid-flap",
    )


def cascading_loss(duration: float, seed: int = 0, nodes: int = 12) -> ChaosScenario:
    """Three staggered decommissions, then an OFS server removed."""
    if nodes < 4:
        raise ElasticError(f"cascading_loss needs >= 4 nodes: {nodes}")
    rng = Random(f"chaos-cascade:{seed}")
    scale_events = tuple(
        FaultEvent(
            time=_jittered(rng, duration * (0.20 + 0.15 * i)),
            kind=NODE_DECOMMISSION,
            member="out",
            node=nodes - 1 - i,
        )
        for i in range(3)
    ) + (
        FaultEvent(
            time=_jittered(rng, duration * 0.70), kind=OFS_SERVER_REMOVE, count=1
        ),
    )
    return ChaosScenario(
        name="cascading_loss",
        fault_plan=FaultPlan(scale_events, seed=seed, name=f"cascade-s{seed}"),
        description="3 staggered drains + 1 OFS server removed",
    )


def thundering_herd(duration: float, seed: int = 0, nodes: int = 12) -> ChaosScenario:
    """Three drains, then every replacement joins at the same instant."""
    if nodes < 4:
        raise ElasticError(f"thundering_herd needs >= 4 nodes: {nodes}")
    rng = Random(f"chaos-herd:{seed}")
    drains = tuple(
        FaultEvent(
            time=_jittered(rng, duration * (0.15 + 0.10 * i)),
            kind=NODE_DECOMMISSION,
            member="out",
            node=nodes - 1 - i,
        )
        for i in range(3)
    )
    rejoin = _jittered(rng, duration * 0.55)
    herd = tuple(
        FaultEvent(time=rejoin, kind=NODE_JOIN, member="out") for _ in range(3)
    )
    return ChaosScenario(
        name="thundering_herd",
        fault_plan=FaultPlan(drains + herd, seed=seed, name=f"herd-s{seed}"),
        description="3 drains, then 3 joins at one timestamp",
    )


def kill_during_decommission(
    duration: float, seed: int = 0, nodes: int = 12
) -> ChaosScenario:
    """A draining node crashes mid-drain: crash wins, drain cancels."""
    if nodes < 2:
        raise ElasticError(f"kill_during_decommission needs >= 2 nodes: {nodes}")
    rng = Random(f"chaos-kill:{seed}")
    node = nodes - 1
    drain = _jittered(rng, duration * 0.25)
    crash = drain + _jittered(rng, duration * 0.05)
    events = (
        FaultEvent(time=crash, kind=NODE_CRASH, member="out", node=node),
        FaultEvent(time=drain, kind=NODE_DECOMMISSION, member="out", node=node),
        FaultEvent(time=_jittered(rng, duration * 0.60), kind=NODE_JOIN, member="out"),
    )
    return ChaosScenario(
        name="kill_during_decommission",
        fault_plan=FaultPlan(events, seed=seed, name=f"kill-s{seed}"),
        description="node crashes while draining; replacement joins later",
    )


#: Scenario registry: name -> factory(duration, seed=...).
CHAOS_SCENARIOS: Dict[str, Callable[..., ChaosScenario]] = {
    "flapping_node": flapping_node,
    "cascading_loss": cascading_loss,
    "thundering_herd": thundering_herd,
    "kill_during_decommission": kill_during_decommission,
}


@dataclass
class ChaosReport:
    """Outcome of one chaos run: invariant verdicts plus the numbers."""

    scenario: str
    architecture: str
    num_jobs: int
    completed: int
    failed: int
    makespan: float
    violations: List[str] = field(default_factory=list)
    faults: Dict[str, Any] = field(default_factory=dict)
    elastic: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_invariants(job_ids: List[str], results: List[Any]) -> List[str]:
    """The harness's hard guarantees, as a list of violations (empty = pass).

    Every submitted job must appear in the results exactly once — a
    missing id means the job was *lost* (drained/crashed away without a
    terminal result), a duplicate means evacuation double-completed it.
    """
    violations: List[str] = []
    counts: Dict[str, int] = {}
    for result in results:
        counts[result.job_id] = counts.get(result.job_id, 0) + 1
    for job_id in job_ids:
        seen = counts.get(job_id, 0)
        if seen == 0:
            violations.append(f"job {job_id} lost: no result recorded")
        elif seen > 1:
            violations.append(f"job {job_id} double-completed: {seen} results")
    submitted = set(job_ids)
    for job_id in counts:
        if job_id not in submitted:
            violations.append(f"unknown result for job {job_id}")
    return violations


def run_chaos(
    scenario: ChaosScenario | str,
    *,
    num_jobs: int = 80,
    seed: int = 2009,
    scenario_seed: int = 0,
    architecture: str = "RHadoop",
    shrink_factor: float = 5.0,
    brownout: Optional[BrownoutConfig] = None,
) -> ChaosReport:
    """Run one scenario against an FB-2009 trace slice and check invariants.

    ``scenario`` is a :class:`ChaosScenario` or a registry name (the
    factory is then called with the trace duration and
    ``scenario_seed``).  The deployment carries default brownout
    watermarks unless ``brownout`` overrides them, so degradation-aware
    admission is exercised too.
    """
    # Lazy: deployment.py imports repro.elastic at module load.
    from repro.core.architectures import named_architectures
    from repro.core.deployment import Deployment
    from repro.workload.fb2009 import DAY, generate_fb2009

    duration = DAY * num_jobs / 6000.0
    if isinstance(scenario, str):
        try:
            factory = CHAOS_SCENARIOS[scenario]
        except KeyError:
            raise ElasticError(
                f"unknown chaos scenario {scenario!r}; "
                f"choose from {sorted(CHAOS_SCENARIOS)}"
            ) from None
        scenario = factory(duration, seed=scenario_seed)
    specs = named_architectures()
    if architecture not in specs:
        raise ElasticError(
            f"unknown architecture {architecture!r}; choose from {sorted(specs)}"
        )
    trace = generate_fb2009(num_jobs, seed=seed, duration=duration).shrink(
        shrink_factor
    )
    jobs = trace.to_jobspecs()
    deployment = Deployment(
        specs[architecture],
        fault_plan=scenario.fault_plan,
        brownout=brownout if brownout is not None else BrownoutConfig(),
    )
    results = deployment.run_trace(jobs)
    deployment.fail_unfinished()
    completed = [r for r in results if not r.failed]
    violations = check_invariants([j.job_id for j in jobs], results)
    return ChaosReport(
        scenario=scenario.name,
        architecture=architecture,
        num_jobs=num_jobs,
        completed=len(completed),
        failed=len(results) - len(completed),
        makespan=max((r.end_time for r in completed), default=0.0),
        violations=violations,
        faults=deployment.fault_summary(),
        elastic=deployment.elastic_summary(),
    )


__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosReport",
    "ChaosScenario",
    "cascading_loss",
    "check_invariants",
    "default_elastic_plan",
    "flapping_node",
    "kill_during_decommission",
    "run_chaos",
    "thundering_herd",
]
