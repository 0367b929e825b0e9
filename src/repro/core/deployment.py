"""A runnable deployment of an architecture.

``Deployment`` materialises an :class:`ArchitectureSpec` into a fresh
simulation: runtime nodes, storage systems (one shared OrangeFS or a
per-cluster HDFS), one JobTracker per member cluster, and a job router.

Routing:

* single-cluster architectures route everything to their only tracker;
* the hybrid routes with Algorithm 1
  (:class:`~repro.core.scheduler.SizeAwareScheduler`) by default, or any
  :class:`~repro.core.api.Router` — e.g. the load-balancing extension.

Telemetry: pass ``tracer=`` and/or ``metrics=`` to observe the run (job,
task, storage and scheduler-decision events; see :mod:`repro.telemetry`).
Observers never perturb the simulation, so telemetered runs are
byte-identical to bare ones.

Dataset registration policy
---------------------------

Placing a job's data footprint on the target storage before it runs
(``register_dataset``) is what makes capacity limits bite — e.g.
up-HDFS's ~80 GB ceiling.  The unified policy is:

* registration is **off by default** for every submission method;
* opt in deployment-wide with ``Deployment(..., register_datasets=True)``
  or per call with the keyword-only ``register_dataset=True``;
* a per-call value always overrides the deployment-wide policy.

History: ``run_job`` once registered by default and ``run_trace`` took a
``register_datasets=`` alias; both shims completed their deprecation
cycle and are gone — the old alias now raises :class:`TypeError`
(pinned by ``tests/test_deprecations.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.core.api import Router, Scheduler
from repro.core.architectures import ArchitectureSpec
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.scheduler import Decision, SizeAwareScheduler
from repro.elastic.actuator import ScaleActuator
from repro.elastic.degrade import (
    BrownoutConfig,
    DEFAULT_BROWNOUT,
    HEALTH_BROWNED_OUT,
    HEALTH_OK,
)
from repro.elastic.plan import ScalePlan
from repro.errors import ConfigurationError, SchedulingError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mapreduce.config import HadoopConfig
from repro.mapreduce.job import JobResult, JobSpec
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.nodes import NodeRuntime, build_nodes
from repro.simulator.engine import Simulation
from repro.storage.base import StorageSystem
from repro.storage.hdfs import HDFS
from repro.storage.ofs import OrangeFS
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fastpath import FastPathEngine, FastPathPolicy
    from repro.elastic.autoscale import Autoscaler
    from repro.profiler.model import RunProfile
    from repro.tune.tuner import Tuner

#: Reasons a job landed on a member (keys of the per-member routing
#: counters; see :meth:`Deployment.routing_summary`).
ROUTE_PRIMARY = "primary"        # the router's own size-band decision
ROUTE_FALLBACK = "fallback"      # routed member down -> least-loaded survivor
ROUTE_EVACUATION = "evacuation"  # requeued off a crashed member mid-flight
ROUTE_REASONS = (ROUTE_PRIMARY, ROUTE_FALLBACK, ROUTE_EVACUATION)


def algorithm1_router(scheduler: Optional[Scheduler] = None) -> Router:
    """Route with the paper's Algorithm 1 (requires up and out members).

    ``scheduler`` is any :class:`~repro.core.api.Scheduler` —
    :class:`SizeAwareScheduler` by default, or the fine-grained
    :class:`~repro.core.finegrained.InterpolatingScheduler`.
    """
    decider: Scheduler = scheduler if scheduler is not None else SizeAwareScheduler()

    def route(job: JobSpec, deployment: "Deployment") -> int:
        decision = decider.decide_job(job)
        role = "up" if decision is Decision.SCALE_UP else "out"
        tracer = deployment.sim.tracer
        if tracer is not None:
            tracer.instant(
                "algorithm1_decision",
                "scheduler",
                track="router",
                args={
                    "job_id": job.job_id,
                    "decision": decision.value,
                    "input_bytes": job.input_bytes,
                    "shuffle_input_ratio": job.shuffle_input_ratio,
                },
            )
        return deployment.spec.role_index(role)

    return route


class Deployment:
    """One architecture instantiated on a fresh simulation clock."""

    def __init__(
        self,
        spec: ArchitectureSpec,
        calibration: Calibration = DEFAULT_CALIBRATION,
        router: Optional[Router] = None,
        *,
        register_datasets: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        fault_plan: Optional[FaultPlan] = None,
        fast_path: Optional["FastPathPolicy"] = None,
        max_events: Optional[int] = None,
        tuner: Optional["Tuner"] = None,
        scale_plan: Optional[ScalePlan] = None,
        autoscaler: Optional["Autoscaler"] = None,
        brownout: Optional[BrownoutConfig] = None,
    ) -> None:
        self.spec = spec
        self.calibration = calibration
        #: ``max_events`` lifts the engine's runaway-chain safety valve
        #: for replays that legitimately exceed it (a 1M-job trace is
        #: ~160M events); ``None`` keeps the engine default.
        if max_events is not None:
            self.sim = Simulation(max_events=max_events)
        else:
            self.sim = Simulation()
        self.sim.attach_telemetry(tracer, metrics)
        self.tracer = tracer
        self.metrics = metrics
        #: Deployment-wide dataset-registration policy; ``None`` keeps the
        #: legacy per-method defaults (see the module docstring).
        self.register_datasets = register_datasets
        self.trackers: List[JobTracker] = []
        self.storages: List[StorageSystem] = []
        self.results: List[JobResult] = []

        shared_ofs: Optional[OrangeFS] = None
        if spec.storage == "ofs":
            shared_ofs = OrangeFS(
                self.sim,
                num_servers=calibration.ofs_stripe_width,
                server_bandwidth=calibration.ofs_server_bandwidth,
                access_latency=calibration.ofs_access_latency,
                stream_cap=calibration.ofs_stream_cap,
                per_job_overhead=calibration.ofs_per_job_overhead,
                capacity=calibration.ofs_capacity,
            )

        for member in spec.members:
            config = calibration.config_for(member.role)
            cluster = calibration.effective_cluster(member.cluster, member.role)
            nodes = build_nodes(
                self.sim,
                cluster,
                config,
                calibration.ramdisk_bandwidth,
                disk_seek_penalty=calibration.disk_seek_penalty,
            )
            block_map = None
            if shared_ofs is not None:
                storage: StorageSystem = shared_ofs
            else:
                if calibration.hdfs_block_placement:
                    from repro.storage.blockmap import BlockMap

                    block_map = BlockMap(
                        num_nodes=cluster.count,
                        replication=min(config.replication, cluster.count),
                    )
                storage = HDFS(
                    self.sim,
                    devices=[n.local_disk for n in nodes],
                    replication=min(config.replication, cluster.count),
                    access_latency=calibration.hdfs_access_latency,
                    per_job_overhead=calibration.hdfs_per_job_overhead,
                    usable_fraction=calibration.hdfs_usable_fraction,
                    write_buffer_factor=calibration.hdfs_write_buffer_factor,
                    page_cache_bytes=calibration.hdfs_page_cache_bytes,
                )
            tracker = JobTracker(
                self.sim, cluster, config, storage, nodes,
                name=cluster.name,
                block_map=block_map,
            )
            self.trackers.append(tracker)
            self.storages.append(storage)

        self.router: Router
        if router is not None:
            self.router = router
        elif spec.is_hybrid:
            self.router = algorithm1_router()
        else:
            self.router = lambda job, deployment: 0

        #: Routing statistics under faults (all zero in healthy runs).
        self.jobs_rerouted = 0
        self.jobs_requeued = 0
        self.jobs_rejected = 0
        #: Per-member routing-decision counters: why each submission
        #: landed where it did (see :data:`ROUTE_REASONS`).  Together
        #: with ``jobs_rejected`` they account for every submission:
        #: sum(primary) + sum(fallback) + rejected == jobs submitted
        #: (evacuations re-place already-counted jobs and are tallied
        #: separately).  Pinned by tests/test_tune.py.
        self.route_counts: List[dict] = [
            {reason: 0 for reason in ROUTE_REASONS} for _ in self.trackers
        ]
        #: Fault schedule, armed on the fresh clock *before* any job is
        #: submitted so fault events precede same-time job events.  An
        #: empty (or absent) plan arms nothing: healthy runs stay
        #: byte-identical to deployments built without a plan.
        self.fault_plan = fault_plan
        self.injector: Optional[FaultInjector] = None
        if fault_plan is not None and not fault_plan.is_empty:
            self.injector = FaultInjector(self, fault_plan)

        #: Scale schedule (elastic membership — :mod:`repro.elastic`),
        #: armed exactly like the fault plan: an empty (or absent) plan
        #: arms nothing, so static runs stay byte-identical.  Same-time
        #: fault events fire before scale events (the injector armed
        #: first), deterministically.
        self.scale_plan = scale_plan
        self.actuator: Optional[ScaleActuator] = None
        #: Brownout watermarks (docs/ELASTIC.md).  ``None`` switches the
        #: degradation behaviours — admission-level health, static-router
        #: fallback, tuner suspension — off entirely; the service
        #: installs :class:`BrownoutConfig` defaults.
        self.brownout = brownout
        self._health_level = HEALTH_OK
        #: What browned-out routing falls back to: the construction-time
        #: static policy (Algorithm 1 on hybrids), never a learned one.
        if spec.is_hybrid:
            self._static_router: Router = algorithm1_router()
        else:
            self._static_router = lambda job, deployment: 0
        for i, tracker in enumerate(self.trackers):
            tracker.on_decommissioned = (
                lambda node, member=i: self._node_left(member, node)
            )
        if scale_plan is not None and not scale_plan.is_empty:
            self.actuator = ScaleActuator(self, scale_plan)
        #: Reactive autoscaler (:mod:`repro.elastic.autoscale`), ticked
        #: on the simulation clock while jobs are active.  ``None`` arms
        #: no tick at all.
        self.autoscaler = autoscaler
        self._autoscale_tick_armed = False

        #: Analytic fast path (docs/KERNEL.md): None = every job fully
        #: simulated, the historical behaviour.
        self.fast_path: Optional["FastPathEngine"] = None
        self.fast_path_jobs = 0
        if fast_path is not None:
            if self.injector is not None:
                raise ConfigurationError(
                    "the analytic fast path assumes fault-free runs; "
                    "drop fast_path= or the fault plan"
                )
            if self.actuator is not None or self.autoscaler is not None:
                raise ConfigurationError(
                    "the analytic fast path assumes a static cluster; "
                    "drop fast_path= or the scale plan/autoscaler"
                )
            from repro.core.fastpath import FastPathEngine

            self.fast_path = FastPathEngine(
                spec, self.trackers, calibration, fast_path
            )

        #: Online tuner hook (:mod:`repro.tune`): observes completions,
        #: recalibrates on the *simulation clock* (so checkpoint replay
        #: reproduces every publish point), and may swap ``self.router``.
        self.tuner = tuner
        if tuner is not None:
            tuner.attach(self)

    # -- conveniences -----------------------------------------------------

    def tracker_for_role(self, role: str) -> JobTracker:
        return self.trackers[self.spec.role_index(role)]

    def config_for_member(self, index: int) -> HadoopConfig:
        return self.trackers[index].config

    @staticmethod
    def job_footprint(job: JobSpec) -> float:
        """Bytes of storage the job needs resident: its (read) input plus
        its output.  TestDFSIO-write stores only what it writes."""
        return job.input_bytes * job.input_read_fraction + job.output_bytes

    def _resolve_register(self, override: Optional[bool]) -> bool:
        """Apply the dataset-registration policy (module docstring):
        per-call override first, then the deployment-wide setting, then
        the unified off-by-default."""
        if override is not None:
            return override
        return bool(self.register_datasets)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        job: JobSpec,
        on_complete: Optional[Callable[[JobResult], None]] = None,
        *,
        register_dataset: Optional[bool] = None,
    ) -> int:
        """Route and submit a job at the current simulation time.

        With dataset registration enabled (see the policy in the module
        docstring) the job's footprint is placed on the target storage
        first — raising :class:`~repro.errors.CapacityError` when it
        cannot fit, which is how up-HDFS's ~80 GB ceiling manifests —
        and released when the job completes.  Returns the member index
        the job ran on.

        Graceful degradation: when the routed cluster is not operational
        (every node dead or blacklisted — see
        :meth:`~repro.mapreduce.jobtracker.JobTracker.is_operational`),
        the job falls back to the operational member with the least
        outstanding work.  With no operational member at all the job is
        *rejected*: a failed :class:`JobResult` is recorded immediately
        and ``-1`` is returned.
        """
        register = self._resolve_register(register_dataset)
        if self.autoscaler is not None and not self._autoscale_tick_armed:
            self._arm_autoscale_tick()
        if self.brownout is not None:
            self._refresh_health()
            if self._health_level == HEALTH_BROWNED_OUT:
                # Browned out: suspend learned/experimental routing and
                # fall back to the static construction-time policy
                # (Algorithm 1 on hybrids) until capacity recovers.
                index = self._static_router(job, self)
            else:
                index = self.router(job, self)
        else:
            index = self.router(job, self)
        if not 0 <= index < len(self.trackers):
            raise SchedulingError(f"router returned invalid member index {index}")
        route_reason = ROUTE_PRIMARY
        if not self.trackers[index].is_operational():
            fallback = self._operational_member()
            if fallback is None:
                return self._reject(job, on_complete)
            route_reason = ROUTE_FALLBACK
            self.jobs_rerouted += 1
            if self.sim.tracer is not None:
                self.sim.tracer.instant(
                    "job_rerouted",
                    "scheduler",
                    track="router",
                    args={
                        "job_id": job.job_id,
                        "from": self.trackers[index].name,
                        "to": self.trackers[fallback].name,
                    },
                )
            index = fallback
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "scheduler_decision",
                "scheduler",
                track="router",
                args={
                    "job_id": job.job_id,
                    "member": index,
                    "cluster": self.trackers[index].name,
                    "input_bytes": job.input_bytes,
                },
            )
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(
                f"router.to.{self.trackers[index].name}"
            ).inc()
        self.route_counts[index][route_reason] += 1
        storage = self.storages[index]
        footprint = self.job_footprint(job)
        if register:
            storage.register_dataset(footprint)

        def done(result: JobResult) -> None:
            if register:
                storage.release_dataset(footprint)
            self.results.append(result)
            if self.tuner is not None and not result.failed:
                self.tuner.observe(self, job, result, index)
            if on_complete is not None:
                on_complete(result)

        if self.fast_path is not None and self.fast_path.try_submit(
            index, job, done
        ):
            self.fast_path_jobs += 1
            return index
        self.trackers[index].submit(job, done)
        return index

    def submit_at(
        self,
        job: JobSpec,
        when: Optional[float] = None,
        *,
        register_dataset: Optional[bool] = None,
    ) -> None:
        """Schedule a future submission (defaults to the job's arrival time)."""
        register = self._resolve_register(register_dataset)
        time = job.arrival_time if when is None else when
        self.sim.schedule_at(
            time, lambda: self.submit(job, register_dataset=register)
        )

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> List[JobResult]:
        """Drain the event loop; returns all completed job results."""
        self.sim.run(until=until)
        return self.results

    def step(self) -> bool:
        """Process one simulation event; False when the loop is idle.

        The incremental-admission primitive for the always-on service
        (:mod:`repro.service`): interleaving ``step``/``advance_until``
        with further ``submit_at`` calls executes the exact event
        sequence of a single run-to-completion, because the event heap
        orders by (time, seq) regardless of when events were scheduled.
        """
        return self.sim.step()

    def advance_until(self, time: float) -> float:
        """Advance the clock to ``time``, processing every event due by
        then, and return the new clock.  Unlike :meth:`run` this leaves
        later events pending, so new jobs can still be admitted with
        arrival times at or after the returned clock."""
        return self.sim.run(until=time)

    def profile_run(self, label: Optional[str] = None) -> "RunProfile":
        """Analyse this deployment's recorded trace (critical paths,
        bottleneck buckets, timelines) — see :mod:`repro.profiler`.

        Strictly post-hoc: call it after ``run``/``run_trace``; it only
        reads the attached tracer's events, so it cannot perturb the
        simulation.  Raises :class:`~repro.errors.ConfigurationError`
        when the deployment was built without a tracer.
        """
        if self.tracer is None:
            raise ConfigurationError(
                "profile_run() needs a tracer: build the deployment with "
                "Deployment(..., tracer=Tracer())"
            )
        from repro.profiler import build_run_profile

        return build_run_profile(self.tracer, label=label or self.spec.name)

    def run_job(
        self, job: JobSpec, *, register_dataset: Optional[bool] = None
    ) -> JobResult:
        """Run one job in isolation and return its result.

        Follows the unified registration policy (module docstring): with
        registration on, raises :class:`~repro.errors.CapacityError` if
        the job's data cannot fit on the architecture's storage.
        """
        register = self._resolve_register(register_dataset)
        collected: List[JobResult] = []
        self.submit(job, collected.append, register_dataset=register)
        self.sim.run()
        if not collected:
            # Under fault injection the job may be stranded on a dead
            # cluster; fail it so the caller gets an explicit outcome.
            self.fail_unfinished()
        if not collected:
            raise SchedulingError(f"job {job.job_id} did not complete")
        return collected[0]

    def run_trace(
        self,
        jobs: Sequence[JobSpec],
        *,
        register_dataset: Optional[bool] = None,
    ) -> List[JobResult]:
        """Replay a workload trace by arrival time (the Section V setup)."""
        register = self._resolve_register(register_dataset)
        for job in jobs:
            self.submit_at(job, register_dataset=register)
        self.sim.run()
        return self.results

    # -- graceful degradation (fault injection) ----------------------------

    def _operational_member(self) -> Optional[int]:
        """Operational member with the least outstanding work (ties go to
        the lowest index — deterministic), or None if every cluster is
        down."""
        best: Optional[int] = None
        best_work = 0.0
        for i, tracker in enumerate(self.trackers):
            if not tracker.is_operational():
                continue
            work = tracker.outstanding_work()
            if best is None or work < best_work:
                best = i
                best_work = work
        return best

    def _reject(
        self, job: JobSpec, on_complete: Optional[Callable[[JobResult], None]]
    ) -> int:
        """No operational cluster: record an immediate failed result."""
        self.jobs_rejected += 1
        result = JobResult(
            job_id=job.job_id,
            app=job.app,
            cluster="unrouted",
            input_bytes=job.input_bytes,
            shuffle_bytes=job.shuffle_bytes,
            submit_time=self.sim.now,
            end_time=self.sim.now,
            failed=True,
            failure_reason="no operational cluster",
        )
        if self.sim.tracer is not None:
            self.sim.tracer.instant(
                "job_rejected",
                "scheduler",
                track="router",
                args={"job_id": job.job_id},
            )
        if self.sim.metrics is not None:
            self.sim.metrics.counter("router.rejected").inc()
        self.results.append(result)
        if on_complete is not None:
            on_complete(result)
        return -1

    def _handle_cluster_outage(self, index: int) -> None:
        """Called by the fault injector after a crash: if the member is no
        longer operational, evacuate its in-flight jobs and requeue them
        on surviving members (or fail them when none survive)."""
        tracker = self.trackers[index]
        if tracker.is_operational():
            return
        for spec, on_complete in tracker.evacuate():
            self._requeue(spec, on_complete)

    def _requeue(
        self, spec: JobSpec, on_complete: Optional[Callable[[JobResult], None]]
    ) -> None:
        """Resubmit an evacuated job, keeping its *original* completion
        callback so any storage registered at first submission is still
        released exactly once."""
        target = self._operational_member()
        if target is None:
            self.jobs_rejected += 1
            result = JobResult(
                job_id=spec.job_id,
                app=spec.app,
                cluster="unrouted",
                input_bytes=spec.input_bytes,
                shuffle_bytes=spec.shuffle_bytes,
                submit_time=self.sim.now,
                end_time=self.sim.now,
                failed=True,
                failure_reason="evacuated with no operational cluster",
            )
            if on_complete is not None:
                on_complete(result)  # the original closure records it
            else:
                self.results.append(result)
            return
        self.jobs_requeued += 1
        self.route_counts[target][ROUTE_EVACUATION] += 1
        if self.sim.tracer is not None:
            self.sim.tracer.instant(
                "job_requeued",
                "scheduler",
                track="router",
                args={"job_id": spec.job_id, "to": self.trackers[target].name},
            )
        self.trackers[target].submit(spec, on_complete)

    def fail_unfinished(self, reason: str = "cluster never recovered") -> int:
        """Declare every job still in flight failed (call after ``run``:
        a permanently dead cluster strands its jobs without an event to
        finish them).  Returns the number of jobs failed."""
        count = 0
        for tracker in self.trackers:
            count += tracker.abort_active_jobs(reason)
        return count

    def routing_summary(self) -> dict:
        """Per-member routing-decision counters plus rejections.

        ``{"members": {cluster_name: {reason: count}}, "rejected": n}``;
        primary + fallback counts plus rejections account for every
        submission exactly once (evacuations re-place jobs already
        counted at first submission).
        """
        return {
            "members": {
                tracker.name: dict(counts)
                for tracker, counts in zip(self.trackers, self.route_counts)
            },
            "rejected": self.jobs_rejected,
        }

    # -- elastic membership / graceful degradation --------------------------

    def add_node(self, member: int = 0) -> int:
        """Join one fresh node to ``member``'s cluster at the current sim
        time (elastic scale-up — see docs/ELASTIC.md).

        Builds a :class:`NodeRuntime` identical to the member's existing
        machines, registers it with the tracker (slots become
        schedulable immediately), and — on HDFS-backed members — adds
        its disk as a datanode, scheduling balancer traffic toward it.
        Returns the new node's index.
        """
        if not 0 <= member < len(self.trackers):
            raise ConfigurationError(f"no member {member} to add a node to")
        tracker = self.trackers[member]
        node = NodeRuntime(
            self.sim,
            len(tracker.nodes),
            tracker.cluster.machine,
            tracker.config,
            self.calibration.ramdisk_bandwidth,
            disk_seek_penalty=self.calibration.disk_seek_penalty,
        )
        index = tracker.add_node(node)
        storage = self.storages[member]
        if isinstance(storage, HDFS):
            storage.add_datanode(node.local_disk)
        self._refresh_health()
        return index

    def _node_left(self, member: int, node: int) -> None:
        """A tracker finished draining a node (graceful decommission).
        Re-replicate its HDFS blocks off the departing disk — unlike a
        crash, the data is copied *before* the node exits, so no
        re-replication race and no data-loss window."""
        storage = self.storages[member]
        if isinstance(storage, HDFS) and node < len(storage.devices):
            storage.decommission_datanode(node)
        self._refresh_health()

    def intended_nodes(self) -> int:
        """Nodes the deployment *means* to have right now: construction
        size plus joins minus decommissions (crashes do not change it —
        a crashed node is missing, not gone on purpose)."""
        return sum(t.intended_nodes for t in self.trackers)

    def healthy_fraction(self) -> float:
        """Schedulable nodes as a fraction of intended nodes, across all
        members — the signal the brownout watermarks compare against."""
        schedulable = sum(t.schedulable_nodes() for t in self.trackers)
        return schedulable / max(1, self.intended_nodes())

    def health_level(self) -> str:
        """Current degradation level (``ok``/``degraded``/``browned_out``).

        Read-only and side-effect-free against the configured watermarks
        (:data:`~repro.elastic.degrade.DEFAULT_BROWNOUT` when the
        deployment was built without ``brownout=``); stateful behaviour
        — router fallback, tuner suspension — only engages when a
        brownout config was actually installed.
        """
        config = self.brownout if self.brownout is not None else DEFAULT_BROWNOUT
        return config.level_for(self.healthy_fraction())

    def _refresh_health(self) -> None:
        """Recompute the degradation level and act on transitions.

        No-op unless a brownout config is installed, so deployments
        without one stay byte-identical.  On a transition: emit a tracer
        instant and a metrics counter, and suspend the tuner while not
        ``ok`` (a controller calibrated on healthy data would chase
        churn noise) — resuming it when health returns.
        """
        if self.brownout is None:
            return
        level = self.brownout.level_for(self.healthy_fraction())
        if level == self._health_level:
            return
        previous = self._health_level
        self._health_level = level
        if self.sim.tracer is not None:
            self.sim.tracer.instant(
                "health_transition",
                "elastic",
                track="elastic",
                args={"from": previous, "to": level},
            )
        if self.sim.metrics is not None:
            self.sim.metrics.counter(f"elastic.health.{level}").inc()
        if self.tuner is not None:
            if level == HEALTH_OK:
                self.tuner.resume()
            else:
                self.tuner.suspend()

    def _arm_autoscale_tick(self) -> None:
        """Start the autoscaler heartbeat (idempotent).  The tick runs on
        the simulation clock only while jobs are active, so an autoscaled
        run still terminates when its workload drains."""
        autoscaler = self.autoscaler
        if autoscaler is None or self._autoscale_tick_armed:
            return
        self._autoscale_tick_armed = True

        def tick() -> None:
            if not any(t.active_jobs for t in self.trackers):
                self._autoscale_tick_armed = False
                return
            autoscaler.tick(self)
            self._refresh_health()
            self.sim.schedule(autoscaler.tick_period, tick)

        self.sim.schedule(autoscaler.tick_period, tick)

    def elastic_summary(self) -> dict:
        """Aggregate elastic-membership state for reporting."""
        summary: dict = {
            "health": self.health_level(),
            "healthy_fraction": self.healthy_fraction(),
            "intended_nodes": self.intended_nodes(),
            "schedulable_nodes": sum(
                t.schedulable_nodes() for t in self.trackers
            ),
            "nodes_joined": sum(t.nodes_joined for t in self.trackers),
            "nodes_decommissioned": sum(
                t.nodes_decommissioned for t in self.trackers
            ),
        }
        if self.actuator is not None:
            summary["scale_plan"] = self.actuator.summary()
        if self.autoscaler is not None:
            autoscaler_summary = getattr(self.autoscaler, "summary", None)
            if callable(autoscaler_summary):
                summary["autoscaler"] = autoscaler_summary()
        return summary

    def fault_summary(self) -> dict:
        """Aggregate fault/retry/degradation counters for reporting.

        All-zero for healthy runs; serialised into replay payloads so the
        resilience experiment can report counters from cached results.
        """
        seen: set[int] = set()
        data_loss = 0
        rereplication = 0.0
        for storage in self.storages:
            if id(storage) in seen:  # the hybrid shares one OFS
                continue
            seen.add(id(storage))
            if storage.data_lost:
                data_loss += 1
            rereplication += getattr(storage, "rereplication_bytes", 0.0)
        return {
            "injected_events": self.injector.injected if self.injector else 0,
            "skipped_events": self.injector.skipped if self.injector else 0,
            "task_attempt_failures": sum(
                t.task_attempt_failures for t in self.trackers
            ),
            "maps_reexecuted": sum(t.maps_reexecuted for t in self.trackers),
            "jobs_failed": sum(t.jobs_failed for t in self.trackers),
            "nodes_crashed": sum(t.nodes_crashed for t in self.trackers),
            "nodes_blacklisted": sum(t.nodes_blacklisted for t in self.trackers),
            "jobs_rerouted": self.jobs_rerouted,
            "jobs_requeued": self.jobs_requeued,
            "jobs_rejected": self.jobs_rejected,
            "storage_data_loss": data_loss,
            "rereplication_bytes": rereplication,
            "nodes_decommissioned": sum(
                t.nodes_decommissioned for t in self.trackers
            ),
            "nodes_joined": sum(t.nodes_joined for t in self.trackers),
            "scale_events_applied": self.actuator.applied if self.actuator else 0,
            "scale_events_skipped": self.actuator.skipped if self.actuator else 0,
            # Per-member healthy-capacity time series: [[sim_time,
            # schedulable_nodes], ...], sampled at every membership
            # transition (crash/recover/blacklist/drain/join).
            "healthy_capacity": {
                t.name: [[time, count] for time, count in t.capacity_series]
                for t in self.trackers
            },
            "routing_decisions": self.routing_summary(),
        }


def build_deployment(
    spec: ArchitectureSpec,
    calibration: Calibration = DEFAULT_CALIBRATION,
    router: Optional[Router] = None,
    **kwargs: object,
) -> Deployment:
    """Factory alias, for symmetry with the architecture factories.

    Keyword arguments (``register_datasets``, ``tracer``, ``metrics``,
    ``fault_plan``) pass through to :class:`Deployment`.
    """
    return Deployment(spec, calibration=calibration, router=router, **kwargs)  # type: ignore[arg-type]


__all__ = ["Deployment", "Router", "Scheduler", "algorithm1_router", "build_deployment"]
