"""Per-cluster JobTracker: FIFO multi-job task scheduling over the DES.

The tracker owns the cluster's map/reduce slots and runs every task
through the same lifecycle the paper reasons about:

map task:    slot -> task overhead -> input read -> map CPU
             -> materialise map output on the shuffle store (spill model)
reduce task: slot -> task overhead -> shuffle copy tail (+ spill/merge)
             -> reduce CPU -> output write

Tasks of all submitted jobs share one FIFO queue per slot type, which is
Hadoop 1.x's default scheduler and exactly the paper's Section V setup —
small jobs stuck behind a large job's waves is the phenomenon that makes
THadoop lose to the hybrid.

Reducers launch when their job's maps are all done; the copy that real
Hadoop overlaps with the map phase is modelled by charging only the
post-map *residual* (see ``HadoopConfig.shuffle_residual``), matching the
paper's phase-duration definitions.

Each stage is a method over one :class:`_Attempt` record, scheduled as
``partial(method, attempt)``; traced, metrics-only and bare runs take
the same stages and differ only in which spans and metrics they emit.
A slot is taken in one place (:meth:`JobTracker._launch`) and returned
in one place (:meth:`JobTracker._release`), whether the attempt
finished or died.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Callable, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.errors import SchedulingError
from repro.mapreduce.config import HadoopConfig
from repro.mapreduce.job import JobResult, JobSpec
from repro.mapreduce.nodes import NodeRuntime
from repro.mapreduce.queues import make_queue
from repro.mapreduce.spill import map_output_store_bytes, reduce_shuffle_store_bytes
from repro.storage.blockmap import BlockMap
from repro.simulator.engine import Simulation
from repro.storage.base import StorageSystem
from repro.units import blocks_for

JobCallback = Callable[[JobResult], None]

#: Per task kind: the task span's name and its stage-arg names in
#: lifecycle order, each the gap between consecutive ``_Attempt.marks``.
_SPANS = {
    "map": ("map_task", ("overhead", "read", "cpu", "store")),
    "reduce": ("reduce_task", ("overhead", "wait", "copy", "cpu", "write")),
}


class _Attempt:
    """One live task attempt: the record its stage methods share, and
    the unit fault injection can kill.

    A map runs ``_map_read -> _map_cpu -> _map_store -> _map_done`` and
    a reduce ``_reduce_begin -> _reduce_copy -> _reduce_copied ->
    _reduce_write -> _reduce_done``.  Scheduled stages cannot be
    unscheduled; killing an attempt sets ``aborted`` and every stage
    checks the flag and returns.  In-flight storage transfers run to
    completion (their bandwidth stays charged — a conservative
    approximation of Hadoop killing a task whose I/O is mid-stream).
    """

    __slots__ = (
        "state", "idx", "node", "kind", "speculative", "aborted", "copied",
        "start", "jitter", "io_bytes", "cpu_seconds", "copy_start", "marks",
    )

    def __init__(
        self,
        state: "_JobState",
        idx: int,
        node: NodeRuntime,
        kind: str,
        speculative: bool,
        start: float,
    ) -> None:
        self.state = state
        self.idx = idx
        self.node = node
        self.kind = kind  # "map" | "reduce"
        self.speculative = speculative
        self.aborted = False
        #: Reduce only: this attempt already counted in reduces_copied.
        self.copied = False
        self.start = start
        self.jitter = 1.0
        #: Map input read / reduce shuffle-store bytes.
        self.io_bytes = 0.0
        self.cpu_seconds = 0.0
        self.copy_start = start
        #: Stage start times (traced runs only; pure local state, so the
        #: simulated event sequence is identical either way).
        self.marks: Optional[List[float]] = None


def decide_num_reducers(
    spec: JobSpec, total_reduce_slots: int, target_bytes: float
) -> int:
    """Reducer count: one per ``target_bytes`` of shuffle, capped at the
    cluster's reduce slots (a single reduce wave, as the paper configures)."""
    if spec.num_reducers_hint is not None:
        return min(spec.num_reducers_hint, total_reduce_slots)
    if spec.shuffle_bytes <= 0:
        return 1
    wanted = max(1, round(spec.shuffle_bytes / target_bytes))
    return min(wanted, total_reduce_slots)


class _JobState:
    """Mutable bookkeeping for one in-flight job."""

    __slots__ = (
        "spec",
        "result",
        "num_maps",
        "num_reducers",
        "maps_done",
        "maps_enqueued_at",
        "reduces_copied",
        "reduces_done",
        "reduces_enqueued",
        "reduces_enqueued_at",
        "map_phase_waiters",
        "map_running",
        "map_done_flags",
        "map_duplicated",
        "completed_map_time_sum",
        "on_complete",
        "_rng",
        "map_attempt_failures",
        "reduce_attempt_failures",
        "map_output_node",
        "failed",
    )

    def __init__(
        self,
        spec: JobSpec,
        result: JobResult,
        num_maps: int,
        num_reducers: int,
        on_complete: Optional[JobCallback],
    ) -> None:
        self.spec = spec
        self.result = result
        self.num_maps = num_maps
        self.num_reducers = num_reducers
        self.maps_done = 0
        self.reduces_copied = 0
        self.reduces_done = 0
        self.reduces_enqueued = False
        #: When the job's map / reduce tasks entered the FIFO queues
        #: (NaN until they do) — the profiler's queue-wait anchors.
        self.maps_enqueued_at = math.nan
        self.reduces_enqueued_at = math.nan
        #: Reducers holding a slot, parked until the map phase completes.
        self.map_phase_waiters: List[Callable[[], None]] = []
        #: Running (not yet won) map tasks: index -> first start time.
        self.map_running: dict[int, float] = {}
        #: Map indices whose first copy already finished.
        self.map_done_flags: set[int] = set()
        #: Map indices that already have a speculative backup.
        self.map_duplicated: set[int] = set()
        #: Sum of completed map durations (for the straggler heuristic).
        self.completed_map_time_sum = 0.0
        self.on_complete = on_complete
        #: Failed (charged) attempts per task index; at
        #: ``max_task_attempts`` the whole job fails, as in Hadoop.
        self.map_attempt_failures: dict[int, int] = {}
        self.reduce_attempt_failures: dict[int, int] = {}
        #: Node whose shuffle store holds each completed map's output —
        #: what a node crash forces HDFS-backed clusters to re-execute.
        self.map_output_node: dict[int, int] = {}
        #: The job failed or was evacuated; queue entries are dropped
        #: lazily by the dispatch loops.
        self.failed = False
        # Deterministic per-job stream; seeding with the job id string uses
        # SHA-512 under the hood, so results are stable across processes.
        self._rng = random.Random(f"jitter:{spec.job_id}")

    def average_map_duration(self) -> Optional[float]:
        """Mean duration of this job's completed maps (None before any)."""
        if self.maps_done == 0:
            return None
        return self.completed_map_time_sum / self.maps_done

    def jitter(self, width: float) -> float:
        """Per-task duration multiplier in [1 - width, 1 + width]."""
        if width <= 0:
            return 1.0
        return 1.0 + width * (2.0 * self._rng.random() - 1.0)


class JobTracker:
    """FIFO job/task scheduler for one cluster."""

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        config: HadoopConfig,
        storage: StorageSystem,
        nodes: Sequence[NodeRuntime],
        name: Optional[str] = None,
        block_map: Optional[BlockMap] = None,
    ) -> None:
        if len(nodes) != cluster.count:
            raise SchedulingError(
                f"need one runtime node per machine: {len(nodes)} != {cluster.count}"
            )
        self.sim = sim
        self.cluster = cluster
        self.config = config
        self.storage = storage
        self.nodes = list(nodes)
        self.name = name or cluster.name
        self._free_map = [cluster.slots.map_slots] * cluster.count
        self._free_reduce = [cluster.slots.reduce_slots] * cluster.count
        # Running totals of the two lists above, maintained at every
        # slot take/release so the hot accounting path never has to
        # ``sum()`` a per-node list (O(nodes) -> O(1) per event).
        self._free_map_total = cluster.slots.map_slots * cluster.count
        self._free_reduce_total = cluster.slots.reduce_slots * cluster.count
        self._total_map_slots = cluster.total_map_slots
        self._total_reduce_slots = cluster.total_reduce_slots
        # Metric names are f-string-built from the tracker name; interned
        # once here so per-task telemetry paths don't rebuild them.
        metric = f"{self.name}.%s".__mod__
        self._m_jobs_submitted = metric("jobs_submitted")
        #: Per task kind: (tasks-finished counter, task-seconds histogram).
        self._m_tasks = {
            kind: (metric(f"{kind}_tasks_finished"), metric(f"{kind}_task_seconds"))
            for kind in _SPANS
        }
        self._m_jobs_completed = metric("jobs_completed")
        self._m_job_seconds = metric("job_seconds")
        self._m_job_queue_seconds = metric("job_queue_seconds")
        self._m_map_slot_utilization = metric("map_slot_utilization")
        self._m_speculative_launches = metric("speculative_launches")
        self._m_shuffle_bytes = metric("shuffle_bytes")
        self._m_shuffle_copy_seconds = metric("shuffle_copy_seconds")
        self._m_task_attempt_failures = metric("task_attempt_failures")
        self._m_node_crashes = metric("node_crashes")
        self._m_maps_reexecuted = metric("maps_reexecuted")
        self._m_nodes_blacklisted = metric("nodes_blacklisted")
        self._m_jobs_failed = metric("jobs_failed")
        self._map_queue = make_queue(config.scheduler_policy)
        self._reduce_queue = make_queue(config.scheduler_policy)
        self.results: List[JobResult] = []
        self._active_jobs = 0
        # Keyed by id(state): a dict preserves insertion order exactly
        # like the list-with-remove it replaces (so straggler scans and
        # crash re-execution iterate identically) while making removal
        # O(1) instead of O(active jobs).
        self._active_states: dict[int, _JobState] = {}
        #: Jobs completed via the analytic fast path (see
        #: :meth:`submit_analytic`); zero in full-simulation runs.
        self.analytic_jobs = 0
        #: Backup map copies launched (speculative execution statistics).
        self.speculative_launches = 0
        #: Optional explicit block placement (None = perfect locality).
        self.block_map = block_map
        #: Locality statistics (meaningful only with a block map).
        self.local_map_reads = 0
        self.remote_map_reads = 0
        # Heartbeat loop for straggler detection (armed while jobs run).
        self._speculation_tick_armed = False
        # Busy-slot-time integrals for utilization reporting.
        self._map_busy_integral = 0.0
        self._reduce_busy_integral = 0.0
        self._last_accounting = sim.now
        # Map tasks committed (submitted) but not yet completed.  Counted
        # from submission — not from enqueue after the setup delay — so
        # routers see the backlog the moment jobs are accepted.
        self._committed_map_tasks = 0
        # Live task attempts per node (insertion order — deterministic
        # kill order on a crash).
        self._live_attempts: List[List[_Attempt]] = [[] for _ in range(cluster.count)]
        # Charged (failed) attempts per node since its last recovery;
        # at ``blacklist_threshold`` the node stops receiving new tasks.
        self._node_failures = [0] * cluster.count
        #: Fault statistics (all zero in healthy runs).
        self.task_attempt_failures = 0
        self.maps_reexecuted = 0
        self.jobs_failed = 0
        self.nodes_blacklisted = 0
        self.nodes_crashed = 0
        #: Elastic-membership statistics (all zero in static runs).
        self.nodes_decommissioned = 0
        self.nodes_joined = 0
        # Nodes draining toward graceful exit (no new work; running
        # attempts finish) and nodes that have permanently left.  Both
        # empty in static runs — the hot-path checks below are O(1)
        # set probes that cannot change healthy results.
        self._draining: set[int] = set()
        self._retired: set[int] = set()
        #: Nodes this cluster is *supposed* to have: construction count,
        #: plus joins, minus completed decommissions.  The denominator of
        #: the brownout healthy-capacity fraction.
        self.intended_nodes = cluster.count
        #: Healthy-capacity time series: (sim time, schedulable nodes)
        #: at every capacity transition — what fault_summary() reports
        #: and the Autoscaler/brownout watermarks consume.
        self.capacity_series: List[tuple[float, int]] = [(sim.now, cluster.count)]
        #: Called (with the node index) when a decommission completes —
        #: the deployment hooks storage re-replication and health here.
        self.on_decommissioned: Optional[Callable[[int], None]] = None
        tracer = sim.tracer
        if tracer is not None:
            # Static cluster facts the profiler needs to scale slot
            # timelines and map clusters to their storage systems.
            tracer.instant(
                "cluster_info",
                "meta",
                track=self.name,
                args={
                    "nodes": cluster.count,
                    "map_slots": cluster.total_map_slots,
                    "reduce_slots": cluster.total_reduce_slots,
                    "storage": storage.name,
                },
            )

    # -- submission -------------------------------------------------------

    def submit(self, spec: JobSpec, on_complete: Optional[JobCallback] = None) -> None:
        """Submit a job now; it queues behind earlier jobs' pending tasks."""
        num_maps = blocks_for(spec.input_bytes, self.config.block_size)
        num_reducers = decide_num_reducers(
            spec, self._total_reduce_slots, self.config.reducer_target_bytes
        )
        result = JobResult(
            job_id=spec.job_id,
            app=spec.app,
            cluster=self.name,
            input_bytes=spec.input_bytes,
            shuffle_bytes=spec.shuffle_bytes,
            submit_time=self.sim.now,
        )
        state = _JobState(spec, result, num_maps, num_reducers, on_complete)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "job_submit",
                "job",
                track=self.name,
                args={
                    "job_id": spec.job_id,
                    "app": spec.app,
                    "input_bytes": spec.input_bytes,
                    "maps": num_maps,
                    "reducers": num_reducers,
                },
            )
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(self._m_jobs_submitted).inc()
        if self.block_map is not None:
            self.block_map.place_dataset(spec.job_id, num_maps)
        self._active_jobs += 1
        self._active_states[id(state)] = state
        self._committed_map_tasks += num_maps
        setup = self.config.job_setup_overhead + self.storage.per_job_overhead
        self.sim.schedule(setup, lambda: self._enqueue_maps(state))
        if self.config.speculative_execution:
            self._arm_speculation_tick()

    def submit_analytic(
        self,
        spec: JobSpec,
        setup: float,
        map_phase: float,
        shuffle_phase: float,
        reduce_phase: float,
        queue_wait: float = 0.0,
        on_complete: Optional[JobCallback] = None,
    ) -> None:
        """Complete a job from closed-form phase durations — the analytic
        fast path (docs/KERNEL.md) — instead of simulating its tasks.

        A single completion event replaces the job's entire task cascade.
        Job counters and the backlog proxy stay honest (routers still see
        the committed work), but per-task telemetry and slot-utilization
        integrals naturally exclude fast-path jobs.  ``queue_wait`` is
        the caller's estimate of time spent queued behind earlier jobs
        (zero on an idle cluster); the result timeline mirrors the
        simulated one: setup, wait, map phase, shuffle tail, reduce.
        """
        num_maps = blocks_for(spec.input_bytes, self.config.block_size)
        result = JobResult(
            job_id=spec.job_id,
            app=spec.app,
            cluster=self.name,
            input_bytes=spec.input_bytes,
            shuffle_bytes=spec.shuffle_bytes,
            submit_time=self.sim.now,
        )
        start = self.sim.now + setup + queue_wait
        result.first_map_start = start
        result.last_map_end = start + map_phase
        result.last_shuffle_end = result.last_map_end + shuffle_phase
        self._active_jobs += 1
        self._committed_map_tasks += num_maps
        self.analytic_jobs += 1
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(self._m_jobs_submitted).inc()

        def complete() -> None:
            self._committed_map_tasks -= num_maps
            self._report_job(result, on_complete)

        self.sim.schedule_at(result.last_shuffle_end + reduce_phase, complete)

    def _enqueue_maps(self, state: _JobState) -> None:
        state.maps_enqueued_at = self.sim.now
        for idx in range(state.num_maps):
            self._map_queue.push(state, idx)
        if self._slowstart_threshold(state) == 0:
            self._enqueue_reduces(state)
        self._dispatch_maps()

    def _slowstart_threshold(self, state: _JobState) -> int:
        """Maps that must finish before the job's reducers launch."""
        return math.ceil(self.config.reduce_slowstart * state.num_maps)

    # -- introspection (used by the load-balancing extension) -------------

    @property
    def active_jobs(self) -> int:
        return self._active_jobs

    @property
    def queued_map_tasks(self) -> int:
        return len(self._map_queue)

    @property
    def total_free_map_slots(self) -> int:
        return self._free_map_total

    @property
    def total_map_slots(self) -> int:
        return self._total_map_slots

    def outstanding_work(self) -> float:
        """Backlog proxy: committed-but-incomplete map tasks per map slot.

        Roughly "how many task waves are already promised to this
        cluster" — what the load-balancing router compares.
        """
        return self._committed_map_tasks / max(1, self._total_map_slots)

    # -- health ------------------------------------------------------------

    def _node_ok(self, index: int) -> bool:
        """Schedulable: alive, not draining toward decommission, and
        below the blacklist threshold."""
        return (
            self.nodes[index].alive
            and index not in self._draining
            and self._node_failures[index] < self.config.blacklist_threshold
        )

    def schedulable_nodes(self) -> int:
        """Nodes currently eligible for new tasks."""
        return sum(1 for i in range(len(self.nodes)) if self._node_ok(i))

    def _record_capacity(self) -> None:
        """Sample the healthy-capacity series on a capacity transition.

        Consecutive identical samples are dropped, so the series length
        is proportional to actual membership/health changes (one entry
        for an entire healthy run)."""
        count = self.schedulable_nodes()
        if self.capacity_series and self.capacity_series[-1][1] == count:
            return
        self.capacity_series.append((self.sim.now, count))

    def is_operational(self) -> bool:
        """Whether this cluster can accept work: at least one node is
        alive and not blacklisted.  Routers consult this to route around
        a dead cluster (graceful degradation)."""
        return self.schedulable_nodes() > 0

    # -- utilization accounting ---------------------------------------------

    def _account(self) -> None:
        """Accumulate busy-slot-time up to the current instant."""
        now = self.sim.now
        dt = now - self._last_accounting
        if dt > 0:
            busy_map = self._total_map_slots - self._free_map_total
            busy_reduce = self._total_reduce_slots - self._free_reduce_total
            self._map_busy_integral += busy_map * dt
            self._reduce_busy_integral += busy_reduce * dt
        self._last_accounting = now

    def map_slot_utilization(self) -> float:
        """Mean fraction of map slots busy since the simulation started."""
        self._account()
        if self.sim.now <= 0:
            return 0.0
        return self._map_busy_integral / (self.sim.now * self._total_map_slots)

    def reduce_slot_utilization(self) -> float:
        """Mean fraction of reduce slots busy (holding reducers count)."""
        self._account()
        if self.sim.now <= 0:
            return 0.0
        return self._reduce_busy_integral / (
            self.sim.now * self._total_reduce_slots
        )

    # -- slot dispatch ------------------------------------------------------

    def _pick_node(self, free: List[int]) -> Optional[NodeRuntime]:
        """Most-free-slots placement (deterministic, spreads load evenly).

        Crashed and blacklisted nodes are never picked (a crashed node
        also has zero free slots, but blacklisting leaves slots free
        while denying new work, so the health check is explicit)."""
        best_index = -1
        best_free = 0
        for i, count in enumerate(free):
            if count > best_free and self._node_ok(i):
                best_free = count
                best_index = i
        if best_index < 0:
            return None
        return self.nodes[best_index]

    def _pick_map_node(self, state: _JobState, idx: int) -> Optional[NodeRuntime]:
        """Node for a map task: with a block map, prefer a free replica
        holder (Hadoop's locality scheduling); otherwise most-free."""
        if self.block_map is not None:
            replicas = self.block_map.replicas(state.spec.job_id, idx)
            candidates = [
                n for n in replicas if self._free_map[n] > 0 and self._node_ok(n)
            ]
            if candidates:
                best = max(candidates, key=lambda n: self._free_map[n])
                return self.nodes[best]
        return self._pick_node(self._free_map)

    def _sample_queues(self) -> None:
        """Emit queue-depth / slot-occupancy counter samples (traced runs).

        Event-driven sampling: called from the dispatch loops, where
        these values change.  The tracer drops consecutive identical
        samples, so this stays proportional to actual state changes.
        """
        tracer = self.sim.tracer
        if tracer is None:
            return
        tracer.counter(
            "slots",
            {
                "queued_maps": len(self._map_queue),
                "queued_reduces": len(self._reduce_queue),
                "busy_map_slots": self._total_map_slots - self._free_map_total,
                "busy_reduce_slots": (
                    self._total_reduce_slots - self._free_reduce_total
                ),
            },
            track=self.name,
        )

    def _dispatch_maps(self) -> None:
        self._account()
        self._sample_queues()
        while len(self._map_queue):
            node = self._pick_node(self._free_map)
            if node is None:
                return
            entry = self._map_queue.pop()
            if entry is None:
                return
            state, idx = entry
            if state.failed or idx in state.map_done_flags:
                # Failed/evacuated job, or a crash-requeued map that a
                # still-in-flight speculative copy meanwhile completed:
                # drop the entry, keeping queue accounting balanced.
                self._map_queue.task_finished(state)
                continue
            if self.block_map is not None:
                # Without a block map the guard's node is the placement.
                node = self._pick_map_node(state, idx)
            self._launch(state, idx, node, "map")
        if self.config.speculative_execution:
            self._dispatch_speculative_maps()

    def _find_straggler(self) -> Optional[tuple[_JobState, int]]:
        """The running map task worst overdue vs its job's average, or
        None.  Only tasks without an existing backup are eligible, and a
        job needs at least one completed map to define "average"."""
        now = self.sim.now
        worst: Optional[tuple[_JobState, int]] = None
        worst_ratio = self.config.speculative_slack
        for state in self._active_states.values():
            average = state.average_map_duration()
            if average is None or average <= 0:
                continue
            for idx, started_at in state.map_running.items():
                if idx in state.map_duplicated or idx in state.map_done_flags:
                    continue
                ratio = (now - started_at) / average
                if ratio > worst_ratio:
                    worst_ratio = ratio
                    worst = (state, idx)
        return worst

    #: Straggler-detection heartbeat period, seconds.  Matches the order
    #: of Hadoop's TaskTracker heartbeat; stragglers develop over many
    #: seconds, so the exact value is uncritical.
    SPECULATION_TICK = 3.0

    def _arm_speculation_tick(self) -> None:
        """Poll for stragglers while any job is active.  Real Hadoop does
        this on heartbeats; completion events alone would miss a
        straggler that outlives every other running task."""
        if self._speculation_tick_armed:
            return
        self._speculation_tick_armed = True

        def tick() -> None:
            # Disarm when idle — and also when the cluster can make no
            # progress at all (every node dead/blacklisted and no
            # attempts draining): re-arming forever would keep the event
            # heap non-empty and the simulation would never terminate.
            # ``recover_node`` re-arms when capacity returns.
            if self._active_jobs == 0 or not (
                self.is_operational() or any(self._live_attempts)
            ):
                self._speculation_tick_armed = False
                return
            self._dispatch_speculative_maps()
            self.sim.schedule(self.SPECULATION_TICK, tick)

        self.sim.schedule(self.SPECULATION_TICK, tick)

    def _dispatch_speculative_maps(self) -> None:
        """Hand idle map slots to backup copies of straggling maps."""
        self._account()
        while True:
            node = self._pick_node(self._free_map)
            if node is None:
                return
            straggler = self._find_straggler()
            if straggler is None:
                return
            state, idx = straggler
            state.map_duplicated.add(idx)
            self.speculative_launches += 1
            self._launch(state, idx, node, "map", speculative=True)

    def _dispatch_reduces(self) -> None:
        self._account()
        self._sample_queues()
        while len(self._reduce_queue):
            node = self._pick_node(self._free_reduce)
            if node is None:
                return
            entry = self._reduce_queue.pop()
            if entry is None:
                return
            state, idx = entry
            if state.failed:
                self._reduce_queue.task_finished(state)
                continue
            self._launch(state, idx, node, "reduce")

    # -- task lifecycle -----------------------------------------------------

    def _launch(
        self,
        state: _JobState,
        idx: int,
        node: NodeRuntime,
        kind: str,
        speculative: bool = False,
    ) -> None:
        """Take a ``kind`` slot on ``node`` and start an attempt of task
        ``idx`` there — the one slot take; :meth:`_release` gives it back."""
        i = node.index
        if kind == "map":
            self._free_map[i] -= 1
            self._free_map_total -= 1
        else:
            self._free_reduce[i] -= 1
            self._free_reduce_total -= 1
        node.task_started()
        attempt = _Attempt(state, idx, node, kind, speculative, self.sim.now)
        self._live_attempts[i].append(attempt)
        attempt.jitter = state.jitter(self.config.task_jitter)
        if self.sim.tracer is not None:
            attempt.marks = [attempt.start]
        if kind == "map":
            self._start_map(attempt)
        else:
            self._start_reduce(attempt)

    def _mark(self, attempt: _Attempt) -> None:
        """A new stage starts now (traced runs keep its start time)."""
        if attempt.marks is not None:
            attempt.marks.append(self.sim.now)

    def _release(self, attempt: _Attempt) -> None:
        """Return the attempt's slot — the one slot release, whether the
        attempt finished or died."""
        node = attempt.node
        i = node.index
        node.task_finished()
        if attempt.kind == "map":
            self._free_map[i] += 1
            self._free_map_total += 1
        else:
            self._free_reduce[i] += 1
            self._free_reduce_total += 1
        if self._draining:
            self._maybe_finish_drain(i)

    def _task_done(self, attempt: _Attempt) -> None:
        """The finish tail of both kinds: leave the live set, emit the
        task span (its stage args are the gaps between the attempt's
        marks) and the per-kind metrics, then release the slot."""
        node = attempt.node
        self._live_attempts[node.index].remove(attempt)
        self._account()
        kind = attempt.kind
        now = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            state = attempt.state
            spec = state.spec
            # Key order is part of the exported trace's bytes.
            args = {"job_id": spec.job_id, "index": attempt.idx}
            if kind == "map":
                args["speculative"] = attempt.speculative
                args["queued_at"] = state.maps_enqueued_at
                args["writes_output"] = spec.map_writes_output
            else:
                args["queued_at"] = state.reduces_enqueued_at
                args["writes_output"] = not spec.map_writes_output
            name, stages = _SPANS[kind]
            marks = attempt.marks
            if marks is not None:
                marks.append(now)
                for stage, begin, end in zip(stages, marks, marks[1:]):
                    args[stage] = end - begin
            tracer.complete(
                name, "task", attempt.start, track=self.name, lane=node.index,
                args=args,
            )
        metrics = self.sim.metrics
        if metrics is not None:
            finished, seconds = self._m_tasks[kind]
            metrics.counter(finished).inc()
            metrics.histogram(seconds).observe(now - attempt.start)
        self._release(attempt)

    # -- map task stages ------------------------------------------------------

    def _start_map(self, attempt: _Attempt) -> None:
        """Run one copy of a map task.

        With speculation a task can have two live copies; the first to
        finish wins and advances the job, the loser merely returns its
        slot when done (the model does not interrupt in-flight copies —
        a conservative reading of Hadoop's kill-the-loser behaviour).
        """
        state = attempt.state
        spec = state.spec
        result = state.result
        now = self.sim.now
        if result.first_map_start != result.first_map_start:  # NaN check
            result.first_map_start = now
        if not attempt.speculative:
            state.map_running[attempt.idx] = now
        attempt.io_bytes = spec.input_bytes * spec.input_read_fraction / state.num_maps
        nominal_bytes = spec.input_bytes / state.num_maps
        attempt.cpu_seconds = (
            spec.map_cpu_per_byte
            * nominal_bytes
            * attempt.jitter
            / attempt.node.effective_core_speed()
        )
        self.sim.schedule(
            self.config.task_overhead * attempt.jitter,
            partial(self._map_read, attempt),
        )

    def _map_read(self, attempt: _Attempt) -> None:
        if attempt.aborted:
            return
        self._mark(attempt)
        read_bytes = attempt.io_bytes
        if read_bytes <= 0:
            self._map_cpu(attempt)
            return
        if self.storage.data_lost:
            # Hard data loss (all replicas gone / OFS shrunk below its
            # resident data): the read fails, charging the attempt but
            # not the node — the storage is at fault.
            self._attempt_failed(
                attempt,
                f"{self.storage.name} input data lost",
                charge_task=True,
                charge_node=False,
                release_slot=True,
            )
            self._dispatch_maps()
            return
        spec = attempt.state.spec
        node = attempt.node
        kwargs = dict(stream_cap=node.nic_share(), dataset_bytes=spec.input_bytes)
        if self.block_map is not None:
            replicas = self.block_map.replicas(spec.job_id, attempt.idx)
            if replicas and node.index not in replicas:
                # Rack-remote read: a replica holder's disk serves the
                # block over the network.
                kwargs["source_node"] = replicas[0]
                self.remote_map_reads += 1
            else:
                self.local_map_reads += 1
        self.storage.read(
            read_bytes, node.index, partial(self._map_cpu, attempt), **kwargs
        )

    def _map_cpu(self, attempt: _Attempt) -> None:
        if attempt.aborted:
            return
        self._mark(attempt)
        self.sim.schedule(attempt.cpu_seconds, partial(self._map_store, attempt))

    def _map_store(self, attempt: _Attempt) -> None:
        if attempt.aborted:
            return
        self._mark(attempt)
        state = attempt.state
        spec = state.spec
        node = attempt.node
        done = partial(self._map_done, attempt)
        if spec.map_writes_output:
            # TestDFSIO-style: each map writes its slice of the output
            # file directly to the main storage system.
            self.storage.write(
                spec.output_bytes / state.num_maps,
                node.index,
                done,
                stream_cap=node.nic_share(),
                dataset_bytes=spec.output_bytes,
            )
        else:
            store_bytes = map_output_store_bytes(
                spec.shuffle_bytes / state.num_maps,
                self.config.sort_buffer,
                self.config.spill_io_factor,
            )
            node.shuffle_store.transfer(store_bytes, done)

    def _map_done(self, attempt: _Attempt) -> None:
        if attempt.aborted:
            return
        self._task_done(attempt)
        state = attempt.state
        idx = attempt.idx
        now = self.sim.now
        if not attempt.speculative:
            # Exactly one queue pop per task index; report it back
            # whether this copy won or lost.
            self._map_queue.task_finished(state)
        if idx in state.map_done_flags:
            # The other copy already won; this one just frees its slot.
            self._dispatch_maps()
            return
        state.map_done_flags.add(idx)
        state.map_output_node[idx] = attempt.node.index
        started_at = state.map_running.pop(idx, now)
        state.completed_map_time_sum += now - started_at
        self._committed_map_tasks -= 1
        state.maps_done += 1
        if (
            not state.reduces_enqueued
            and state.maps_done >= self._slowstart_threshold(state)
        ):
            self._enqueue_reduces(state)
        if state.maps_done == state.num_maps:
            state.result.last_map_end = now
            # Wake reducers that launched early (slowstart) and have
            # been holding their slots waiting for the map phase.
            waiters = state.map_phase_waiters
            state.map_phase_waiters = []
            for resume in waiters:
                resume()
        self._dispatch_maps()

    # -- reduce task stages ---------------------------------------------------

    def _enqueue_reduces(self, state: _JobState) -> None:
        state.reduces_enqueued = True
        state.reduces_enqueued_at = self.sim.now
        for idx in range(state.num_reducers):
            self._reduce_queue.push(state, idx)
        self._dispatch_reduces()

    def _start_reduce(self, attempt: _Attempt) -> None:
        state = attempt.state
        spec = state.spec
        share = spec.shuffle_bytes / state.num_reducers
        attempt.io_bytes = reduce_shuffle_store_bytes(
            share,
            self.config.shuffle_residual,
            self.config.reduce_buffer,
            self.config.spill_io_factor,
        )
        attempt.cpu_seconds = (
            spec.reduce_cpu_per_byte
            * share
            * attempt.jitter
            / attempt.node.effective_core_speed()
        )
        self.sim.schedule(
            self.config.task_overhead * attempt.jitter,
            partial(self._reduce_begin, attempt),
        )

    def _reduce_begin(self, attempt: _Attempt) -> None:
        if attempt.aborted:
            return
        self._mark(attempt)
        state = attempt.state
        if state.maps_done == state.num_maps:
            self._reduce_copy(attempt)
        else:
            # Slowstart: the slot is held while the reducer trickles in
            # early map outputs; the measured copy tail starts when the
            # job's last map ends.
            state.map_phase_waiters.append(partial(self._reduce_copy, attempt))

    def _reduce_copy(self, attempt: _Attempt) -> None:
        if attempt.aborted:
            return
        self._mark(attempt)
        attempt.copy_start = self.sim.now
        node = attempt.node
        node.shuffle_store.transfer(
            attempt.io_bytes, partial(self._reduce_copied, attempt), cap=node.nic_share()
        )

    def _reduce_copied(self, attempt: _Attempt) -> None:
        """The shuffle copy's one completion path: its span on traced
        runs, its metrics whenever a registry is attached."""
        if attempt.aborted:
            return
        state = attempt.state
        now = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                "shuffle_copy",
                "task",
                attempt.copy_start,
                track=self.name,
                lane=attempt.node.index,
                args={"job_id": state.spec.job_id, "bytes": attempt.io_bytes},
            )
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(self._m_shuffle_bytes).inc(attempt.io_bytes)
            metrics.histogram(self._m_shuffle_copy_seconds).observe(
                now - attempt.copy_start
            )
        self._mark(attempt)
        attempt.copied = True
        state.reduces_copied += 1
        if state.reduces_copied == state.num_reducers:
            state.result.last_shuffle_end = now
        self.sim.schedule(attempt.cpu_seconds, partial(self._reduce_write, attempt))

    def _reduce_write(self, attempt: _Attempt) -> None:
        if attempt.aborted:
            return
        self._mark(attempt)
        state = attempt.state
        spec = state.spec
        if spec.map_writes_output:
            # Output already written by the maps; the reducer only
            # aggregates statistics (TestDFSIO's single reducer).
            self._reduce_done(attempt)
            return
        node = attempt.node
        self.storage.write(
            spec.output_bytes / state.num_reducers,
            node.index,
            partial(self._reduce_done, attempt),
            stream_cap=node.nic_share(),
            dataset_bytes=spec.output_bytes,
        )

    def _reduce_done(self, attempt: _Attempt) -> None:
        if attempt.aborted:
            return
        self._task_done(attempt)
        state = attempt.state
        self._reduce_queue.task_finished(state)
        state.reduces_done += 1
        if state.reduces_done == state.num_reducers:
            self._report_job(state.result, state.on_complete, state)
        self._dispatch_reduces()

    def _report_job(
        self,
        result: JobResult,
        on_complete: Optional[JobCallback],
        state: Optional[_JobState] = None,
    ) -> None:
        """A job leaves with its result: after its last reducer, or on a
        fast-path completion (``state`` None: it ran no tasks, so it has
        no job span and sets no slot gauges)."""
        result.end_time = self.sim.now
        self._active_jobs -= 1
        if state is not None:
            del self._active_states[id(state)]
            if self.block_map is not None:
                self.block_map.remove_dataset(state.spec.job_id)
        self.results.append(result)
        tracer = self.sim.tracer
        if tracer is not None and state is not None:
            spec = state.spec
            tracer.complete(
                f"job:{spec.job_id}",
                "job",
                result.submit_time,
                track=self.name,
                lane=-1,
                args={
                    "job_id": spec.job_id,
                    "app": spec.app,
                    "storage": self.storage.name,
                    "input_bytes": spec.input_bytes,
                    "map_phase": result.map_phase,
                    "shuffle_phase": result.shuffle_phase,
                    "reduce_phase": result.reduce_phase,
                },
            )
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(self._m_jobs_completed).inc()
            metrics.histogram(self._m_job_seconds).observe(result.execution_time)
            metrics.histogram(self._m_job_queue_seconds).observe(result.queue_delay)
            if state is not None:
                metrics.gauge(self._m_map_slot_utilization).set(
                    self.map_slot_utilization()
                )
                metrics.gauge(self._m_speculative_launches).set(
                    self.speculative_launches
                )
        if on_complete is not None:
            on_complete(result)

    # -- fault handling -----------------------------------------------------

    def _node_instant(
        self, name: str, category: str, track: str, index: int, **extra: int
    ) -> None:
        """A node-membership or fault marker (traced runs)."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                name,
                category,
                track=track,
                args={"cluster": self.name, "node": index, **extra},
            )

    def crash_node(self, index: int) -> None:
        """A node dies: its live attempts are *killed* (requeued without
        charging ``max_task_attempts`` — Hadoop's killed-vs-failed
        distinction), its slots leave the pool, and on HDFS-backed
        clusters the *completed* maps whose output lived on its shuffle
        store are re-executed if any reducer still needs them."""
        node = self.nodes[index]
        if not node.alive:
            return
        self._account()
        # A crash during a graceful drain wins: the node is gone *now*,
        # attempts are killed-and-requeued, and the pending decommission
        # is cancelled (its slots were never retired, so recovery keeps
        # the ordinary crash semantics).
        self._draining.discard(index)
        self.nodes_crashed += 1
        # Kill live attempts first: their slot bookkeeping must run
        # before the node's counters are zeroed.
        for attempt in list(self._live_attempts[index]):
            self._attempt_failed(
                attempt,
                "node crash",
                charge_task=False,
                charge_node=False,
                release_slot=False,
            )
        self._live_attempts[index] = []
        node.crash()
        self._free_map_total -= self._free_map[index]
        self._free_reduce_total -= self._free_reduce[index]
        self._free_map[index] = 0
        self._free_reduce[index] = 0
        if not self.storage.intermediate_survives_node_loss:
            self._reexecute_lost_map_outputs(index)
        self._node_instant("node_crash", "fault", "faults", index)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(self._m_node_crashes).inc()
        self._record_capacity()
        # Requeued tasks may fit on surviving nodes right away.
        self._dispatch_maps()
        self._dispatch_reduces()

    def _reexecute_lost_map_outputs(self, index: int) -> None:
        """Re-run completed maps whose intermediate output died with node
        ``index`` — the cost asymmetry between node-local shuffle stores
        (HDFS clusters) and a shared remote store (OFS clusters), where
        ``intermediate_survives_node_loss`` makes this a no-op."""
        for state in self._active_states.values():
            if state.reduces_copied >= state.num_reducers:
                # Every reducer already copied; outputs no longer needed.
                continue
            lost = [
                i
                for i, n in sorted(state.map_output_node.items())
                if n == index and i in state.map_done_flags
            ]
            for i in lost:
                state.map_done_flags.discard(i)
                state.map_output_node.pop(i, None)
                state.maps_done -= 1
                self._committed_map_tasks += 1
                self.maps_reexecuted += 1
                self._map_queue.push(state, i)
            if lost:
                metrics = self.sim.metrics
                if metrics is not None:
                    metrics.counter(self._m_maps_reexecuted).inc(len(lost))

    def recover_node(self, index: int) -> None:
        """The node rejoins (fresh and empty) and its blacklist record,
        if any, is cleared."""
        if index in self._retired:
            # A decommissioned node has left for good: its slots were
            # retired from the pool, so a recover event cannot apply.
            return
        node = self.nodes[index]
        self._account()
        # Recovering a draining node cancels the pending decommission
        # (the operator changed their mind before the drain completed).
        self._draining.discard(index)
        if not node.alive:
            node.recover()
            self._free_map_total += self.cluster.slots.map_slots - self._free_map[index]
            self._free_reduce_total += (
                self.cluster.slots.reduce_slots - self._free_reduce[index]
            )
            self._free_map[index] = self.cluster.slots.map_slots
            self._free_reduce[index] = self.cluster.slots.reduce_slots
        self._node_failures[index] = 0
        self._node_instant("node_recover", "fault", "faults", index)
        if self.config.speculative_execution and self._active_jobs > 0:
            self._arm_speculation_tick()
        self._record_capacity()
        self._dispatch_maps()
        self._dispatch_reduces()

    # -- elastic membership -------------------------------------------------

    def decommission_node(self, index: int) -> bool:
        """Begin a *graceful* exit for node ``index``.

        Unlike :meth:`crash_node`, nothing is killed: the node stops
        receiving new tasks immediately (it drops out of
        :meth:`_node_ok`, like a blacklisted node), its running attempts
        finish normally, and when the last one retires the node leaves —
        taking its slots out of the pool and firing
        ``on_decommissioned`` (the deployment's storage re-replication
        hook).  Returns True if the drain was started (or completed
        immediately on an idle node); False if the node is dead, already
        draining, or already retired.
        """
        if index in self._draining or index in self._retired:
            return False
        node = self.nodes[index]
        if not node.alive:
            return False
        self._draining.add(index)
        self._node_instant("node_draining", "elastic", "elastic", index)
        self._record_capacity()
        if not self._live_attempts[index]:
            self._finalize_decommission(index)
        return True

    def _maybe_finish_drain(self, index: int) -> None:
        """Complete a pending decommission once the node is idle."""
        if index in self._draining and not self._live_attempts[index]:
            self._finalize_decommission(index)

    def _finalize_decommission(self, index: int) -> None:
        """The drained node leaves: slots retire from the pool, the
        intended-capacity baseline shrinks, and storage is notified."""
        self._draining.discard(index)
        self._retired.add(index)
        self._account()
        node = self.nodes[index]
        node.decommission()
        # Every attempt has retired, so the node's free counts are back
        # at the full per-node slot complement; retire both sides of the
        # accounting together (busy = total - free stays consistent).
        self._free_map_total -= self._free_map[index]
        self._free_reduce_total -= self._free_reduce[index]
        self._free_map[index] = 0
        self._free_reduce[index] = 0
        self._total_map_slots -= self.cluster.slots.map_slots
        self._total_reduce_slots -= self.cluster.slots.reduce_slots
        self.intended_nodes -= 1
        self.nodes_decommissioned += 1
        self._node_instant("node_decommissioned", "elastic", "elastic", index)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(f"{self.name}.nodes_decommissioned").inc()
        self._record_capacity()
        if self.on_decommissioned is not None:
            self.on_decommissioned(index)

    def add_node(self, node: NodeRuntime) -> int:
        """A new node joins at the next free index, growing the slot
        pool; queued tasks may dispatch onto it immediately."""
        index = len(self.nodes)
        if node.index != index:
            raise SchedulingError(
                f"joining node must take index {index}, got {node.index}"
            )
        self._account()
        self.nodes.append(node)
        self._free_map.append(self.cluster.slots.map_slots)
        self._free_reduce.append(self.cluster.slots.reduce_slots)
        self._free_map_total += self.cluster.slots.map_slots
        self._free_reduce_total += self.cluster.slots.reduce_slots
        self._total_map_slots += self.cluster.slots.map_slots
        self._total_reduce_slots += self.cluster.slots.reduce_slots
        self._live_attempts.append([])
        self._node_failures.append(0)
        self.intended_nodes += 1
        self.nodes_joined += 1
        self._node_instant("node_joined", "elastic", "elastic", index)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(f"{self.name}.nodes_joined").inc()
        self._record_capacity()
        if self.config.speculative_execution and self._active_jobs > 0:
            self._arm_speculation_tick()
        self._dispatch_maps()
        self._dispatch_reduces()
        return index

    def fail_running_attempts(
        self, index: int, count: int = 1, reason: str = "injected task failure"
    ) -> int:
        """Fail up to ``count`` live attempts on node ``index`` (transient
        task failure: bad disk sector, OOM kill).  Unlike a crash these
        are *charged* — to the task (toward ``max_task_attempts``) and to
        the node (toward the blacklist threshold).  Returns the number of
        attempts actually failed."""
        failed = 0
        for attempt in list(self._live_attempts[index]):
            if failed >= count:
                break
            self._attempt_failed(
                attempt, reason, charge_task=True, charge_node=True, release_slot=True
            )
            failed += 1
        if failed:
            self._dispatch_maps()
            self._dispatch_reduces()
        return failed

    def _attempt_failed(
        self,
        attempt: _Attempt,
        reason: str,
        *,
        charge_task: bool,
        charge_node: bool,
        release_slot: bool,
    ) -> None:
        """Central attempt-death bookkeeping.

        ``charge_task`` counts the failure toward the task's
        ``max_task_attempts`` (exhaustion fails the whole job);
        ``charge_node`` counts it toward the node's blacklist threshold;
        ``release_slot`` returns the slot (False when the node itself
        died and took its slots with it).  Surviving tasks are requeued.
        """
        if attempt.aborted:
            return
        attempt.aborted = True
        state = attempt.state
        node = attempt.node
        idx = attempt.idx
        try:
            self._live_attempts[node.index].remove(attempt)
        except ValueError:
            pass
        self.task_attempt_failures += 1
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(self._m_task_attempt_failures).inc()
        is_map = attempt.kind == "map"
        if release_slot:
            self._release(attempt)
        # Queue accounting: every popped entry gets exactly one
        # task_finished, whether the attempt finished or died.
        if is_map:
            if not attempt.speculative:
                self._map_queue.task_finished(state)
                state.map_running.pop(idx, None)
            else:
                # The original copy lives on; a new backup may launch.
                state.map_duplicated.discard(idx)
        else:
            self._reduce_queue.task_finished(state)
            if attempt.copied:
                state.reduces_copied -= 1
        if charge_node:
            self._note_node_failure(node)
        if state.failed:
            return
        if is_map and idx in state.map_done_flags:
            return  # another copy already won this task
        if charge_task:
            failures = (
                state.map_attempt_failures if is_map else state.reduce_attempt_failures
            )
            failures[idx] = failures.get(idx, 0) + 1
            if failures[idx] >= self.config.max_task_attempts:
                kind = "map" if is_map else "reduce"
                self._fail_job(
                    state,
                    f"{kind} task {idx} failed {failures[idx]} attempts: {reason}",
                )
                return
        # Requeue for retry (speculative copies are extras, not queued).
        if is_map:
            if not attempt.speculative:
                self._map_queue.push(state, idx)
        else:
            self._reduce_queue.push(state, idx)

    def _note_node_failure(self, node: NodeRuntime) -> None:
        """Count a charged failure against a node; blacklist at the
        threshold.  A blacklisted node drains its running tasks but gets
        no new ones; recovery clears the record."""
        i = node.index
        self._node_failures[i] += 1
        if node.alive and self._node_failures[i] == self.config.blacklist_threshold:
            self.nodes_blacklisted += 1
            self._record_capacity()
            self._node_instant(
                "node_blacklisted", "fault", "faults", i,
                failures=self._node_failures[i],
            )
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.counter(self._m_nodes_blacklisted).inc()

    def _fail_job(self, state: _JobState, reason: str) -> None:
        """Declare a job failed (a task exhausted its attempts).  The
        result records why; remaining attempts are aborted and queue
        entries are dropped lazily by the dispatch loops."""
        if state.failed:
            return
        result = state.result
        result.failed = True
        result.failure_reason = reason
        result.end_time = self.sim.now
        self.jobs_failed += 1
        self._withdraw(state, "job failed")
        self.results.append(result)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                "job_failed",
                "job",
                track=self.name,
                args={"job_id": state.spec.job_id, "reason": reason},
            )
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(self._m_jobs_failed).inc()
        if state.on_complete is not None:
            state.on_complete(result)

    def _withdraw(self, state: _JobState, reason: str) -> None:
        """Take a job off this tracker without a result: its backlog,
        block placement, live attempts and parked reducers go, and the
        dispatch loops drop its queue entries (``failed``).  A live
        attempt's node is always alive — a crash kills its attempts
        first — so every aborted attempt returns its slot."""
        state.failed = True
        self._active_jobs -= 1
        del self._active_states[id(state)]
        self._committed_map_tasks -= state.num_maps - state.maps_done
        if self.block_map is not None:
            self.block_map.remove_dataset(state.spec.job_id)
        # state.failed is already set, so these cannot recurse back to
        # _fail_job.
        for node_attempts in self._live_attempts:
            for attempt in list(node_attempts):
                if attempt.state is state:
                    self._attempt_failed(
                        attempt,
                        reason,
                        charge_task=False,
                        charge_node=False,
                        release_slot=True,
                    )
        state.map_phase_waiters = []

    def evacuate(self) -> List[tuple[JobSpec, Optional[JobCallback]]]:
        """Withdraw every in-flight job for resubmission elsewhere.

        Called by the deployment when this cluster stops being
        operational.  Returns ``(spec, on_complete)`` pairs with the
        *original* completion callbacks, so storage registered at first
        submission is still released exactly once."""
        evacuated: List[tuple[JobSpec, Optional[JobCallback]]] = []
        for state in list(self._active_states.values()):
            evacuated.append((state.spec, state.on_complete))
            self._withdraw(state, "job evacuated")
        return evacuated

    def abort_active_jobs(self, reason: str) -> int:
        """Fail every job still active (e.g. stranded on a cluster that
        never recovered).  Returns the number of jobs failed."""
        count = 0
        for state in list(self._active_states.values()):
            self._fail_job(state, reason)
            count += 1
        return count
