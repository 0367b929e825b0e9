"""The deployment daemon's engine (:class:`ReproService`) and its HTTP
client (:class:`ServiceClient`).

:class:`ReproService` wraps one :class:`~repro.core.deployment.Deployment`
behind streaming job admission:

* **admission** — single submissions or NDJSON batches are schema-checked
  (:func:`~repro.core.api.validate_ndjson`), bounded by an
  :class:`~repro.service.admission.AdmissionPolicy`, and routed live via
  the deployment's pluggable :class:`~repro.core.api.Router` (Algorithm 1
  by default, failure-aware reroute preserved);
* **execution** — the simulation clock is lazy: it only advances on
  :meth:`advance_until` / :meth:`drain`, so admission order alone
  determines the event schedule and a trace streamed through the service
  produces byte-identical results to ``Deployment.run_trace`` (pinned by
  ``tests/test_service.py``);
* **durability** — every accepted submission joins an admission log
  that is journaled (:class:`~repro.service.checkpoint.CheckpointStore`):
  every accepted batch, drain and shutdown writes one fsynced record of
  what is new (or, now and then, the whole log compacted), and the log
  restores by deterministic replay — a fresh deployment re-admits it in
  order, so a service killed mid-run recovers with no job lost, none
  double-counted, and identical results after drain.

Thread safety: every public method takes the service lock, so the HTTP
layer (:mod:`repro.service.server`) can serve concurrent requests from
its thread pool.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.core.api import (
    JobStatus,
    JobSubmission,
    NDJSONReport,
    Router,
    ServiceState,
    STATE_ACCEPTED,
    STATE_REJECTED,
    validate_ndjson,
)
from repro.core.architectures import ArchitectureSpec, named_architectures
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.deployment import Deployment
from repro.core.scheduler import Decision, SizeAwareScheduler
from repro.elastic.degrade import BrownoutConfig, HEALTH_BROWNED_OUT
from repro.errors import ServiceError
from repro.faults.plan import FaultPlan
from repro.mapreduce.job import JobResult
from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    REASON_DUPLICATE,
    REASON_SHED_BROWNED_OUT,
    REASON_SHED_DEGRADED,
)
from repro.service.checkpoint import CheckpointStore
from repro.service.models import JobRecord
from repro.telemetry.bus import (
    KIND_SERVICE,
    MetricsBus,
    MetricsFrame,
    frames_from_text,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.service import ServiceInstruments
from repro.telemetry.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.elastic.autoscale import Autoscaler
    from repro.tune.tuner import Tuner


#: What a keep-alive connection the server has closed fails with before
#: any response byte arrives (``RemoteDisconnected`` is a
#: ``ConnectionResetError``).
_STALE_CONNECTION = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


def _pick(mapping: Dict[str, Any], *keys: str) -> Dict[str, Any]:
    return {key: mapping[key] for key in keys}


def _resolve_architecture(
    architecture: Union[str, ArchitectureSpec]
) -> Tuple[str, ArchitectureSpec]:
    if isinstance(architecture, ArchitectureSpec):
        return architecture.name, architecture
    registry = named_architectures()
    if architecture not in registry:
        raise ServiceError(
            f"unknown architecture {architecture!r} "
            f"(choose from {sorted(registry)})"
        )
    return architecture, registry[architecture]


class ReproService:
    """An always-on deployment: streaming admission over one simulation.

    Parameters
    ----------
    architecture:
        A registry name (``"Hybrid"``, ``"THadoop"``, ...) or a full
        :class:`ArchitectureSpec`.  Checkpoints store the *name*, so
        only registry-named services can be restored from disk.
    router:
        Optional custom :class:`Router`.  With the default (Algorithm 1
        on hybrids), admission can predict each job's member and apply
        the per-member queue cap; custom routers fall back to the total
        cap only.
    register:
        Deployment-wide dataset-registration policy (capacity limits).
    policy:
        Admission bounds; default unbounded.
    checkpoint_path:
        When set, the admission log is journaled here automatically
        after every accepted batch and every drain.
    tuner:
        Optional :class:`~repro.tune.tuner.Tuner` (online calibration /
        learned routing).  Tuners are single-use: pass a *fresh* one to
        :meth:`restore` and replay re-derives its learned state along
        with everything else.
    fault_plan / autoscaler:
        Optional event schedule (faults and elastic membership changes,
        docs/FAULTS.md) and reactive autoscaler, threaded to the
        deployment.  Plans are
        deployment state, not admission-log state, so :meth:`restore`
        takes them again (like ``tuner``) — pass the same ones and
        replay reproduces the same churn.
    brownout:
        Degradation watermarks (docs/ELASTIC.md).  The service always
        runs with brownout awareness: ``None`` installs the default
        :class:`~repro.elastic.degrade.BrownoutConfig`.  While degraded
        or browned out, admission *sheds* jobs whose shuffle footprint
        exceeds the level's threshold (largest-shuffle first —
        429-style, resubmit after recovery), and browned-out routing
        falls back to the static Algorithm-1 policy.
    bus:
        Optional :class:`~repro.telemetry.bus.MetricsBus`.  When set,
        the service publishes one ``"service"`` frame after every
        admission, clock advance and drain — queue depth, per-member
        healthy capacity, routing counters, brownout state and tuner
        MAPE (docs/MISSION.md).  Strictly a read-side observer: a run
        with a bus attached is byte-identical to a bare run.
    """

    def __init__(
        self,
        architecture: Union[str, ArchitectureSpec] = "Hybrid",
        *,
        calibration: Calibration = DEFAULT_CALIBRATION,
        router: Optional[Router] = None,
        register: bool = False,
        policy: Optional[AdmissionPolicy] = None,
        checkpoint_path: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        tuner: Optional["Tuner"] = None,
        fault_plan: Optional[FaultPlan] = None,
        autoscaler: Optional["Autoscaler"] = None,
        brownout: Optional[BrownoutConfig] = None,
        bus: Optional[MetricsBus] = None,
    ) -> None:
        self.architecture, self.spec = _resolve_architecture(architecture)
        self.bus = bus
        self.register = register
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.brownout = brownout if brownout is not None else BrownoutConfig()
        self.deployment = Deployment(
            self.spec,
            calibration=calibration,
            router=router,
            register_datasets=register,
            tracer=tracer,
            metrics=self.metrics,
            tuner=tuner,
            fault_plan=fault_plan,
            autoscaler=autoscaler,
            brownout=self.brownout,
        )
        # A tuner may install its learned router; either way the
        # deployment routes per-job, so admission classifies like any
        # custom-router service (total cap only).
        self._custom_router = router is not None or (
            tuner is not None and tuner.router is not None
        )
        self.instruments = ServiceInstruments(self.metrics, tracer)
        self._scheduler = SizeAwareScheduler()
        self._admission = AdmissionController(
            self.policy, members=len(self.deployment.trackers)
        )
        #: Admission log: insertion order is admission order.
        self._records: Dict[str, JobRecord] = {}
        self._results_seen = 0
        self._lock = threading.RLock()
        self._store = (
            CheckpointStore(checkpoint_path) if checkpoint_path else None
        )

    # -- admission --------------------------------------------------------

    def _classify(self, submission: JobSubmission) -> Optional[int]:
        """Member index admission charges the job against, or ``None``
        when the placement cannot be predicted (custom router)."""
        if self._custom_router:
            return None
        if len(self.deployment.trackers) == 1:
            return 0
        decision = self._scheduler.decide_job(submission.to_jobspec())
        role = "up" if decision is Decision.SCALE_UP else "out"
        return self.spec.role_index(role)

    def _shed_reason(self, submission: JobSubmission) -> Optional[str]:
        """Brownout shed reason for this job, or ``None`` to admit."""
        level = self.deployment.health_level()
        threshold = self.brownout.shed_threshold(level)
        if threshold is None or submission.shuffle_bytes <= threshold:
            return None
        if level == HEALTH_BROWNED_OUT:
            return REASON_SHED_BROWNED_OUT
        return REASON_SHED_DEGRADED

    def submit(self, submission: JobSubmission) -> JobStatus:
        """Admit one job, routing it live at its arrival time.

        Accepted jobs join the admission log and are scheduled on the
        deployment; rejected jobs get an explicit 429-style status with
        a machine-readable reason and may be resubmitted later.
        """
        with self._lock:
            status = self._admit(submission, count=True, forced=False)
            self._publish_frame()
            return status

    def _admit(
        self, submission: JobSubmission, *, count: bool, forced: bool
    ) -> JobStatus:
        if submission.job_id in self._records:
            if count:
                self.instruments.rejected(submission.job_id, REASON_DUPLICATE)
            return JobStatus(
                job_id=submission.job_id,
                state=STATE_REJECTED,
                reason=REASON_DUPLICATE,
            )
        if not forced:
            # Degradation-aware shedding (docs/ELASTIC.md): below the
            # watermarks, refuse the biggest shuffles first.  Forced
            # (checkpoint-replay) admissions bypass this — the jobs were
            # admitted once already, and restore must be deterministic.
            shed = self._shed_reason(submission)
            if shed is not None:
                if count:
                    self.instruments.rejected(submission.job_id, shed)
                return JobStatus(
                    job_id=submission.job_id,
                    state=STATE_REJECTED,
                    reason=shed,
                )
        member = self._classify(submission)
        if forced:
            self._admission.force(member)
        else:
            admitted, reason = self._admission.admit(member)
            if not admitted:
                if count:
                    self.instruments.rejected(submission.job_id, reason)
                return JobStatus(
                    job_id=submission.job_id,
                    state=STATE_REJECTED,
                    reason=reason,
                )
        record = JobRecord(submission, admitted_member=member)
        self._records[submission.job_id] = record
        job = submission.to_jobspec()
        when = job.arrival_time
        if when < self.deployment.sim.now:
            # The stream outran the clock: late arrivals run "now".
            when = self.deployment.sim.now
            if count:
                self.instruments.clamped(submission.job_id)
        self.deployment.submit_at(job, when, register_dataset=self.register)
        if count:
            self.instruments.admitted(submission.job_id, member)
        return JobStatus(job_id=submission.job_id, state=STATE_ACCEPTED)

    def submit_ndjson(self, text: str) -> Tuple[List[JobStatus], NDJSONReport]:
        """Admit a streamed NDJSON batch.

        The batch is schema-checked first; a batch with any malformed
        line is rejected whole (no partial admission), mirroring the
        400-vs-429 split on the HTTP surface: 400 = you spoke the schema
        wrong, 429 = the service is saturated.
        """
        with self._lock:
            report = validate_ndjson(text)
            if not report.ok:
                return [], report
            statuses = [
                self._admit(s, count=True, forced=False)
                for s in report.submissions
            ]
            self.checkpoint()
            self._publish_frame()
            return statuses, report

    # -- execution --------------------------------------------------------

    def _sync_results(self) -> None:
        """Fold newly completed deployment results into the job records
        and credit the admission queues (called after any clock
        advance; scanning the append-only results list keeps the
        service a pure observer of the simulation)."""
        results = self.deployment.results
        while self._results_seen < len(results):
            result = results[self._results_seen]
            self._results_seen += 1
            record = self._records.get(result.job_id)
            if record is None or record.result is not None:
                continue
            record.result = result
            self._admission.release(record.admitted_member)
            self.instruments.finished(result.job_id, result.failed)

    def advance_until(self, time: float) -> float:
        """Advance the simulation clock to ``time`` and absorb any
        results that completed on the way; returns the new clock."""
        with self._lock:
            now = self.deployment.advance_until(time)
            self._sync_results()
            self._publish_frame()
            return now

    def drain(self) -> Dict[str, Any]:
        """Run the simulation until every admitted job has completed,
        checkpoint, and return a summary (counts and clock)."""
        with self._lock:
            self.deployment.run()
            self._sync_results()
            self.checkpoint()
            self._publish_frame()
            return _pick(
                self.snapshot()["service"],
                "accepted", "finished", "failed", "pending", "clock",
            )

    # -- observation -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything the service reports, read under the lock: the one
        reader of its counters and of the deployment's health, capacity,
        routing, elastic/fault and tuner state.  ``/metrics``,
        ``/healthz``, ``/drain``, bus frames and checkpoint counters
        are slices of it; counts are ints."""
        with self._lock:
            deployment, instruments = self.deployment, self.instruments
            tuner = deployment.tuner
            return {
                "service": {
                    "accepted": instruments.accepted_total,
                    "rejected": instruments.rejected_total,
                    "clamped": instruments.clamped_total,
                    "finished": instruments.finished_total,
                    "failed": instruments.failed_total,
                    "pending": self.pending,
                    "clock": deployment.sim.now,
                },
                "admission": instruments.admission_counts(),
                "architecture": self.architecture,
                "checkpoint": str(self._store.path) if self._store else None,
                "capacity": {
                    t.name: t.schedulable_nodes() for t in deployment.trackers
                },
                "faults": deployment.fault_summary(),
                "elastic": deployment.elastic_summary(),
                "routing": deployment.routing_summary(),
                "tuning": tuner.summary() if tuner is not None else None,
            }

    def _publish_frame(self) -> None:
        """Publish the snapshot's frame slice (no-op without a bus).

        Called with the service lock held, after every admission, clock
        advance and drain.  A bussed run stays byte-identical to a bare
        one (pinned by ``tests/test_mission.py``).
        """
        if self.bus is None:
            return
        snap = self.snapshot()
        service, elastic, tuning = snap["service"], snap["elastic"], snap["tuning"]
        self.bus.publish(KIND_SERVICE, service["clock"], {
            **_pick(
                service, "accepted", "rejected", "clamped", "finished", "pending"
            ),
            **_pick(elastic, "health", "healthy_fraction"),
            **_pick(snap, "capacity", "routing"),
            "elastic": _pick(elastic, "nodes_joined", "nodes_decommissioned"),
            "tuning": (
                _pick(tuning, "publishes", "mape_after_last", "suspended")
                if tuning is not None
                else None
            ),
        })

    # -- introspection ----------------------------------------------------

    @property
    def pending(self) -> int:
        """Admitted jobs whose results have not landed yet."""
        return self._admission.pending_total

    @property
    def results(self) -> List[JobResult]:
        """All completed results, in completion order (the deployment's
        own list — byte-identical to a batch ``run_trace``)."""
        return self.deployment.results

    def job_status(self, job_id: str) -> Optional[JobStatus]:
        with self._lock:
            record = self._records.get(job_id)
            return record.status() if record is not None else None

    def health(self) -> Dict[str, Any]:
        """The ``GET /healthz`` payload, a slice of :meth:`snapshot`."""
        snap = self.snapshot()
        return {
            "status": snap["elastic"]["health"],
            "healthy_fraction": snap["elastic"]["healthy_fraction"],
            **_pick(snap, "architecture", "checkpoint"),
            **_pick(snap["service"], "clock", "accepted", "pending"),
        }

    def metrics_dump(self) -> Dict[str, Any]:
        """The ``GET /metrics`` payload: the :meth:`snapshot` plus the
        full registry (service and simulation planes) in one document."""
        with self._lock:
            return {**self.snapshot(), "metrics": self.metrics.dump()}

    # -- durability -------------------------------------------------------

    def state(self) -> ServiceState:
        """The versioned snapshot (see :class:`ServiceState`)."""
        with self._lock:
            snap = self.snapshot()
            return ServiceState(
                architecture=snap["architecture"],
                register=self.register,
                clock=snap["service"]["clock"],
                accepted=[r.submission for r in self._records.values()],
                finished=[j for j, r in self._records.items() if r.finished],
                counters=snap["admission"],
                max_pending_per_member=self.policy.max_pending_per_member,
                max_total_pending=self.policy.max_total_pending,
            )

    def checkpoint(self) -> Optional[str]:
        """Write a snapshot now; returns the path (None when the service
        was built without a checkpoint file)."""
        with self._lock:
            if self._store is None:
                return None
            path = self._store.save(self.state())
            self.instruments.checkpointed()
            return str(path)

    @classmethod
    def restore(
        cls,
        checkpoint_path: str,
        *,
        calibration: Calibration = DEFAULT_CALIBRATION,
        router: Optional[Router] = None,
        policy: Optional[AdmissionPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        tuner: Optional["Tuner"] = None,
        fault_plan: Optional[FaultPlan] = None,
        autoscaler: Optional["Autoscaler"] = None,
        brownout: Optional[BrownoutConfig] = None,
        bus: Optional[MetricsBus] = None,
    ) -> "ReproService":
        """Rebuild a service from its checkpoint by deterministic replay.

        The admission log is re-admitted in order onto a fresh
        deployment (bypassing the caps — these jobs were admitted once
        already).  Draining the restored service then re-derives every
        result byte-identically, including jobs that had already
        finished before the crash: nothing is lost, nothing is counted
        twice.  Every ``service.admission.*`` counter (per-reason
        rejections included) is restored from the snapshot; execution
        metrics regenerate during replay.

        A tuned service restores the same way: pass a *fresh* ``tuner``
        configured identically to the original and the replay re-drives
        every observation, publish point and router update on the
        simulation clock, converging to the same learned state
        (pinned by ``tests/test_tune.py``).  Likewise ``fault_plan``,
        ``autoscaler`` and ``brownout``: plans are
        deployment configuration, not admission-log state, so pass the
        originals and replay reproduces the same churn byte-identically
        (forced re-admission bypasses shedding, so the log replays
        unconditionally).
        """
        state = CheckpointStore(checkpoint_path).load()
        if state is None:
            raise ServiceError(f"no checkpoint at {checkpoint_path}")
        if policy is None:
            policy = AdmissionPolicy(
                max_pending_per_member=state.max_pending_per_member,
                max_total_pending=state.max_total_pending,
            )
        service = cls(
            state.architecture,
            calibration=calibration,
            router=router,
            register=state.register,
            policy=policy,
            checkpoint_path=checkpoint_path,
            tracer=tracer,
            metrics=metrics,
            tuner=tuner,
            fault_plan=fault_plan,
            autoscaler=autoscaler,
            brownout=brownout,
            bus=bus,
        )
        for submission in state.accepted:
            status = service._admit(submission, count=False, forced=True)
            if not status.accepted:
                raise ServiceError(
                    f"checkpoint replay rejected {submission.job_id}: "
                    f"{status.reason}"
                )
        # The log, not its counter, is the authority on what was accepted.
        service.instruments.restore_admission(
            {**state.counters, "accepted": len(state.accepted)}
        )
        return service


class ServiceClient:
    """Stdlib HTTP client for a running service (``repro submit``).

    Every method returns the decoded response payload; HTTP error
    statuses that still carry a service payload (400 schema errors,
    404 unknown job, 429 backpressure) are surfaced as data, while
    transport failures raise :class:`ServiceError`.

    The client holds one keep-alive connection: it opens on the first
    request (the constructor does no I/O) and carries every request
    after it until :meth:`close` (or the end of a ``with`` block).  A
    request on a *reused* connection that fails before any response
    byte arrives (the server closed the connection, or was restarted)
    is sent once more on a fresh connection; any other failure raises
    at once.  The retried request may be one the server had already
    handled: ``/advance`` and ``/drain`` are idempotent, and a ``/jobs``
    batch it had already admitted comes back as ``duplicate_job_id``
    rejections, never as a second admission.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        scheme, _, rest = self.base_url.partition("://")
        netloc, slash, prefix = rest.partition("/")
        if scheme != "http" or not netloc:
            raise ServiceError(
                f"bad service URL {base_url!r}: need http://host[:port]"
            )
        try:
            self._conn = http.client.HTTPConnection(netloc, timeout=timeout)
        except http.client.InvalidURL as exc:
            raise ServiceError(f"bad service URL {base_url!r}: {exc}") from exc
        self._prefix = slash + prefix

    def close(self) -> None:
        """Close the connection; the next request opens a new one."""
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
    ) -> Tuple[int, str]:
        headers = {"Content-Type": content_type} if body else {}
        conn = self._conn
        while True:
            reused = conn.sock is not None
            response = None
            try:
                conn.request(method, self._prefix + path, body, headers)
                response = conn.getresponse()
                return response.status, response.read().decode("utf-8")
            except (http.client.HTTPException, OSError) as exc:
                conn.close()
                # After close() the next attempt is on a fresh
                # connection, so this retries at most once.
                stale = reused and response is None
                if stale and isinstance(exc, _STALE_CONNECTION):
                    continue
                raise ServiceError(
                    f"cannot reach service at {self.base_url}: {exc}"
                ) from exc

    @staticmethod
    def _json(status: int, body: str) -> Dict[str, Any]:
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"service returned non-JSON (HTTP {status}): {body[:200]!r}"
            ) from exc

    def submit(self, submission: JobSubmission) -> JobStatus:
        status, body = self._request(
            "POST", "/jobs", json.dumps(submission.to_wire()).encode("utf-8")
        )
        return JobStatus.from_wire(self._json(status, body))

    def submit_ndjson(self, text: str) -> List[JobStatus]:
        """Stream a batch; raises :class:`ServiceError` on schema (400)
        responses, returns per-job statuses otherwise (including
        rejections — explicit backpressure)."""
        status, body = self._request(
            "POST", "/jobs", text.encode("utf-8"), "application/x-ndjson"
        )
        if status == 400:
            raise ServiceError(f"batch rejected by schema check:\n{body}")
        return [
            JobStatus.from_wire(json.loads(line))
            for line in body.splitlines()
            if line.strip()
        ]

    def job_status(self, job_id: str) -> Optional[JobStatus]:
        status, body = self._request("GET", f"/jobs/{job_id}")
        if status == 404:
            return None
        return JobStatus.from_wire(self._json(status, body))

    def events(self, since: int = 0) -> List[MetricsFrame]:
        """The metrics-bus frames with ``seq > since`` (``GET /events``);
        raises :class:`ServiceError` when the daemon has no bus."""
        status, body = self._request("GET", f"/events?since={since}")
        if status != 200:
            error = self._json(status, body).get("error", body)
            raise ServiceError(f"GET /events answered {status}: {error}")
        return frames_from_text(body)

    def metrics(self) -> Dict[str, Any]:
        return self._json(*self._request("GET", "/metrics"))

    def health(self) -> Dict[str, Any]:
        return self._json(*self._request("GET", "/healthz"))

    def drain(self) -> Dict[str, Any]:
        return self._json(*self._request("POST", "/drain"))

    def advance(self, until: float) -> Dict[str, Any]:
        return self._json(*self._request(
            "POST", "/advance", json.dumps({"until": until}).encode("utf-8")
        ))

    def shutdown(self) -> Dict[str, Any]:
        return self._json(*self._request("POST", "/shutdown"))


__all__ = ["ReproService", "ServiceClient"]
