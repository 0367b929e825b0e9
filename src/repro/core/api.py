"""Typed public API: scheduling protocols and service wire models.

This module is the package's single typed facade.  It holds two kinds of
contract:

**Protocols** — structural interfaces every scheduling component
conforms to (no inheritance required):

* :class:`Scheduler` — decides *which side* (scale-up or scale-out) a
  job belongs on from its characteristics.  Implemented by
  :class:`~repro.core.scheduler.SizeAwareScheduler` (Algorithm 1) and
  :class:`~repro.core.finegrained.InterpolatingScheduler`.
* :class:`Router` — maps a job to a concrete member index of a
  :class:`~repro.core.deployment.Deployment`.  Implemented by the
  closure :func:`~repro.core.deployment.algorithm1_router` returns and
  by :class:`~repro.core.loadbalance.LoadBalancingRouter`.

Both are ``runtime_checkable`` so conformance can be asserted with
``isinstance`` in tests; note that runtime checks only verify method
*presence*, while signatures are enforced by the typecheck CI job.

**Wire models** — the schema-checked request/response records the
always-on deployment daemon (:mod:`repro.service`) speaks, versioned so
external clients can evolve independently of internal refactors:

* :class:`JobSubmission` — one job on the wire (a superset of the
  workload-trace record schema); streams as NDJSON, one object per line.
* :class:`JobStatus` — the service's answer about one job: accepted,
  rejected (explicit backpressure — never a silent drop), finished, or
  failed.
* :class:`ServiceState` — the versioned checkpoint snapshot: the
  admission log plus enough configuration to rebuild the deployment and
  re-derive every result deterministically (recovery by replay).
* :func:`validate_ndjson` — the schema checker for streamed batches:
  per-line diagnostics, never an exception mid-stream.

``tests/test_public_api.py`` locks this surface; everything *not*
exported here is free to move between internal modules.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.core.scheduler import Decision
from repro.errors import ServiceError
from repro.mapreduce.job import JobResult, JobSpec
from repro.units import MB
from repro.workload.trace import (
    TRACE_MAP_CPU_PER_MB,
    TRACE_REDUCE_CPU_PER_MB,
    TraceJob,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.deployment import Deployment


@runtime_checkable
class Scheduler(Protocol):
    """Decides the scale-up/scale-out placement for one job."""

    def decide_job(self, spec: JobSpec, ratio_known: bool = True) -> Decision:
        """Placement decision for ``spec``.

        ``ratio_known=False`` models jobs whose shuffle/input ratio the
        user cannot supply; implementations must then fall back to their
        most conservative (avoid-overloading-scale-up) threshold.
        """
        ...


@runtime_checkable
class Router(Protocol):
    """Maps a job to the index of the deployment member that runs it.

    The returned index must satisfy ``0 <= index < len(deployment.trackers)``;
    :meth:`Deployment.submit` validates it and raises
    :class:`~repro.errors.SchedulingError` otherwise.  Plain functions
    with this signature conform structurally.
    """

    def __call__(self, job: JobSpec, deployment: "Deployment") -> int:
        ...


# -- wire models -----------------------------------------------------------

#: Version tag carried by every on-the-wire and on-disk service payload.
#: Bump on any incompatible schema change; readers reject other versions.
WIRE_VERSION = 1

#: Job lifecycle states a :class:`JobStatus` can report.
STATE_ACCEPTED = "accepted"
STATE_FINISHED = "finished"
STATE_FAILED = "failed"
STATE_REJECTED = "rejected"
JOB_STATES = (STATE_ACCEPTED, STATE_FINISHED, STATE_FAILED, STATE_REJECTED)


def _require(payload: Mapping[str, Any], key: str, kinds: tuple, where: str) -> Any:
    if key not in payload:
        raise ServiceError(f"{where}: missing required field {key!r}")
    value = payload[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        expected = "/".join(k.__name__ for k in kinds)
        raise ServiceError(
            f"{where}: field {key!r} must be {expected}, got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class JobSubmission:
    """One job as submitted to the service (the NDJSON line schema).

    The required fields mirror the workload-trace record
    (:class:`~repro.workload.trace.TraceJob`): identifier, arrival time
    on the simulation clock, and the three data volumes.  CPU
    intensities default to the trace-job constants, so a trace streamed
    through the service runs the exact same :class:`JobSpec`\\ s as
    ``Deployment.run_trace(trace.to_jobspecs())`` — the determinism pin
    in ``tests/test_service.py`` holds byte-for-byte.
    """

    job_id: str
    input_bytes: float
    shuffle_bytes: float = 0.0
    output_bytes: float = 0.0
    arrival_time: float = 0.0
    app: str = "trace"
    map_cpu_per_mb: float = TRACE_MAP_CPU_PER_MB
    reduce_cpu_per_mb: float = TRACE_REDUCE_CPU_PER_MB

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ServiceError("job_id must be a non-empty string")
        for name in ("input_bytes", "shuffle_bytes", "output_bytes",
                     "arrival_time", "map_cpu_per_mb", "reduce_cpu_per_mb"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ServiceError(
                    f"{self.job_id}: {name} must be finite and non-negative"
                )

    #: Fields accepted on the wire (anything else is a schema error).
    _FIELDS = (
        "job_id", "input_bytes", "shuffle_bytes", "output_bytes",
        "arrival_time", "app", "map_cpu_per_mb", "reduce_cpu_per_mb",
    )

    def to_jobspec(self) -> JobSpec:
        """The executable job.  Must stay identical to
        :meth:`TraceJob.to_jobspec` for trace-shaped submissions."""
        return JobSpec(
            job_id=self.job_id,
            app=self.app,
            input_bytes=self.input_bytes,
            shuffle_bytes=self.shuffle_bytes,
            output_bytes=self.output_bytes,
            map_cpu_per_byte=self.map_cpu_per_mb / MB,
            reduce_cpu_per_byte=self.reduce_cpu_per_mb / MB,
            arrival_time=self.arrival_time,
        )

    def to_wire(self) -> Dict[str, Any]:
        return {
            "v": WIRE_VERSION,
            "job_id": self.job_id,
            "input_bytes": self.input_bytes,
            "shuffle_bytes": self.shuffle_bytes,
            "output_bytes": self.output_bytes,
            "arrival_time": self.arrival_time,
            "app": self.app,
            "map_cpu_per_mb": self.map_cpu_per_mb,
            "reduce_cpu_per_mb": self.reduce_cpu_per_mb,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any],
                  where: str = "submission") -> "JobSubmission":
        """Parse and validate one wire object (strict: unknown fields and
        version mismatches are :class:`~repro.errors.ServiceError`)."""
        if not isinstance(payload, Mapping):
            raise ServiceError(f"{where}: expected a JSON object")
        version = payload.get("v", WIRE_VERSION)
        if version != WIRE_VERSION:
            raise ServiceError(
                f"{where}: unsupported wire version {version!r} "
                f"(this service speaks v{WIRE_VERSION})"
            )
        unknown = set(payload) - set(cls._FIELDS) - {"v"}
        if unknown:
            raise ServiceError(
                f"{where}: unknown field(s) {sorted(unknown)}"
            )
        job_id = _require(payload, "job_id", (str,), where)
        numbers: Dict[str, float] = {}
        numbers["input_bytes"] = float(
            _require(payload, "input_bytes", (int, float), where)
        )
        for key, default in (
            ("shuffle_bytes", 0.0),
            ("output_bytes", 0.0),
            ("arrival_time", 0.0),
            ("map_cpu_per_mb", TRACE_MAP_CPU_PER_MB),
            ("reduce_cpu_per_mb", TRACE_REDUCE_CPU_PER_MB),
        ):
            if key in payload:
                value = payload[key]
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ServiceError(f"{where}: field {key!r} must be a number")
                numbers[key] = float(value)
            else:
                numbers[key] = default
        app = payload.get("app", "trace")
        if not isinstance(app, str) or not app:
            raise ServiceError(f"{where}: field 'app' must be a non-empty string")
        try:
            return cls(job_id=job_id, app=app, **numbers)
        except ServiceError as exc:
            raise ServiceError(f"{where}: {exc}") from exc

    @classmethod
    def from_tracejob(cls, job: TraceJob) -> "JobSubmission":
        """Wire form of a workload-trace record (CPU defaults apply)."""
        return cls(
            job_id=job.job_id,
            input_bytes=job.input_bytes,
            shuffle_bytes=job.shuffle_bytes,
            output_bytes=job.output_bytes,
            arrival_time=job.arrival_time,
        )


def result_to_wire(result: JobResult) -> Dict[str, Any]:
    """Flat JSON-safe view of a :class:`JobResult` (NaN-free: phases the
    job never reached serialise as ``None``)."""

    def safe(value: float) -> Optional[float]:
        return None if value != value else value  # NaN check

    return {
        "job_id": result.job_id,
        "app": result.app,
        "cluster": result.cluster,
        "input_bytes": result.input_bytes,
        "shuffle_bytes": result.shuffle_bytes,
        "submit_time": safe(result.submit_time),
        "first_map_start": safe(result.first_map_start),
        "last_map_end": safe(result.last_map_end),
        "last_shuffle_end": safe(result.last_shuffle_end),
        "end_time": safe(result.end_time),
        "execution_time": safe(result.execution_time),
        "failed": result.failed,
        "failure_reason": result.failure_reason,
    }


@dataclass(frozen=True)
class JobStatus:
    """The service's answer about one job.

    ``state`` is one of :data:`JOB_STATES`; a rejection always carries a
    machine-readable ``reason`` (backpressure is explicit, never a
    silent drop), and a finished/failed job carries its serialised
    :class:`~repro.mapreduce.job.JobResult` in ``result``.
    """

    job_id: str
    state: str
    cluster: str = ""
    reason: str = ""
    result: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ServiceError(
                f"{self.job_id}: invalid job state {self.state!r} "
                f"(expected one of {JOB_STATES})"
            )

    @property
    def accepted(self) -> bool:
        return self.state != STATE_REJECTED

    def to_wire(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "v": WIRE_VERSION,
            "job_id": self.job_id,
            "state": self.state,
        }
        if self.cluster:
            payload["cluster"] = self.cluster
        if self.reason:
            payload["reason"] = self.reason
        if self.result is not None:
            payload["result"] = self.result
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "JobStatus":
        where = "status"
        job_id = _require(payload, "job_id", (str,), where)
        state = _require(payload, "state", (str,), where)
        return cls(
            job_id=job_id,
            state=state,
            cluster=payload.get("cluster", ""),
            reason=payload.get("reason", ""),
            result=payload.get("result"),
        )


@dataclass
class NDJSONReport:
    """Outcome of validating one streamed NDJSON batch.

    ``errors`` carries ``(line_number, message)`` pairs — one per bad
    line, 1-indexed, with parsing continuing past failures so a single
    typo does not mask the rest of the batch (the adhash
    ``validate_metrics_ndjson`` idiom).
    """

    submissions: List[JobSubmission] = field(default_factory=list)
    errors: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error_lines(self) -> List[Dict[str, Any]]:
        """The errors as wire objects (the 400-response NDJSON body)."""
        return [
            {"v": WIRE_VERSION, "line": line, "error": message}
            for line, message in self.errors
        ]


def validate_ndjson(text: str) -> NDJSONReport:
    """Schema-check a streamed NDJSON batch of job submissions.

    Blank lines are skipped.  Every non-blank line must be a JSON object
    conforming to the :class:`JobSubmission` schema; duplicate job ids
    within the batch are errors.  Never raises for bad input — all
    diagnostics are collected per line in the report.
    """
    report = NDJSONReport()
    seen: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        where = f"line {lineno}"
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            report.errors.append((lineno, f"{where}: invalid JSON: {exc.msg}"))
            continue
        try:
            submission = JobSubmission.from_wire(payload, where=where)
        except ServiceError as exc:
            report.errors.append((lineno, str(exc)))
            continue
        if submission.job_id in seen:
            report.errors.append((
                lineno,
                f"{where}: duplicate job_id {submission.job_id!r} "
                f"(first seen on line {seen[submission.job_id]})",
            ))
            continue
        seen[submission.job_id] = lineno
        report.submissions.append(submission)
    return report


@dataclass
class ServiceState:
    """Versioned checkpoint snapshot of a running service.

    The snapshot is an *admission log*, not a heap dump: it records the
    service configuration (architecture name, registration policy,
    admission caps) plus every accepted submission in admission order.
    Because the simulation is deterministic, restoring replays the log
    on a fresh deployment and re-derives byte-identical results —
    ``clock``, ``finished`` and ``counters`` are carried for reporting
    and consistency checks, not as execution state.  ``counters`` holds
    every ``service.admission.*`` counter, keyed by the name after that
    prefix (``accepted``, ``rejected.<reason>`` ...).

    The same wire form is each record of the checkpoint journal
    (:mod:`repro.service.checkpoint`): the first record is a full
    state, and each later one holds only the ``accepted`` and
    ``finished`` entries new since the record before it, with the
    current ``clock`` and ``counters``.
    """

    architecture: str
    register: bool
    clock: float
    accepted: List[JobSubmission]
    finished: List[str]
    counters: Dict[str, float]
    max_pending_per_member: Optional[int] = None
    max_total_pending: Optional[int] = None
    version: int = WIRE_VERSION

    def to_wire(self) -> Dict[str, Any]:
        return {
            "v": self.version,
            "kind": "repro-service-state",
            "architecture": self.architecture,
            "register": self.register,
            "clock": self.clock,
            "max_pending_per_member": self.max_pending_per_member,
            "max_total_pending": self.max_total_pending,
            "accepted": [s.to_wire() for s in self.accepted],
            "finished": list(self.finished),
            "counters": dict(self.counters),
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "ServiceState":
        where = "service state"
        if not isinstance(payload, Mapping):
            raise ServiceError(f"{where}: expected a JSON object")
        if payload.get("kind") != "repro-service-state":
            raise ServiceError(f"{where}: not a service checkpoint payload")
        version = payload.get("v")
        if version != WIRE_VERSION:
            raise ServiceError(
                f"{where}: unsupported checkpoint version {version!r} "
                f"(this service speaks v{WIRE_VERSION})"
            )
        architecture = _require(payload, "architecture", (str,), where)
        register = payload.get("register", False)
        if not isinstance(register, bool):
            raise ServiceError(f"{where}: field 'register' must be a boolean")
        clock = float(_require(payload, "clock", (int, float), where))
        accepted_raw = _require(payload, "accepted", (list,), where)
        accepted = [
            JobSubmission.from_wire(entry, where=f"{where}: accepted[{i}]")
            for i, entry in enumerate(accepted_raw)
        ]
        finished = payload.get("finished", [])
        if not isinstance(finished, list) or not all(
            isinstance(j, str) for j in finished
        ):
            raise ServiceError(f"{where}: field 'finished' must be a list of ids")
        counters = payload.get("counters", {})
        if not isinstance(counters, Mapping):
            raise ServiceError(f"{where}: field 'counters' must be an object")
        for name, value in counters.items():
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not number or not 0 <= value < math.inf:
                raise ServiceError(
                    f"{where}: counter {name!r} must be a finite count >= 0"
                )
        caps = {}
        for key in ("max_pending_per_member", "max_total_pending"):
            value = payload.get(key)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ServiceError(f"{where}: field {key!r} must be a positive int")
            caps[key] = value
        return cls(
            architecture=architecture,
            register=register,
            clock=clock,
            accepted=accepted,
            finished=list(finished),
            counters={str(k): float(v) for k, v in counters.items()},
            **caps,
        )


__all__ = [
    "JOB_STATES",
    "JobStatus",
    "JobSubmission",
    "NDJSONReport",
    "Router",
    "Scheduler",
    "ServiceState",
    "STATE_ACCEPTED",
    "STATE_FAILED",
    "STATE_FINISHED",
    "STATE_REJECTED",
    "WIRE_VERSION",
    "result_to_wire",
    "validate_ndjson",
]
