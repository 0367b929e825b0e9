"""Service-plane instruments: per-endpoint counters and admission events.

The deployment daemon (:mod:`repro.service`) observes two planes:

* the *simulation* plane — jobs, tasks, storage — already covered by the
  deployment's own :class:`~repro.telemetry.tracer.Tracer` /
  :class:`~repro.telemetry.metrics.MetricsRegistry` instrumentation; and
* the *service* plane — HTTP requests, admission decisions, checkpoint
  writes — covered here.

:class:`ServiceInstruments` wraps one registry (shared with the
deployment, so ``GET /metrics`` returns both planes in one dump) and an
optional tracer for admission/rejection instants on the simulation
clock.  Like every observer in this package it never schedules events:
an instrumented service run stays byte-identical to a bare one.

Metric names (all under the ``service.`` prefix)::

    service.http.requests                 total requests served
    service.http.<METHOD> <route>         per-endpoint totals
    service.http.status.<code>            per-status-code totals
    service.admission.accepted            jobs admitted
    service.admission.rejected            jobs rejected (backpressure)
    service.admission.rejected.<reason>   per-reason rejections
    service.admission.clamped             arrivals clamped to the clock
    service.jobs.finished                 results recorded
    service.jobs.failed                   failed results recorded
    service.checkpoints                   snapshots written
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.telemetry.metrics import Counter, MetricsRegistry
from repro.telemetry.tracer import Tracer


class ServiceInstruments:
    """Counters and instants for the service plane (names above).  The
    admission, results and checkpoint counters are registered up front
    (they read 0 from the first dump) and held, not read back by name."""

    def __init__(
        self, registry: MetricsRegistry, tracer: Optional[Tracer] = None
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        #: Every ``service.admission.*`` counter, keyed by the name after
        #: that prefix (``accepted``, ``rejected.<reason>`` ...).
        self._admission: Dict[str, Counter] = {}
        for name in ("accepted", "rejected", "clamped"):
            self._admission_counter(name)
        self._finished = registry.counter("service.jobs.finished")
        self._failed = registry.counter("service.jobs.failed")
        self._checkpoints = registry.counter("service.checkpoints")

    def _admission_counter(self, name: str) -> Counter:
        if name not in self._admission:
            self._admission[name] = self.registry.counter(
                f"service.admission.{name}"
            )
        return self._admission[name]

    # -- HTTP plane -------------------------------------------------------

    def observe_request(self, method: str, route: str, status: int) -> None:
        """Record one served request against its normalised route
        (``/jobs/<id>`` style, never raw ids — bounded cardinality)."""
        self.registry.counter("service.http.requests").inc()
        self.registry.counter(f"service.http.{method} {route}").inc()
        self.registry.counter(f"service.http.status.{status}").inc()

    # -- admission plane --------------------------------------------------

    def admitted(self, job_id: str, member: Optional[int]) -> None:
        self._admission["accepted"].inc()
        if self.tracer is not None:
            self.tracer.instant(
                "job_admitted",
                "service",
                track="service",
                args={"job_id": job_id, "member": member},
            )

    def rejected(self, job_id: str, reason: str) -> None:
        """Explicit backpressure: every rejection is counted twice (total
        and per-reason) so a saturated service is observable, and traced
        so the rejection instant lands on the simulation timeline."""
        self._admission["rejected"].inc()
        self._admission_counter(f"rejected.{reason}").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "job_rejected_admission",
                "service",
                track="service",
                args={"job_id": job_id, "reason": reason},
            )

    def clamped(self, job_id: str) -> None:
        self._admission["clamped"].inc()

    # -- results plane ----------------------------------------------------

    def finished(self, job_id: str, failed: bool) -> None:
        self._finished.inc()
        if failed:
            self._failed.inc()

    def checkpointed(self) -> None:
        self._checkpoints.inc()

    # -- reading back -----------------------------------------------------

    def admission_counts(self) -> Dict[str, int]:
        """Every ``service.admission.*`` counter as an int, keyed by the
        name after that prefix — the checkpoint's ``counters`` object."""
        return {name: int(c.value) for name, c in self._admission.items()}

    def restore_admission(self, counts: Mapping[str, float]) -> None:
        """Add checkpointed :meth:`admission_counts` back (restore)."""
        for name, value in counts.items():
            self._admission_counter(name).inc(value)

    @property
    def accepted_total(self) -> int:
        return int(self._admission["accepted"].value)

    @property
    def rejected_total(self) -> int:
        return int(self._admission["rejected"].value)

    @property
    def clamped_total(self) -> int:
        return int(self._admission["clamped"].value)

    @property
    def finished_total(self) -> int:
        return int(self._finished.value)

    @property
    def failed_total(self) -> int:
        return int(self._failed.value)


__all__ = ["ServiceInstruments"]
