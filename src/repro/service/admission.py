"""Admission control: bounded queues with explicit backpressure.

The daemon admits a continuous stream of jobs into a simulation that
only advances when asked (drain / advance), so "pending" means *admitted
but not yet finished*.  The controller bounds that backlog two ways:

* a **per-member cap** — each cluster's queue of expected work, charged
  against the member Algorithm 1 (or the single member) would place the
  job on; and
* a **total cap** — the whole service's backlog, which also covers
  deployments with custom routers whose placement the controller cannot
  predict.

When a cap is hit the job is *rejected with a machine-readable reason*
(429-style), never silently dropped; the service mirrors every decision
into :class:`~repro.telemetry.service.ServiceInstruments` counters, so
saturation is always observable.  Rejected jobs may simply be
resubmitted once earlier work drains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ServiceError

#: Machine-readable rejection reasons carried in :class:`JobStatus.reason`.
REASON_MEMBER_FULL = "member_queue_full"
REASON_SERVICE_FULL = "service_queue_full"
REASON_DUPLICATE = "duplicate_job_id"
#: Brownout shedding (docs/ELASTIC.md): healthy capacity dropped below a
#: watermark and the job's shuffle footprint exceeds the level's shed
#: threshold — resubmit once the cluster recovers.
REASON_SHED_DEGRADED = "shed_degraded"
REASON_SHED_BROWNED_OUT = "shed_browned_out"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue bounds; ``None`` means unbounded (the batch-replay default)."""

    max_pending_per_member: Optional[int] = None
    max_total_pending: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_pending_per_member", "max_total_pending"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ServiceError(f"{name} must be >= 1, got {value}")


class AdmissionController:
    """Tracks the pending backlog and applies an :class:`AdmissionPolicy`.

    ``admit`` charges a job against a member queue (or only the total
    when ``member`` is ``None``); ``release`` credits it back when the
    job's result lands.  ``force`` re-admits checkpointed jobs during
    restore without consulting the caps — they were already admitted
    once, and recovery must not re-reject them.
    """

    def __init__(self, policy: AdmissionPolicy, members: int) -> None:
        if members < 1:
            raise ServiceError(f"need at least one member, got {members}")
        self.policy = policy
        self.pending_per_member: List[int] = [0] * members
        self.pending_unattributed = 0

    @property
    def pending_total(self) -> int:
        return sum(self.pending_per_member) + self.pending_unattributed

    def admit(self, member: Optional[int]) -> Tuple[bool, str]:
        """Try to admit one job destined for ``member``.

        Returns ``(admitted, reason)``; ``reason`` is one of the
        ``REASON_*`` constants when the job was rejected, else empty.
        """
        total_cap = self.policy.max_total_pending
        if total_cap is not None and self.pending_total >= total_cap:
            return False, REASON_SERVICE_FULL
        member_cap = self.policy.max_pending_per_member
        if (
            member is not None
            and member_cap is not None
            and self.pending_per_member[member] >= member_cap
        ):
            return False, REASON_MEMBER_FULL
        self._charge(member)
        return True, ""

    def force(self, member: Optional[int]) -> None:
        """Charge without cap checks (checkpoint replay)."""
        self._charge(member)

    def _charge(self, member: Optional[int]) -> None:
        if member is None:
            self.pending_unattributed += 1
        else:
            self.pending_per_member[member] += 1

    def release(self, member: Optional[int]) -> None:
        if member is None:
            if self.pending_unattributed <= 0:
                raise ServiceError("release without matching unattributed admit")
            self.pending_unattributed -= 1
        else:
            if self.pending_per_member[member] <= 0:
                raise ServiceError(
                    f"release without matching admit on member {member}"
                )
            self.pending_per_member[member] -= 1


__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "REASON_DUPLICATE",
    "REASON_MEMBER_FULL",
    "REASON_SERVICE_FULL",
    "REASON_SHED_BROWNED_OUT",
    "REASON_SHED_DEGRADED",
]
