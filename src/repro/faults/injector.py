"""Event injection: replay a :class:`FaultPlan` against a deployment.

The injector arms one simulator-clock callback per plan event at
deployment construction time — *before* any job event is scheduled — so
an event at time *t* is applied before any same-time task event, and the
sequence numbers of job events shift uniformly regardless of how many
events a plan carries.  The plan's own order (same-time faults before
same-time scale events) is the arming order, so it is also the firing
order.  An empty plan arms nothing, which keeps healthy runs
byte-identical to deployments built without a plan at all.

Events that do not apply to the deployment — an ``"up"`` crash on
THadoop, an OFS server loss on an HDFS-backed architecture, a node index
beyond the cluster — are counted as *skipped*, not errors.  That is what
lets a single plan drive a fair hybrid-vs-THadoop-vs-RHadoop comparison:
each architecture experiences the applicable subset of the schedule.

Scale events (docs/ELASTIC.md) differ from faults in intent:

* ``node_join`` builds ``count`` fresh nodes through
  :meth:`Deployment.add_node` (which also registers HDFS datanodes and
  schedules rebalancing traffic);
* ``node_decommission`` starts a graceful drain via
  :meth:`JobTracker.decommission_node` — running attempts finish, then
  the node leaves (storage re-replication fires from the tracker's
  ``on_decommissioned`` hook when the drain actually completes);
* ``ofs_server_add`` / ``ofs_server_remove`` resize the shared array.

Each family reports on its own names: faults as ``fault_injected`` /
``fault_skipped`` instants on track ``faults`` and ``faults.*``
counters, scale events as ``scale_applied`` / ``scale_skipped`` on track
``elastic`` and ``elastic.*`` counters.  After every event the
deployment's brownout health is refreshed, so admission shedding and
router fallback react on the same clock tick.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict
from typing import TYPE_CHECKING, Callable, Dict, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import (
    HDFS_REPLICA_LOSS,
    NODE_CRASH,
    NODE_DECOMMISSION,
    NODE_JOIN,
    NODE_RECOVER,
    OFS_SERVER_ADD,
    OFS_SERVER_LOSS,
    OFS_SERVER_RECOVER,
    OFS_SERVER_REMOVE,
    TASK_FAILURE,
    FaultEvent,
    FaultPlan,
)
from repro.storage.hdfs import HDFS
from repro.storage.ofs import OrangeFS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.deployment import Deployment


class _Family(NamedTuple):
    """How one event family reports: (skipped, applied) name pairs,
    indexed by whether the event applied."""

    category: str
    track: str
    instants: Tuple[str, str]
    counters: Tuple[str, str]


_FAULTS = _Family(
    "fault", "faults", ("fault_skipped", "fault_injected"),
    ("faults.skipped", "faults.injected"),
)
_SCALE = _Family(
    "elastic", "elastic", ("scale_skipped", "scale_applied"),
    ("elastic.skipped", "elastic.applied"),
)


class FaultInjector:
    """Schedules and applies a plan's events on a deployment's clock."""

    def __init__(self, deployment: "Deployment", plan: FaultPlan) -> None:
        self.deployment = deployment
        self.plan = plan
        #: Events fired so far, keyed by family counter name
        #: (``faults.injected``, ``elastic.skipped``, ...).
        self.counts: Counter[str] = Counter()
        for event in plan.events:
            deployment.sim.schedule_at(event.time, lambda e=event: self._fire(e))

    # -- targeting ------------------------------------------------------

    def _resolve_member(self, event: FaultEvent) -> Optional[int]:
        """Member index an event addresses, or None when the architecture
        has no such member (the event is then skipped)."""
        member = event.member
        if member == "":
            return 0
        if member.isdigit():
            index = int(member)
            return index if index < len(self.deployment.trackers) else None
        try:
            return self.deployment.spec.role_index(member)
        except ConfigurationError:
            return None

    def _node_member(self, event: FaultEvent) -> Optional[int]:
        """Like :meth:`_resolve_member`, but also None when the member
        has no node ``event.node``."""
        member = self._resolve_member(event)
        if member is None or event.node >= len(self.deployment.trackers[member].nodes):
            return None
        return member

    def _find_ofs(self) -> Optional[OrangeFS]:
        for storage in self.deployment.storages:
            if isinstance(storage, OrangeFS):
                return storage
        return None

    # -- application (each returns whether the event applied) -----------

    def _crash(self, event: FaultEvent) -> bool:
        member = self._node_member(event)
        if member is None:
            return False
        self.deployment.trackers[member].crash_node(event.node)
        # A crash can leave the whole cluster dead; the deployment then
        # evacuates its in-flight jobs.
        self.deployment._handle_cluster_outage(member)
        return True

    def _recover(self, event: FaultEvent) -> bool:
        member = self._node_member(event)
        if member is None:
            return False
        self.deployment.trackers[member].recover_node(event.node)
        return True

    def _task_failure(self, event: FaultEvent) -> bool:
        member = self._node_member(event)
        return member is not None and (
            self.deployment.trackers[member].fail_running_attempts(
                event.node, event.count
            ) > 0
        )

    def _replica_loss(self, event: FaultEvent) -> bool:
        member = self._resolve_member(event)
        if member is None:
            return False
        storage = self.deployment.storages[member]
        if not isinstance(storage, HDFS) or event.node >= len(storage.devices):
            return False
        storage.lose_datanode(event.node)
        return True

    def _join(self, event: FaultEvent) -> bool:
        member = self._resolve_member(event)
        if member is None:
            return False
        for _ in range(event.count):
            self.deployment.add_node(member)
        return True

    def _decommission(self, event: FaultEvent) -> bool:
        member = self._node_member(event)
        if member is None or not self.deployment.trackers[member].decommission_node(
            event.node
        ):
            return False
        # Draining the last schedulable node leaves the member unable to
        # accept new work; the deployment then evacuates its in-flight
        # jobs exactly as it does for a full outage.
        self.deployment._handle_cluster_outage(member)
        return True

    def _resize_ofs(
        self, event: FaultEvent, resize: Callable[[OrangeFS, int], int]
    ) -> bool:
        ofs = self._find_ofs()
        return ofs is not None and resize(ofs, event.count) > 0

    def _fire(self, event: FaultEvent) -> None:
        family, apply = _KINDS[event.kind]
        applied = apply(self, event)
        counter = family.counters[applied]
        self.counts[counter] += 1
        sim = self.deployment.sim
        tracer = sim.tracer
        if tracer is not None:
            tracer.instant(
                family.instants[applied],
                family.category,
                track=family.track,
                args=asdict(event),
            )
        metrics = sim.metrics
        if metrics is not None:
            metrics.counter(counter).inc()
        # Events move the brownout watermarks too (no-op unless the
        # deployment carries a brownout config).
        self.deployment._refresh_health()

    def scale_summary(self) -> Optional[dict]:
        """The plan's scale-event tally, or None when it has none."""
        events = sum(event.is_scale for event in self.plan.events)
        if not events:
            return None
        return {
            "plan": self.plan.name or "scale plan",
            "events": events,
            "applied": self.counts["elastic.applied"],
            "skipped": self.counts["elastic.skipped"],
        }


#: The one kind table: kind -> (reporting family, application).
_KINDS: Dict[str, Tuple[_Family, Callable[[FaultInjector, FaultEvent], bool]]] = {
    NODE_CRASH: (_FAULTS, FaultInjector._crash),
    NODE_RECOVER: (_FAULTS, FaultInjector._recover),
    TASK_FAILURE: (_FAULTS, FaultInjector._task_failure),
    OFS_SERVER_LOSS: (
        _FAULTS, lambda inj, e: inj._resize_ofs(e, OrangeFS.fail_servers)
    ),
    OFS_SERVER_RECOVER: (
        _FAULTS, lambda inj, e: inj._resize_ofs(e, OrangeFS.restore_servers)
    ),
    HDFS_REPLICA_LOSS: (_FAULTS, FaultInjector._replica_loss),
    NODE_JOIN: (_SCALE, FaultInjector._join),
    NODE_DECOMMISSION: (_SCALE, FaultInjector._decommission),
    OFS_SERVER_ADD: (
        _SCALE, lambda inj, e: inj._resize_ofs(e, OrangeFS.add_servers)
    ),
    OFS_SERVER_REMOVE: (
        _SCALE, lambda inj, e: inj._resize_ofs(e, OrangeFS.fail_servers)
    ),
}


__all__ = ["FaultInjector"]
