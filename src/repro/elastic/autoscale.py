"""Reactive autoscaling: deterministic threshold control on the sim clock.

An :class:`Autoscaler` watches a deployment's live signals — queue-depth
backlog (:meth:`JobTracker.outstanding_work`, committed map tasks per
map slot) and instantaneous slot utilization — and issues membership
actions through the same code paths a plan's scale events use:
:meth:`Deployment.add_node` to scale up, graceful
:meth:`JobTracker.decommission_node` to scale down.

Determinism: the controller is ticked by the deployment on a fixed
simulator-clock period (like the speculation heartbeat), draws no
randomness, and reads only deployment state — so the same trace under
the same controller replays byte-identically.  The tick is only armed
while jobs are active, so an autoscaled deployment still terminates and
a deployment *without* an autoscaler schedules no extra events at all.

Stability controls, all explicit:

* **cooldown** — minimum simulated seconds between actions;
* **hysteresis** — the scale-up backlog threshold is strictly above the
  scale-down threshold, so capacity doesn't flap across a boundary;
* **bounds** — ``min_nodes``/``max_nodes`` clamp the schedulable count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Protocol, Tuple, runtime_checkable

from repro.errors import ElasticError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.deployment import Deployment


@runtime_checkable
class Autoscaler(Protocol):
    """Anything the deployment can tick on its autoscale heartbeat."""

    #: Simulated seconds between ticks (the deployment arms the loop).
    tick_period: float

    def tick(self, deployment: "Deployment") -> None:
        """Inspect the deployment and issue scale actions (or nothing)."""
        ...  # pragma: no cover - protocol


class ThresholdAutoscaler:
    """Queue-depth + utilization threshold controller for one member.

    Scale **up** (join ``step`` nodes) when backlog — committed map
    tasks per map slot — exceeds ``scale_up_backlog``.  Scale **down**
    (gracefully decommission the highest-index schedulable node) when
    backlog falls below ``scale_down_backlog`` *and* map-slot occupancy
    is below ``scale_down_utilization``.  Actions respect ``cooldown``
    and the ``min_nodes``/``max_nodes`` bounds.
    """

    def __init__(
        self,
        member: str = "",
        *,
        min_nodes: int = 1,
        max_nodes: int = 64,
        scale_up_backlog: float = 2.0,
        scale_down_backlog: float = 0.25,
        scale_down_utilization: float = 0.5,
        cooldown: float = 60.0,
        step: int = 1,
        tick_period: float = 15.0,
    ) -> None:
        if min_nodes < 1:
            raise ElasticError(f"min_nodes must be >= 1: {min_nodes}")
        if max_nodes < min_nodes:
            raise ElasticError(
                f"max_nodes {max_nodes} must be >= min_nodes {min_nodes}"
            )
        if scale_down_backlog >= scale_up_backlog:
            raise ElasticError(
                "hysteresis requires scale_down_backlog "
                f"{scale_down_backlog} < scale_up_backlog {scale_up_backlog}"
            )
        if cooldown < 0:
            raise ElasticError(f"cooldown must be >= 0: {cooldown}")
        if step < 1:
            raise ElasticError(f"step must be >= 1: {step}")
        if tick_period <= 0:
            raise ElasticError(f"tick_period must be positive: {tick_period}")
        self.member = member
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.scale_up_backlog = scale_up_backlog
        self.scale_down_backlog = scale_down_backlog
        self.scale_down_utilization = scale_down_utilization
        self.cooldown = cooldown
        self.step = step
        self.tick_period = tick_period
        self._last_action = -float("inf")
        self.scale_ups = 0
        self.scale_downs = 0
        #: (sim time, "up"/"down", nodes affected) — the audit trail.
        self.actions: List[Tuple[float, str, int]] = []

    # -- targeting ------------------------------------------------------

    def _member_index(self, deployment: "Deployment") -> int | None:
        member = self.member
        if member == "":
            return 0
        if member.isdigit():
            index = int(member)
            return index if index < len(deployment.trackers) else None
        try:
            return deployment.spec.role_index(member)
        except Exception:
            return None

    # -- control loop ---------------------------------------------------

    def tick(self, deployment: "Deployment") -> None:
        member = self._member_index(deployment)
        if member is None:
            return
        tracker = deployment.trackers[member]
        now = deployment.sim.now
        if now - self._last_action < self.cooldown:
            return
        nodes = tracker.schedulable_nodes()
        backlog = tracker.outstanding_work()
        if backlog > self.scale_up_backlog and nodes < self.max_nodes:
            joined = 0
            for _ in range(min(self.step, self.max_nodes - nodes)):
                deployment.add_node(member)
                joined += 1
            if joined:
                self._last_action = now
                self.scale_ups += 1
                self.actions.append((now, "up", joined))
            return
        total = tracker.total_map_slots
        occupancy = (
            1.0 - tracker.total_free_map_slots / total if total > 0 else 0.0
        )
        if (
            backlog < self.scale_down_backlog
            and occupancy < self.scale_down_utilization
            and nodes > self.min_nodes
        ):
            # Retire the highest-index schedulable node: joins append at
            # the end, so this unwinds elastic capacity first and keeps
            # the choice deterministic.
            for index in range(len(tracker.nodes) - 1, -1, -1):
                if tracker._node_ok(index):
                    if tracker.decommission_node(index):
                        self._last_action = now
                        self.scale_downs += 1
                        self.actions.append((now, "down", 1))
                    return

    def summary(self) -> dict:
        return {
            "member": self.member or "0",
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "actions": [list(a) for a in self.actions],
            "bounds": [self.min_nodes, self.max_nodes],
        }


__all__ = ["Autoscaler", "ThresholdAutoscaler"]
