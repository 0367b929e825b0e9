"""Event plans: seeded, serializable schedules of faults and membership changes.

A :class:`FaultPlan` is an ordered list of timestamped
:class:`FaultEvent`\\ s plus a seed.  Events come in two families that
share one schema:

* **faults** — node crashes and recoveries, OFS storage-server loss,
  HDFS datanode (replica) loss, transient task-attempt failures;
* **scale events** — node joins, graceful decommissions, OFS array
  resizes (elastic membership, docs/ELASTIC.md).

Plans are plain frozen dataclasses, serialise canonically to JSON, and
carry a content hash, so the runner cache can distinguish a faulted or
elastic run from a healthy one (and two different schedules from each
other) the same way it distinguishes calibrations.

Determinism rules
-----------------

* The plan is *the* source of nondeterminism: injection itself draws no
  randomness.  Identical plan + identical simulation seed replay
  byte-identically (pinned by tests/test_faults.py).
* Events fire as ordinary simulator-clock callbacks, armed before any
  job event is scheduled, so an event at time *t* is applied before any
  same-time task event.
* Events are ordered by time; at one timestamp every fault fires before
  every scale event, and within a family events keep authoring order.
* An **empty plan arms nothing**: a deployment built with
  ``FaultPlan.empty()`` schedules exactly the same events as one built
  with no plan at all, so healthy results stay byte-identical.

Addressing
----------

``member`` selects which member cluster of the deployment an event hits:
a role name (``"up"``/``"out"``) or a member index as a string
(``"0"``).  Events addressed to a member the architecture does not have
— an ``"up"`` crash on THadoop, an OFS server loss on an HDFS-backed
deployment — are *skipped*, which is what lets one plan drive a fair
hybrid-vs-THadoop-vs-RHadoop comparison: every architecture experiences
the subset of the schedule that applies to it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from random import Random
from typing import Any, Dict, Iterable, Tuple

from repro.errors import FaultError

#: Fault kinds (the ``kind`` field of a :class:`FaultEvent`).
NODE_CRASH = "node_crash"
NODE_RECOVER = "node_recover"
TASK_FAILURE = "task_failure"
OFS_SERVER_LOSS = "ofs_server_loss"
OFS_SERVER_RECOVER = "ofs_server_recover"
HDFS_REPLICA_LOSS = "hdfs_replica_loss"

FAULT_KINDS = (
    NODE_CRASH,
    NODE_RECOVER,
    TASK_FAILURE,
    OFS_SERVER_LOSS,
    OFS_SERVER_RECOVER,
    HDFS_REPLICA_LOSS,
)

#: Scale kinds: elastic membership changes (docs/ELASTIC.md).
NODE_JOIN = "node_join"
NODE_DECOMMISSION = "node_decommission"
OFS_SERVER_ADD = "ofs_server_add"
OFS_SERVER_REMOVE = "ofs_server_remove"

SCALE_KINDS = (
    NODE_JOIN,
    NODE_DECOMMISSION,
    OFS_SERVER_ADD,
    OFS_SERVER_REMOVE,
)

#: Every kind a plan accepts.
EVENT_KINDS = FAULT_KINDS + SCALE_KINDS

#: Schema tag carried by serialized plans.
PLAN_SCHEMA = 1


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FaultEvent:
    """One timestamped fault or membership change.

    Parameters
    ----------
    time:
        Simulation time (seconds) at which the event strikes.  For a
        decommission this is when draining *starts*; the node leaves
        once its running attempts retire.
    kind:
        One of :data:`EVENT_KINDS`.
    member:
        Target member cluster: a role (``"up"``/``"out"``) or member
        index as a string.  Empty string means member 0 for node events;
        storage events address the member's storage system (which the
        hybrid's members share).
    node:
        Node index within the member cluster (node events), or datanode
        index (``hdfs_replica_loss``).  Ignored by joins, which append
        at the next free index, and by OFS server events.
    count:
        Nodes to join, attempts to fail, or OFS servers affected.
    """

    time: float
    kind: str
    member: str = ""
    node: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if (
            isinstance(self.time, bool)
            or not isinstance(self.time, (int, float))
            or not math.isfinite(self.time)
            or self.time < 0
        ):
            raise FaultError(
                f"event time must be a finite number >= 0: {self.time!r}"
            )
        if self.kind not in EVENT_KINDS:
            raise FaultError(
                f"unknown event kind {self.kind!r}; choose from {EVENT_KINDS}"
            )
        if not isinstance(self.member, str):
            raise FaultError(f"member must be a string: {self.member!r}")
        if not _is_int(self.node) or self.node < 0:
            raise FaultError(f"node must be an int >= 0: {self.node!r}")
        if not _is_int(self.count) or self.count < 1:
            raise FaultError(f"count must be an int >= 1: {self.count!r}")

    @property
    def is_scale(self) -> bool:
        """True for membership changes, False for faults."""
        return self.kind in SCALE_KINDS

    def describe(self) -> str:
        target = self.member or "0"
        if self.kind in (
            OFS_SERVER_LOSS, OFS_SERVER_RECOVER, OFS_SERVER_ADD, OFS_SERVER_REMOVE
        ):
            return f"t={self.time:g}s {self.kind} x{self.count}"
        if self.kind == NODE_JOIN:
            return f"t={self.time:g}s {self.kind} {target} x{self.count}"
        return f"t={self.time:g}s {self.kind} {target}/node{self.node}"


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of events, sorted by time with same-time
    faults before same-time scale events."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if not _is_int(self.seed):
            raise FaultError(f"plan seed must be an int: {self.seed!r}")
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, e.is_scale))
        )  # stable: same-time events of one family keep authoring order
        object.__setattr__(self, "events", ordered)

    @classmethod
    def empty(cls) -> "FaultPlan":
        """The empty plan (arms nothing; byte-identical to no plan)."""
        return cls()

    @property
    def is_empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": PLAN_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "events": [asdict(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict) or "events" not in data:
            raise FaultError("a plan needs an 'events' list")
        schema = data.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise FaultError(f"unsupported plan schema {schema!r}")
        try:
            events = tuple(FaultEvent(**e) for e in data["events"])
        except TypeError as exc:
            raise FaultError(f"malformed plan event: {exc}") from None
        return cls(
            events=events,
            seed=data.get("seed", 0),
            name=str(data.get("name", "")),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise FaultError(f"cannot read plan {path}: {exc}") from None
        return cls.from_dict(data)

    # -- identity ----------------------------------------------------------

    def content_key(self) -> str:
        """Stable SHA-256 over the canonical serialized form."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        label = self.name or "fault plan"
        return f"{label}: {len(self.events)} events, seed {self.seed}"


def _jittered(rng: Random, base: float, width: float = 0.05) -> float:
    """A seeded perturbation of ``base`` (keeps synthesized plans from
    aligning with wave boundaries at exact round numbers)."""
    return max(0.0, base * (1.0 + width * (2.0 * rng.random() - 1.0)))


def default_resilience_plan(duration: float, seed: int = 0) -> FaultPlan:
    """The resilience experiment's reference schedule over ``duration``.

    A representative, seeded mix covering every event kind.  Events are
    addressed by role so the *same* plan drives all three Section V
    deployments; each architecture experiences the applicable subset:

    * ``out`` node faults hit Hybrid, THadoop and RHadoop alike;
    * ``up`` node faults hit only the hybrid's scale-up cluster;
    * OFS server loss hits the shared-OFS deployments (Hybrid, RHadoop);
    * HDFS replica loss hits the HDFS deployment (THadoop).
    """
    rng = Random(f"resilience:{seed}")
    t = lambda frac: _jittered(rng, duration * frac)  # noqa: E731
    events = (
        # Transient task-attempt failures early on (retries absorb them).
        FaultEvent(time=t(0.10), kind=TASK_FAILURE, member="out", node=2),
        FaultEvent(time=t(0.18), kind=TASK_FAILURE, member="out", node=5),
        # A scale-out node dies mid-trace and comes back much later.
        FaultEvent(time=t(0.25), kind=NODE_CRASH, member="out", node=1),
        FaultEvent(time=t(0.60), kind=NODE_RECOVER, member="out", node=1),
        # A scale-up node dies (hybrid only) and recovers.
        FaultEvent(time=t(0.35), kind=NODE_CRASH, member="up", node=0),
        FaultEvent(time=t(0.70), kind=NODE_RECOVER, member="up", node=0),
        # The shared OFS array loses stripe servers (shared fate domain).
        FaultEvent(time=t(0.45), kind=OFS_SERVER_LOSS, count=2),
        FaultEvent(time=t(0.80), kind=OFS_SERVER_RECOVER, count=2),
        # An HDFS datanode's disk is lost (re-replication traffic).
        FaultEvent(time=t(0.50), kind=HDFS_REPLICA_LOSS, member="out", node=0),
    )
    return FaultPlan(events=events, seed=seed, name=f"default-resilience-s{seed}")


def crash_storm_plan(
    duration: float,
    seed: int = 0,
    crashes: int = 4,
    member: str = "out",
    nodes: int = 12,
    recover_after_fraction: float = 0.25,
) -> FaultPlan:
    """A seeded storm of ``crashes`` crash/recover pairs on one member.

    Crash times are uniform over the window; each node recovers
    ``recover_after_fraction`` of the window later.  Useful for scaling
    fault pressure in sensitivity studies.
    """
    if crashes < 0:
        raise FaultError(f"crashes must be >= 0: {crashes}")
    if nodes < 1:
        raise FaultError(f"nodes must be >= 1: {nodes}")
    rng = Random(f"storm:{seed}")
    events: list[FaultEvent] = []
    for i in range(crashes):
        node = rng.randrange(nodes)
        at = rng.random() * duration * 0.8
        events.append(FaultEvent(time=at, kind=NODE_CRASH, member=member, node=node))
        events.append(
            FaultEvent(
                time=at + duration * recover_after_fraction,
                kind=NODE_RECOVER,
                member=member,
                node=node,
            )
        )
    return FaultPlan(
        events=tuple(events), seed=seed, name=f"crash-storm-{crashes}x-s{seed}"
    )


def plan_from_events(events: Iterable[FaultEvent], seed: int = 0, name: str = "") -> FaultPlan:
    """Convenience constructor mirroring :meth:`FaultPlan.from_dict`."""
    return FaultPlan(events=tuple(events), seed=seed, name=name)


__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "HDFS_REPLICA_LOSS",
    "NODE_CRASH",
    "NODE_DECOMMISSION",
    "NODE_JOIN",
    "NODE_RECOVER",
    "OFS_SERVER_ADD",
    "OFS_SERVER_LOSS",
    "OFS_SERVER_RECOVER",
    "OFS_SERVER_REMOVE",
    "PLAN_SCHEMA",
    "SCALE_KINDS",
    "TASK_FAILURE",
    "crash_storm_plan",
    "default_resilience_plan",
    "plan_from_events",
]
