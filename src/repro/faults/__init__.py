"""Deterministic fault and membership events (see docs/FAULTS.md).

A :class:`FaultPlan` is a seeded, serializable schedule of
infrastructure faults and elastic membership changes; a
:class:`FaultInjector` replays it against a deployment on the
simulation clock.  Identical plan + seed replay byte-identically, and an
empty plan leaves every healthy result byte-identical to a run with no
plan at all.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_KINDS,
    HDFS_REPLICA_LOSS,
    NODE_CRASH,
    NODE_DECOMMISSION,
    NODE_JOIN,
    NODE_RECOVER,
    OFS_SERVER_ADD,
    OFS_SERVER_LOSS,
    OFS_SERVER_RECOVER,
    OFS_SERVER_REMOVE,
    PLAN_SCHEMA,
    SCALE_KINDS,
    TASK_FAILURE,
    FaultEvent,
    FaultPlan,
    crash_storm_plan,
    default_resilience_plan,
    plan_from_events,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
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
