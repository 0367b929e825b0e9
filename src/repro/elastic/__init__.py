"""Elastic cluster membership, degradation-aware admission, chaos harness.

Membership changes — joins, graceful decommissions, OFS array resizes —
are scale events in the one event plan, :class:`~repro.faults.FaultPlan`
(docs/FAULTS.md); this package holds what reacts to them and drives
them (see docs/ELASTIC.md):

* :class:`ThresholdAutoscaler` — a deterministic reactive controller
  that joins/drains nodes from queue-depth and utilization signals;
* :class:`BrownoutConfig` — watermarks that map healthy-capacity
  fraction to ``ok``/``degraded``/``browned_out`` admission behaviour;
* :mod:`repro.elastic.chaos` — seeded churn scenarios with hard
  no-job-lost/no-double-completion invariants, and
  :func:`default_elastic_plan`, the reference churn schedule.

Identical plan + seed replay byte-identically, and an empty plan leaves
every result byte-identical to a run with no plan at all.
"""

from repro.elastic.autoscale import Autoscaler, ThresholdAutoscaler
from repro.elastic.chaos import (
    CHAOS_SCENARIOS,
    ChaosReport,
    ChaosScenario,
    cascading_loss,
    check_invariants,
    default_elastic_plan,
    flapping_node,
    kill_during_decommission,
    run_chaos,
    thundering_herd,
)
from repro.elastic.degrade import (
    DEFAULT_BROWNOUT,
    HEALTH_BROWNED_OUT,
    HEALTH_DEGRADED,
    HEALTH_LEVELS,
    HEALTH_OK,
    BrownoutConfig,
)

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosReport",
    "ChaosScenario",
    "Autoscaler",
    "BrownoutConfig",
    "DEFAULT_BROWNOUT",
    "HEALTH_BROWNED_OUT",
    "HEALTH_DEGRADED",
    "HEALTH_LEVELS",
    "HEALTH_OK",
    "ThresholdAutoscaler",
    "cascading_loss",
    "check_invariants",
    "default_elastic_plan",
    "flapping_node",
    "kill_during_decommission",
    "run_chaos",
    "thundering_herd",
]
