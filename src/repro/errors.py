"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with one except clause while still
letting programming errors (TypeError, etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A cluster/Hadoop/storage configuration is inconsistent or unusable."""


class CapacityError(ReproError):
    """A storage system cannot hold the requested data.

    The paper hits exactly this: up-HDFS (91 GB local disks) "cannot process
    the jobs with input data size greater than 80GB".
    """


class SchedulingError(ReproError):
    """A job could not be scheduled (unknown cluster, closed tracker, ...)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class RunnerError(ReproError):
    """A runner cell failed after exhausting its retries, or the runner
    was configured inconsistently."""


class TraceError(ReproError):
    """A workload trace is malformed or internally inconsistent."""


class ServiceError(ReproError):
    """A service wire payload (job submission, NDJSON batch, checkpoint
    snapshot) is malformed, or the deployment daemon was asked for
    something it cannot do (e.g. restoring from a missing checkpoint)."""


class FaultError(ReproError):
    """An event plan is malformed, or an injected fault put the modeled
    system into a state it cannot serve (e.g. every replica of a job's
    data lost, or a job exhausting its task attempts)."""


class ElasticError(ReproError):
    """An elastic control — autoscaler bounds, brownout watermarks, a
    chaos scenario or its parameters — is invalid."""


class CheckpointCorruptError(ServiceError):
    """Every on-disk checkpoint snapshot is truncated or corrupt.

    Subclasses :class:`ServiceError` so existing ``except ServiceError``
    handlers keep working; raised only after the store has tried (and
    failed) to fall back to every retained snapshot generation."""
