"""Cell execution: the function worker processes actually run.

``execute_cell`` maps a :class:`~repro.runner.spec.CellSpec` to a plain
JSON-able *payload* dict — the exact object the
:class:`~repro.runner.cache.ResultCache` stores — so a freshly simulated
result and a cache hit decode through the same code path and are
byte-identical by construction.

Payload schema (``schema`` matches :data:`~repro.runner.spec.CACHE_SCHEMA`)::

    {"schema": 1, "kind": "isolated", "status": "ok",
     "result": {<JobResult fields>}, "error": ""}
    {"schema": 1, "kind": "isolated", "status": "infeasible",
     "result": null, "error": "<CapacityError message>"}
    {"schema": 1, "kind": "replay", "status": "ok",
     "result": [{<JobResult fields>}, ...], "error": ""}

Infeasible cells (the paper's up-HDFS >80 GB holes) are *successful*
outcomes: the hole is a result, cached like any other, never retried.

The module must stay import-light and top-level so the worker function
pickles by reference under every ``multiprocessing`` start method.

``probe`` cells are a test-only kind that never touches the simulator:
the ``probe`` field encodes a behaviour (``ok``, ``raise``,
``flaky:<path>:<n>`` — fail until a file-based counter reaches ``n`` —
or ``sleep:<seconds>``) used by the fault-injection tests.
"""

from __future__ import annotations

import os
import time
from dataclasses import fields
from typing import Any, Dict, List, Optional

from repro.errors import CapacityError, ConfigurationError
from repro.mapreduce.job import JobResult
from repro.runner.spec import (
    CACHE_SCHEMA,
    CellSpec,
    KIND_ISOLATED,
    KIND_PROBE,
    KIND_REPLAY,
)

#: JobResult is a flat dataclass of floats/strings; serialise by field.
_JOB_RESULT_FIELDS = tuple(f.name for f in fields(JobResult))


def job_result_to_dict(result: JobResult) -> Dict[str, Any]:
    return {name: getattr(result, name) for name in _JOB_RESULT_FIELDS}


def job_result_from_dict(data: Dict[str, Any]) -> JobResult:
    # Tolerant of older payloads that predate newer JobResult fields
    # (e.g. ``failed``): missing keys fall back to dataclass defaults.
    return JobResult(**{name: data[name] for name in _JOB_RESULT_FIELDS if name in data})


def cell_job_id(app_name: str, input_bytes: float, seed: int) -> str:
    """Job id for an isolated cell.  Seed 0 keeps the legacy id (and so
    the legacy jitter stream — default results are unchanged); any other
    seed derives an independent, order-free jitter stream."""
    base = f"{app_name}-{int(input_bytes)}"
    return base if seed == 0 else f"{base}-s{seed}"


def _ok(kind: str, result: Any, **extra: Any) -> Dict[str, Any]:
    return {"schema": CACHE_SCHEMA, "kind": kind, "status": "ok",
            "result": result, "error": "", **extra}


def _infeasible(
    kind: str, error: str, error_type: str = "CapacityError", cell: str = ""
) -> Dict[str, Any]:
    """An explicit cached hole, recording *why* the cell is infeasible
    (exception type + message + cell description) so ``repro cache`` can
    explain holes without re-running anything."""
    return {"schema": CACHE_SCHEMA, "kind": kind, "status": "infeasible",
            "result": None, "error": error, "error_type": error_type,
            "cell": cell}


def _profile_summary(tracer: Any, label: str) -> Dict[str, Any]:
    """Compact profiler digest for a cacheable payload (see
    :meth:`repro.profiler.RunProfile.to_summary`)."""
    from repro.profiler import build_run_profile

    return build_run_profile(tracer, label=label).to_summary()


def _execute_isolated(cell: CellSpec) -> Dict[str, Any]:
    # Imported here so probe-only use (tests) never pays for the model.
    from repro.core.deployment import Deployment

    assert cell.architecture is not None and cell.app is not None
    tracer = None
    if cell.profile:
        from repro.telemetry.tracer import Tracer

        tracer = Tracer()
    deployment = Deployment(
        cell.architecture,
        calibration=cell.calibration,
        tracer=tracer,
        fault_plan=cell.fault_plan,
    )
    job = cell.app.make_job(
        cell.input_bytes,
        job_id=cell_job_id(cell.app.name, cell.input_bytes, cell.seed),
    )
    try:
        result = deployment.run_job(job, register_dataset=cell.register_dataset)
    except CapacityError as exc:
        return _infeasible(
            KIND_ISOLATED, str(exc), type(exc).__name__, cell.describe()
        )
    extra: Dict[str, Any] = {}
    if tracer is not None:
        extra["profile"] = _profile_summary(tracer, cell.architecture.name)
    return _ok(KIND_ISOLATED, job_result_to_dict(result), **extra)


def _execute_replay(
    cell: CellSpec, tracer: Any = None, metrics: Any = None
) -> Dict[str, Any]:
    from repro.core.deployment import Deployment
    from repro.workload.fb2009 import DAY, generate_fb2009

    assert cell.architecture is not None
    if cell.profile and tracer is None:
        from repro.telemetry.tracer import Tracer

        tracer = Tracer()
    duration = cell.duration
    if duration is None:
        duration = DAY * cell.num_jobs / 6000.0
    trace = generate_fb2009(
        num_jobs=cell.num_jobs, seed=cell.seed, duration=duration
    ).shrink(cell.shrink_factor)
    jobs = trace.to_jobspecs()
    deployment = Deployment(
        cell.architecture,
        calibration=cell.calibration,
        tracer=tracer,
        metrics=metrics,
        fault_plan=cell.fault_plan,
    )
    results = deployment.run_trace(jobs, register_dataset=False)
    # A permanently dead cluster strands jobs with no event to finish
    # them; declare those failed so every trace job has an outcome.
    deployment.fail_unfinished()
    if len(results) != len(jobs):
        raise RuntimeError(
            f"{cell.architecture.name}: {len(results)} of {len(jobs)} "
            "trace jobs completed"
        )
    # The fault summary rides in the payload (extra keys are cache-safe)
    # so resilience reports survive caching and process boundaries; the
    # profile summary rides the same way when the cell asks for one.
    extra: Dict[str, Any] = {}
    if cell.profile and tracer is not None:
        extra["profile"] = _profile_summary(tracer, cell.architecture.name)
    return _ok(
        KIND_REPLAY,
        [job_result_to_dict(r) for r in results],
        faults=deployment.fault_summary(),
        elastic=deployment.elastic_summary(),
        **extra,
    )


def _execute_probe(cell: CellSpec) -> Dict[str, Any]:
    action, _, arg = cell.probe.partition(":")
    if action == "ok":
        return _ok(KIND_PROBE, {"seed": cell.seed})
    if action == "raise":
        raise RuntimeError(f"probe cell failed deliberately ({arg or 'no arg'})")
    if action == "infeasible":
        return _infeasible(
            KIND_PROBE, "probe capacity hole", "CapacityError", cell.describe()
        )
    if action == "flaky":
        # flaky:<path>:<n> — count attempts in a file; fail the first n.
        path, _, times = arg.rpartition(":")
        count = 1
        if os.path.exists(path):
            count = int(open(path).read() or 0) + 1
        with open(path, "w") as handle:
            handle.write(str(count))
        if count <= int(times):
            raise RuntimeError(f"flaky probe attempt {count}/{times}")
        return _ok(KIND_PROBE, {"seed": cell.seed, "attempts": count})
    if action == "sleep":
        time.sleep(float(arg))
        return _ok(KIND_PROBE, {"seed": cell.seed})
    raise ConfigurationError(f"unknown probe behaviour {cell.probe!r}")


def execute_cell(cell: CellSpec) -> Dict[str, Any]:
    """Run one cell to a cacheable payload (the worker entry point).

    :class:`~repro.errors.CapacityError` becomes an ``infeasible``
    payload (an explicit cached hole); every other exception propagates
    and is the pool's problem (retry, then report).
    """
    if cell.kind == KIND_ISOLATED:
        return _execute_isolated(cell)
    if cell.kind == KIND_REPLAY:
        return _execute_replay(cell)
    if cell.kind == KIND_PROBE:
        return _execute_probe(cell)
    raise ConfigurationError(f"unknown cell kind {cell.kind!r}")


def execute_replay_observed(
    cell: CellSpec, tracer: Any = None, metrics: Any = None
) -> Dict[str, Any]:
    """Replay a cell in-process with telemetry observers attached.

    Observers cannot cross process boundaries, so observed replays
    bypass the pool (and the cache — a hit would record nothing).
    Results are byte-identical to unobserved ones: telemetry is a pure
    observer (pinned by tests/test_telemetry.py).
    """
    if cell.kind != KIND_REPLAY:
        raise ConfigurationError("only replay cells support observers")
    return _execute_replay(cell, tracer=tracer, metrics=metrics)


def decode_result(payload: Dict[str, Any]) -> Optional[JobResult]:
    """An isolated payload's JobResult, or None for an infeasible hole."""
    if payload["status"] == "infeasible":
        return None
    return job_result_from_dict(payload["result"])


def decode_replay_results(payload: Dict[str, Any]) -> List[JobResult]:
    """A replay payload's ordered job results."""
    return [job_result_from_dict(d) for d in payload["result"]]


def decode_profile(payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The payload's profiler summary, or None (unprofiled cell, hole,
    or a payload cached before profiling existed)."""
    return payload.get("profile")


__all__ = [
    "cell_job_id",
    "decode_profile",
    "decode_replay_results",
    "decode_result",
    "execute_cell",
    "execute_replay_observed",
    "job_result_from_dict",
    "job_result_to_dict",
]
