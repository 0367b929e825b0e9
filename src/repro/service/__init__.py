"""repro.service: the always-on deployment daemon.

Promotes :class:`~repro.core.deployment.Deployment` from batch
``run_trace`` replays to a long-running service with streaming NDJSON
job admission, live Algorithm-1 routing, bounded-queue backpressure,
journaled checkpoint/restore (recovery by deterministic replay), and a
stdlib HTTP surface — see docs/SERVICE.md.

Layering::

    server   HTTP endpoints (http.server, stdlib only)
    api      ReproService engine + ServiceClient
    admission / checkpoint / models   bounded queues, journal, records

The wire schemas (:class:`JobSubmission`, :class:`JobStatus`,
:class:`ServiceState`, :func:`validate_ndjson`) live in
:mod:`repro.core.api` — the package's typed public facade — and are
re-exported here.

Quickstart::

    from repro.service import ReproService
    from repro.core.api import JobSubmission

    service = ReproService("Hybrid")
    service.submit(JobSubmission(job_id="j1", input_bytes=2**30))
    print(service.drain())          # {'accepted': 1, 'finished': 1, ...}

Or over HTTP (``python -m repro serve`` / ``repro submit``)::

    from repro.service import serve
    server = serve(service, port=0)
    print(server.url)               # POST /jobs, GET /metrics, ...
    server.serve_forever()
"""

from repro.core.api import (
    JobStatus,
    JobSubmission,
    NDJSONReport,
    ServiceState,
    WIRE_VERSION,
    result_to_wire,
    validate_ndjson,
)
from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    REASON_DUPLICATE,
    REASON_MEMBER_FULL,
    REASON_SERVICE_FULL,
    REASON_SHED_BROWNED_OUT,
    REASON_SHED_DEGRADED,
)
from repro.service.api import ReproService, ServiceClient
from repro.service.checkpoint import CheckpointStore
from repro.service.models import JobRecord
from repro.service.server import ReproHTTPServer, serve

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "CheckpointStore",
    "JobRecord",
    "JobStatus",
    "JobSubmission",
    "NDJSONReport",
    "REASON_DUPLICATE",
    "REASON_MEMBER_FULL",
    "REASON_SERVICE_FULL",
    "REASON_SHED_BROWNED_OUT",
    "REASON_SHED_DEGRADED",
    "ReproHTTPServer",
    "ReproService",
    "ServiceClient",
    "ServiceState",
    "WIRE_VERSION",
    "result_to_wire",
    "serve",
    "validate_ndjson",
]
