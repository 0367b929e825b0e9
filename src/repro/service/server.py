"""Stdlib HTTP surface for the deployment daemon.

Endpoints (see docs/SERVICE.md for schemas and examples):

=========  ==============  ==================================================
method     path            meaning
=========  ==============  ==================================================
``POST``   ``/jobs``       admit one job (JSON object) or a streamed batch
                           (``application/x-ndjson``, one job per line)
``GET``    ``/jobs/<id>``  status of one admitted job
``GET``    ``/metrics``    combined service + simulation metrics dump
``GET``    ``/healthz``    liveness plus clock / backlog summary
``POST``   ``/drain``      run the simulation until all admitted jobs finish
``POST``   ``/advance``    advance the clock to ``{"until": t}``
``POST``   ``/shutdown``   checkpoint and stop the daemon cleanly
``GET``    ``/events``     NDJSON tail of the metrics bus (``?since=N``
                           resumes after frame seq ``N`` — docs/MISSION.md)
``GET``    ``/mission``    the live mission-control dashboard (HTML)
=========  ==============  ==================================================

Status codes: ``202`` admitted, ``429`` backpressure (single job, or a
batch whose every line was rejected — partial-rejection batches return
``200`` with per-line statuses), ``400`` schema errors with per-line
NDJSON diagnostics, ``404`` unknown job or route.

Built on :class:`http.server.ThreadingHTTPServer`; the wrapped
:class:`~repro.service.api.ReproService` serialises state access behind
its own lock, so concurrent clients are safe.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.errors import ServiceError
from repro.service.api import ReproService

#: Largest request body the daemon will read (64 MiB of NDJSON is about
#: half a million jobs — far beyond one admission batch).
MAX_BODY_BYTES = 64 * 1024 * 1024


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the wrapped :class:`ReproService`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    #: A response goes out as two writes (headers, then body).  With
    #: Nagle's algorithm on, the body waits for the client's delayed
    #: ACK of the headers, stalling each keep-alive request ~40 ms.
    disable_nagle_algorithm = True

    @property
    def service(self) -> ReproService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- response helpers -------------------------------------------------

    def _send(self, status: int, body: bytes, content_type: str,
              route: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status == 429:
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body)
        self.service.instruments.observe_request(self.command, route, status)

    def _send_json(self, status: int, payload: Dict[str, Any],
                   route: str) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, "application/json", route)

    def _send_ndjson(self, status: int, lines: list, route: str) -> None:
        body = "".join(
            json.dumps(line, sort_keys=True) + "\n" for line in lines
        ).encode("utf-8")
        self._send(status, body, "application/x-ndjson", route)

    def _read_body(self) -> Optional[str]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self._send_json(
                413,
                {"error": f"body exceeds {MAX_BODY_BYTES} bytes"},
                self.path,
            )
            return None
        return self.rfile.read(length).decode("utf-8") if length else ""

    # -- routing ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(200, self.service.health(), "/healthz")
        elif path == "/metrics":
            self._send_json(200, self.service.metrics_dump(), "/metrics")
        elif path == "/events":
            self._get_events()
        elif path == "/mission":
            self._get_mission()
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            status = self.service.job_status(job_id)
            if status is None:
                self._send_json(
                    404, {"error": f"unknown job {job_id!r}"}, "/jobs/<id>"
                )
            else:
                self._send_json(200, status.to_wire(), "/jobs/<id>")
        else:
            self._send_json(404, {"error": f"no route {path!r}"}, path)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        handler = {
            "/jobs": self._post_jobs,
            "/drain": self._post_drain,
            "/advance": self._post_advance,
            "/shutdown": self._post_shutdown,
        }.get(path)
        if handler is None:
            self._send_json(404, {"error": f"no route {path!r}"}, path)
            return
        body = self._read_body()
        if body is None:
            return
        try:
            handler(body)
        except ServiceError as exc:
            self._send_json(400, {"error": str(exc)}, path)

    # -- endpoints --------------------------------------------------------

    def _get_events(self) -> None:
        """NDJSON tail of the metrics bus.  ``?since=N`` returns only
        frames with ``seq > N``, so a reconnecting tailer resumes from
        the last seq it saw without replaying the whole ring."""
        bus = self.service.bus
        if bus is None:
            self._send_json(
                404,
                {"error": "no metrics bus attached (start with --events)"},
                "/events",
            )
            return
        since = 0
        query = self.path.split("?", 1)[1] if "?" in self.path else ""
        for part in query.split("&"):
            if part.startswith("since="):
                try:
                    since = int(part[len("since="):])
                except ValueError:
                    self._send_json(
                        400,
                        {"error": f"since must be an integer: {part!r}"},
                        "/events",
                    )
                    return
        self._send_ndjson(
            200, [frame.to_wire() for frame in bus.tail(since)], "/events"
        )

    def _get_mission(self) -> None:
        """The live dashboard: self-contained HTML re-rendered on every
        request, with a meta-refresh tag so a browser tab tracks the
        run without any JavaScript."""
        from repro.profiler.dashboard import render_mission

        bus = self.service.bus
        frames = bus.frames() if bus is not None else []
        html = render_mission(
            frames,
            title=f"repro mission control — {self.service.architecture}",
            refresh=2,
        )
        self._send(
            200, html.encode("utf-8"), "text/html; charset=utf-8", "/mission"
        )

    def _post_jobs(self, body: str) -> None:
        content_type = (self.headers.get("Content-Type") or "").lower()
        if "ndjson" in content_type:
            statuses, report = self.service.submit_ndjson(body)
            if not report.ok:
                self._send_ndjson(400, report.error_lines(), "/jobs")
                return
            all_rejected = statuses and all(
                not s.accepted for s in statuses
            )
            self._send_ndjson(
                429 if all_rejected else 200,
                [s.to_wire() for s in statuses],
                "/jobs",
            )
            return
        try:
            payload = json.loads(body) if body else None
        except json.JSONDecodeError as exc:
            raise ServiceError(f"invalid JSON body: {exc.msg}") from exc
        if not isinstance(payload, dict):
            raise ServiceError(
                "POST /jobs needs a JSON object (or an NDJSON batch with "
                "Content-Type: application/x-ndjson)"
            )
        from repro.core.api import JobSubmission

        status = self.service.submit(JobSubmission.from_wire(payload))
        self._send_json(
            202 if status.accepted else 429, status.to_wire(), "/jobs"
        )

    def _post_drain(self, body: str) -> None:
        self._send_json(200, self.service.drain(), "/drain")

    def _post_advance(self, body: str) -> None:
        try:
            payload = json.loads(body) if body else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(f"invalid JSON body: {exc.msg}") from exc
        until = payload.get("until") if isinstance(payload, dict) else None
        if (
            not isinstance(until, (int, float))
            or isinstance(until, bool)
            or not math.isfinite(until)
        ):
            raise ServiceError('POST /advance needs {"until": <finite seconds>}')
        clock = self.service.advance_until(float(until))
        self._send_json(200, {"clock": clock}, "/advance")

    def _post_shutdown(self, body: str) -> None:
        path = self.service.checkpoint()
        self._send_json(
            200, {"status": "shutting down", "checkpoint": path}, "/shutdown"
        )
        # shutdown() must come from another thread: it blocks until
        # serve_forever returns, and this handler *is* a serve thread.
        threading.Thread(
            target=self.server.shutdown, daemon=True  # type: ignore[attr-defined]
        ).start()


class ReproHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`ReproService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service: ReproService,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.verbose = verbose

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(
    service: ReproService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> ReproHTTPServer:
    """Bind a server for ``service`` (``port=0`` picks an ephemeral
    port); the caller runs ``serve_forever()`` — see ``repro serve``."""
    return ReproHTTPServer(service, (host, port), verbose=verbose)


__all__ = ["MAX_BODY_BYTES", "ReproHTTPServer", "ServiceRequestHandler", "serve"]
