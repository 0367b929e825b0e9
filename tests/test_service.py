"""The always-on deployment daemon (repro.service; see docs/SERVICE.md).

Four invariants pin the design:

* **determinism** — a trace streamed through the service as NDJSON
  produces byte-identical ``JobResult`` lists to a batch
  ``Deployment.run_trace`` of the same jobs;
* **durability** — kill the service mid-run, restore from its
  checkpoint, drain: no job lost, none double-counted, results still
  byte-identical;
* **backpressure** — admission beyond the configured bounds yields
  explicit per-job rejections with machine-readable reasons and
  matching metrics counters, never silent drops;
* **wire hygiene** — malformed NDJSON is reported per line and rejects
  the whole batch; corrupt checkpoints fail loudly.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.api import (
    JobStatus,
    JobSubmission,
    ServiceState,
    validate_ndjson,
)
from repro.core.architectures import hybrid
from repro.core.deployment import Deployment
from repro.errors import CheckpointCorruptError, ServiceError
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    CheckpointStore,
    REASON_DUPLICATE,
    REASON_MEMBER_FULL,
    REASON_SERVICE_FULL,
    ReproService,
    ServiceClient,
    serve,
)
from repro.service import server as server_module
from repro.service.server import ReproHTTPServer
from repro.units import GB, MB
from repro.workload.fb2009 import generate_fb2009


def make_trace(num_jobs: int = 30, seed: int = 2009):
    duration = 86400.0 * num_jobs / 6000.0
    return generate_fb2009(
        num_jobs=num_jobs, seed=seed, duration=duration
    ).shrink(5.0)


def submissions_for(trace):
    return [JobSubmission.from_tracejob(job) for job in trace.jobs]


def ndjson_for(trace) -> str:
    return "".join(
        json.dumps(s.to_wire(), sort_keys=True) + "\n"
        for s in submissions_for(trace)
    )


def results_bytes(results) -> str:
    return json.dumps([dataclasses.asdict(r) for r in results], sort_keys=True)


class TestWireModels:
    def test_submission_round_trip(self):
        sub = JobSubmission(job_id="j1", input_bytes=2 * GB,
                            shuffle_bytes=1 * GB, arrival_time=3.5)
        assert JobSubmission.from_wire(sub.to_wire()) == sub

    def test_unknown_wire_field_rejected(self):
        wire = JobSubmission(job_id="j1", input_bytes=1).to_wire()
        wire["surprise"] = 1
        with pytest.raises(ServiceError, match="surprise"):
            JobSubmission.from_wire(wire)

    def test_wire_version_skew_rejected(self):
        wire = JobSubmission(job_id="j1", input_bytes=1).to_wire()
        wire["version"] = 99
        with pytest.raises(ServiceError, match="version"):
            JobSubmission.from_wire(wire)

    def test_validate_ndjson_reports_bad_lines(self):
        text = "\n".join([
            json.dumps(JobSubmission(job_id="a", input_bytes=1).to_wire()),
            "{not json",
            json.dumps({"job_id": "b"}),  # missing input_bytes
            "",
            json.dumps(JobSubmission(job_id="c", input_bytes=2).to_wire()),
        ])
        report = validate_ndjson(text)
        assert not report.ok
        assert [lineno for lineno, _ in report.errors] == [2, 3]
        # Valid lines are still parsed so callers can show what would load.
        assert [s.job_id for s in report.submissions] == ["a", "c"]

    def test_validate_ndjson_flags_duplicates(self):
        line = json.dumps(JobSubmission(job_id="a", input_bytes=1).to_wire())
        report = validate_ndjson(line + "\n" + line + "\n")
        assert not report.ok
        assert "duplicate" in report.errors[0][1]

    def test_service_state_round_trip(self):
        state = ServiceState(
            architecture="Hybrid", register=True, clock=12.5,
            accepted=[JobSubmission(job_id="a", input_bytes=1)],
            finished=["a"], counters={"accepted": 1.0},
            max_pending_per_member=4, max_total_pending=None,
        )
        assert ServiceState.from_wire(state.to_wire()) == state

    @pytest.mark.parametrize(
        "value", ["x", [1], True, -1, float("nan"), float("inf"), None]
    )
    def test_service_state_rejects_bad_counter(self, value):
        state = ServiceState(
            architecture="Hybrid", register=False, clock=0.0,
            accepted=[], finished=[], counters={},
        )
        wire = state.to_wire()
        wire["counters"] = {"accepted": value}
        with pytest.raises(ServiceError, match="counter 'accepted'"):
            ServiceState.from_wire(wire)


class TestDeterminismPin:
    """Streamed admission == batch run_trace, byte for byte."""

    def test_ndjson_stream_matches_run_trace(self):
        trace = make_trace(30)
        reference = Deployment(hybrid()).run_trace(trace.to_jobspecs())

        service = ReproService("Hybrid")
        statuses, report = service.submit_ndjson(ndjson_for(trace))
        assert report.ok and all(s.accepted for s in statuses)
        service.drain()

        assert results_bytes(service.results) == results_bytes(reference)

    def test_chunked_stream_with_interleaved_advance_matches(self):
        """Admission interleaved with clock advances — the service's
        actual operating mode — still reproduces the batch schedule."""
        trace = make_trace(30)
        reference = Deployment(hybrid()).run_trace(trace.to_jobspecs())

        service = ReproService("Hybrid")
        subs = submissions_for(trace)
        for start in range(0, len(subs), 7):
            for sub in subs[start:start + 7]:
                assert service.submit(sub).accepted
            service.advance_until(min(s.arrival_time for s in subs))
        service.drain()

        assert results_bytes(service.results) == results_bytes(reference)


class TestLifecycle:
    """Stream 50 jobs, kill mid-run, restore, drain: nothing lost."""

    def test_kill_restore_drain(self, tmp_path):
        trace = make_trace(50)
        reference = Deployment(hybrid()).run_trace(trace.to_jobspecs())
        path = str(tmp_path / "state.json")

        service = ReproService("Hybrid", checkpoint_path=path)
        subs = submissions_for(trace)
        for start in range(0, len(subs), 10):
            chunk = "".join(
                json.dumps(s.to_wire()) + "\n" for s in subs[start:start + 10]
            )
            statuses, report = service.submit_ndjson(chunk)
            assert report.ok and all(s.accepted for s in statuses)
        service.advance_until(100.0)
        mid_results = len(service.results)
        assert 0 < mid_results < 50
        del service  # the crash: in-memory state is gone

        restored = ReproService.restore(path)
        summary = restored.drain()
        assert summary["accepted"] == 50
        assert summary["finished"] == 50
        assert summary["pending"] == 0

        job_ids = [r.job_id for r in restored.results]
        assert len(job_ids) == len(set(job_ids)) == 50  # none double-counted
        assert results_bytes(restored.results) == results_bytes(reference)

    def test_metrics_totals_match_accounting(self, tmp_path):
        trace = make_trace(20)
        service = ReproService(
            "Hybrid", checkpoint_path=str(tmp_path / "s.json")
        )
        service.submit_ndjson(ndjson_for(trace))
        summary = service.drain()
        dump = service.metrics_dump()
        assert dump["service"]["accepted"] == summary["accepted"] == 20
        assert dump["service"]["finished"] == summary["finished"] == 20
        assert dump["service"]["rejected"] == 0
        assert dump["service"]["pending"] == 0
        # The simulation plane stays attached: same deployment counters
        # a batch replay would produce (fault plane included).
        assert dump["faults"]["jobs_failed"] == summary["failed"]
        assert "metrics" in dump

    def test_restore_preserves_admission_counters(self, tmp_path):
        path = str(tmp_path / "state.json")
        service = ReproService("Hybrid", checkpoint_path=path)
        service.submit(JobSubmission(job_id="a", input_bytes=1 * GB))
        service.submit(JobSubmission(job_id="a", input_bytes=1 * GB))  # dup
        service.checkpoint()

        restored = ReproService.restore(path)
        dump = restored.metrics_dump()
        assert dump["service"]["accepted"] == 1
        assert dump["service"]["rejected"] == 1

    def test_restore_keeps_per_reason_rejection_counters(self, tmp_path):
        path = str(tmp_path / "state.json")
        service = ReproService("Hybrid", checkpoint_path=path)
        service.submit(JobSubmission(job_id="a", input_bytes=1 * GB))
        service.submit(JobSubmission(job_id="a", input_bytes=1 * GB))  # dup
        service.checkpoint()
        live = service.metrics_dump()["metrics"]
        assert live[f"service.admission.rejected.{REASON_DUPLICATE}"] == 1

        restored = ReproService.restore(path)
        dump = restored.metrics_dump()
        name = f"service.admission.rejected.{REASON_DUPLICATE}"
        assert dump["metrics"][name] == 1
        # The partition invariant holds after restore too.
        per_reason = sum(
            value
            for key, value in dump["metrics"].items()
            if key.startswith("service.admission.rejected.")
        )
        assert per_reason == dump["service"]["rejected"] == 1
        assert restored.state().counters == service.state().counters

    def test_restore_without_counters_counts_the_log(self, tmp_path):
        path = tmp_path / "state.json"
        service = ReproService("Hybrid", checkpoint_path=str(path))
        service.submit(JobSubmission(job_id="a", input_bytes=1 * GB))
        service.checkpoint()
        wire = json.loads(path.read_text())
        del wire["counters"]  # optional on the wire
        path.write_text(json.dumps(wire))

        restored = ReproService.restore(str(path))
        assert restored.metrics_dump()["service"]["accepted"] == 1
        assert restored.health()["accepted"] == 1
        assert restored.drain()["accepted"] == 1

    def test_restore_missing_checkpoint_fails_loudly(self, tmp_path):
        with pytest.raises(ServiceError, match="no checkpoint"):
            ReproService.restore(str(tmp_path / "nope.json"))

    def test_corrupt_checkpoint_fails_loudly(self, tmp_path):
        # With no intact generation to fall back to, load raises the
        # typed error (still a ServiceError for old callers).
        path = tmp_path / "state.json"
        path.write_text("{torn write")
        with pytest.raises(CheckpointCorruptError, match="corrupt"):
            CheckpointStore(path).load()

    def test_checkpoint_schema_violation_fails_loudly(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ServiceError):
            CheckpointStore(path).load()


class TestBackpressure:
    """Explicit 429-style rejection, never a silent drop."""

    def test_rejections_are_explicit_and_counted(self):
        trace = make_trace(30)
        service = ReproService(
            "Hybrid",
            policy=AdmissionPolicy(max_pending_per_member=3,
                                   max_total_pending=5),
        )
        statuses, report = service.submit_ndjson(ndjson_for(trace))
        assert report.ok
        assert len(statuses) == 30  # every job answered, none dropped
        accepted = [s for s in statuses if s.accepted]
        rejected = [s for s in statuses if not s.accepted]
        assert accepted and rejected
        assert all(
            s.reason in (REASON_MEMBER_FULL, REASON_SERVICE_FULL)
            for s in rejected
        )
        dump = service.metrics_dump()
        assert dump["service"]["accepted"] == len(accepted)
        assert dump["service"]["rejected"] == len(rejected)

    def test_draining_frees_capacity_for_resubmission(self):
        service = ReproService(
            "Hybrid", policy=AdmissionPolicy(max_total_pending=2)
        )
        subs = [
            JobSubmission(job_id=f"j{i}", input_bytes=64 * MB)
            for i in range(3)
        ]
        first = [service.submit(s) for s in subs]
        assert [s.accepted for s in first] == [True, True, False]
        assert first[2].reason == REASON_SERVICE_FULL
        service.drain()
        assert service.submit(subs[2]).accepted  # capacity credited back

    def test_duplicate_job_id_rejected(self):
        service = ReproService("Hybrid")
        sub = JobSubmission(job_id="same", input_bytes=1 * GB)
        assert service.submit(sub).accepted
        status = service.submit(sub)
        assert not status.accepted
        assert status.reason == REASON_DUPLICATE

    def test_malformed_batch_admits_nothing(self):
        service = ReproService("Hybrid")
        good = json.dumps(JobSubmission(job_id="g", input_bytes=1).to_wire())
        statuses, report = service.submit_ndjson(good + "\n{bad\n")
        assert not report.ok
        assert statuses == []
        assert service.job_status("g") is None  # no partial admission

    def test_admission_controller_underflow_is_an_error(self):
        controller = AdmissionController(AdmissionPolicy(), members=2)
        with pytest.raises(ServiceError, match="release without matching"):
            controller.release(0)


class TestAdmissionEdges:
    """NDJSON wire edges: mid-stream corruption never partially admits,
    and rejection counters reconcile with the instruments."""

    def test_malformed_mid_stream_admits_nothing(self):
        trace = make_trace(12)
        lines = ndjson_for(trace).splitlines()
        lines.insert(6, '{"job_id": "torn", "input_bytes": ')  # truncated
        service = ReproService("Hybrid")
        statuses, report = service.submit_ndjson("\n".join(lines) + "\n")
        assert not report.ok
        assert statuses == []
        assert [lineno for lineno, _ in report.errors] == [7]
        # Not even the six well-formed lines *before* the torn one got in.
        for sub in submissions_for(trace):
            assert service.job_status(sub.job_id) is None
        dump = service.metrics_dump()
        assert dump["service"]["accepted"] == 0
        assert dump["service"]["pending"] == 0

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize("field", [
        "input_bytes", "shuffle_bytes", "output_bytes",
        "arrival_time", "map_cpu_per_mb", "reduce_cpu_per_mb",
    ])
    def test_non_finite_field_rejects_batch(self, field, value):
        """``json.loads`` accepts NaN/Infinity; neither may reach the
        event queue, and the whole batch is refused like a torn line."""
        good = json.dumps(JobSubmission(job_id="g", input_bytes=1).to_wire())
        wire = JobSubmission(job_id="bad", input_bytes=1).to_wire()
        wire[field] = float(value.replace("Infinity", "inf"))
        text = good + "\n" + json.dumps(wire) + "\n"
        assert value in text
        report = validate_ndjson(text)
        assert [lineno for lineno, _ in report.errors] == [2]
        assert field in report.errors[0][1]
        service = ReproService("Hybrid")
        statuses, report = service.submit_ndjson(text)
        assert not report.ok
        assert statuses == []
        assert service.job_status("g") is None
        assert service.deployment.sim.pending_events == 0

    def test_rejection_counters_reconcile_with_instruments(self):
        service = ReproService(
            "Hybrid", policy=AdmissionPolicy(max_total_pending=5)
        )
        statuses, report = service.submit_ndjson(ndjson_for(make_trace(30)))
        assert report.ok
        rejected = [s for s in statuses if not s.accepted]
        assert rejected  # the 30-job batch overflows 5 slots
        duplicate = service.submit(
            JobSubmission(job_id=statuses[0].job_id, input_bytes=1 * GB)
        )
        assert duplicate.reason == REASON_DUPLICATE
        dump = service.metrics_dump()
        per_reason = {
            name.rsplit(".", 1)[1]: value
            for name, value in dump["metrics"].items()
            if name.startswith("service.admission.rejected.")
        }
        # The per-reason counters partition the total, which matches
        # both the instruments and the per-job statuses.
        assert sum(per_reason.values()) == dump["service"]["rejected"]
        assert dump["service"]["rejected"] == service.instruments.rejected_total
        assert dump["service"]["rejected"] == len(rejected) + 1
        assert per_reason[REASON_DUPLICATE] == 1


class CountingServer(ReproHTTPServer):
    """Counts the TCP connections it accepts."""

    def __init__(self, *args, **kwargs):
        self.connections = 0
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)


def start_server(service, port=0):
    httpd = CountingServer(service, ("127.0.0.1", port))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd, thread


def stop_server(httpd, thread):
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestHTTPSurface:
    """End-to-end over a real socket (ephemeral port)."""

    @pytest.fixture()
    def server(self, tmp_path):
        service = ReproService(
            "Hybrid",
            policy=AdmissionPolicy(max_total_pending=40),
            checkpoint_path=str(tmp_path / "state.json"),
        )
        httpd, thread = start_server(service)
        try:
            yield httpd
        finally:
            stop_server(httpd, thread)

    def test_full_round_trip(self, server):
        client = ServiceClient(server.url)
        assert client.health()["status"] == "ok"

        status = client.submit(JobSubmission(job_id="one", input_bytes=1 * GB))
        assert isinstance(status, JobStatus) and status.accepted

        trace = make_trace(10)
        statuses = client.submit_ndjson(ndjson_for(trace))
        assert len(statuses) == 10 and all(s.accepted for s in statuses)

        assert client.job_status("one").state == "accepted"
        summary = client.drain()
        assert summary["finished"] == summary["accepted"] == 11
        assert client.job_status("one").state == "finished"
        assert client.job_status("one").result["execution_time"] > 0
        assert client.job_status("ghost") is None

        dump = client.metrics()
        assert dump["service"]["finished"] == 11

    def test_schema_error_is_http_400(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError, match="schema"):
            client.submit_ndjson('{"job_id": "x"}\n')  # missing input_bytes

    def test_backpressure_is_http_429(self, server):
        client = ServiceClient(server.url)
        # Saturate the 40-slot service; the overflow batch is all-rejected.
        big = make_trace(60, seed=7)
        statuses = client.submit_ndjson(ndjson_for(big))
        assert sum(1 for s in statuses if s.accepted) == 40
        overflow = client.submit(
            JobSubmission(job_id="over", input_bytes=1 * GB)
        )
        assert not overflow.accepted
        assert overflow.reason == REASON_SERVICE_FULL

    def test_backpressure_sets_retry_after(self, server):
        client = ServiceClient(server.url)
        client.submit_ndjson(ndjson_for(make_trace(60, seed=11)))  # saturate
        request = urllib.request.Request(
            server.url + "/jobs",
            data=json.dumps(
                JobSubmission(job_id="over2", input_bytes=1 * GB).to_wire()
            ).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 429
        assert info.value.headers["Retry-After"] == "1"
        info.value.close()

    def test_advance_endpoint_validates(self, server):
        client = ServiceClient(server.url)
        assert client.advance(5.0)["clock"] == 5.0
        status, body = client._request(
            "POST", "/advance", b'{"until": "soon"}'
        )
        assert status == 400
        for bad in (b"NaN", b"Infinity", b"-Infinity"):
            status, body = client._request(
                "POST", "/advance", b'{"until": ' + bad + b"}"
            )
            assert status == 400, bad
        # An until already in the past leaves the clock where it is.
        assert client.advance(2.0)["clock"] == 5.0

    def test_unknown_route_is_404(self, server):
        status, _ = ServiceClient(server.url)._request("GET", "/nope")
        assert status == 404

    def test_keep_alive_requests_do_not_stall(self, server):
        # Each response is two writes (headers, body); under Nagle's
        # algorithm the body would wait ~40 ms for the delayed ACK, so
        # 50 requests on one connection would take about 2 s.
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            start = time.perf_counter()
            for i in range(50):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                if i == 0:
                    sock = conn.sock
            elapsed = time.perf_counter() - start
            assert conn.sock is sock  # one connection throughout
        finally:
            conn.close()
        assert elapsed < 1.0, f"50 keep-alive requests took {elapsed:.2f} s"

    def test_a_pass_is_served_over_one_connection(self, server):
        subs = submissions_for(make_trace(10))
        with ServiceClient(server.url) as client:
            for start in (0, 5):  # two rounds of 9 requests
                chunk = subs[start:start + 5]
                text = "".join(json.dumps(s.to_wire()) + "\n" for s in chunk)
                assert all(s.accepted for s in client.submit_ndjson(text))
                client.advance(chunk[-1].arrival_time)
                for sub in chunk:
                    assert client.job_status(sub.job_id) is not None
                client.metrics()
                client.health()
            for _ in range(31):
                assert client.job_status("ghost") is None
            assert client.drain()["finished"] == 10  # the 50th request
        assert server.connections == 1

    def test_error_payloads_are_data_on_a_reused_connection(self, server):
        with ServiceClient(server.url) as client:
            assert client.health()["status"] == "ok"
            status, body = client._request(
                "POST", "/advance", b'{"until": "soon"}'
            )
            assert status == 400 and "until" in json.loads(body)["error"]
            with pytest.raises(ServiceError, match="schema"):
                client.submit_ndjson('{"job_id": "x"}\n')
            status, body = client._request(
                "POST", "/jobs", b"\xff\n", "application/x-ndjson"
            )
            assert status == 400 and "UTF-8" in json.loads(body)["error"]
            client.submit_ndjson(ndjson_for(make_trace(60, seed=7)))
            overflow = client.submit(
                JobSubmission(job_id="over", input_bytes=1 * GB)
            )
            assert overflow.reason == REASON_SERVICE_FULL
            assert client.job_status("ghost") is None
            assert client.health()["accepted"] == 40
        assert server.connections == 1

    def test_unread_bodies_do_not_frame_the_next_request(
        self, server, monkeypatch
    ):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            # A 404 route still reads its body; the connection stays up.
            conn.request("POST", "/nope", b"x" * 100)
            response = conn.getresponse()
            assert response.status == 404 and not response.will_close
            response.read()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
            # A body the server will not read closes the connection.
            monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 16)
            conn.request("POST", "/jobs", b"x" * 64)
            response = conn.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            response.read()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            conn.close()
        assert server.connections == 2
        with ServiceClient(server.url) as client:
            status, _ = client._request("POST", "/nope", b"y" * 8)
            assert status == 404
            status, _ = client._request("POST", "/drain", b"z" * 64)
            assert status == 413
            assert client.health()["status"] == "ok"
        assert server.connections == 4

    def test_chunked_body_is_refused_and_closed(self, server):
        with socket.create_connection(server.server_address, 10) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head = reply.split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 411")
        assert b"Connection: close" in head
        assert reply.count(b"HTTP/1.1") == 1  # the chunks were not parsed

    def test_a_stopped_server_answers_no_request(self):
        httpd, thread = start_server(ReproService("Hybrid"))
        client = ServiceClient(httpd.url, timeout=10)
        assert client.health()["status"] == "ok"
        stop_server(httpd, thread)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        client.close()

    def test_a_restarted_server_is_reconnected_once(self):
        httpd, thread = start_server(ReproService("Hybrid"))
        port = httpd.server_address[1]
        with ServiceClient(httpd.url, timeout=10) as client:
            client.submit(JobSubmission(job_id="j", input_bytes=1 * GB))
            stop_server(httpd, thread)
            httpd, thread = start_server(ReproService("Hybrid"), port)
            try:
                assert client.health()["accepted"] == 0
                assert client.health()["accepted"] == 0
                assert httpd.connections == 1
            finally:
                stop_server(httpd, thread)

    def test_a_fresh_connection_is_not_retried(self, monkeypatch):
        connects = []
        connect = http.client.HTTPConnection.connect

        def counting_connect(conn):
            connects.append(conn.port)
            connect(conn)

        monkeypatch.setattr(http.client.HTTPConnection, "connect",
                            counting_connect)
        port = closed_port()
        with pytest.raises(ServiceError, match="cannot reach"):
            ServiceClient(f"http://127.0.0.1:{port}").health()
        assert connects == [port]

    def test_a_reply_cut_off_midway_is_not_retried(self):
        # A raw listener: answers the first request whole, sends only
        # the first bytes of the second, then closes the connection.
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)

        def serve_one_connection():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                for reply in (b"2\r\n\r\n{}", b"10\r\n\r\n{\"a"):
                    while reader.readline() not in (b"\r\n", b""):
                        pass
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: " + reply)

        thread = threading.Thread(target=serve_one_connection, daemon=True)
        thread.start()
        port = listener.getsockname()[1]
        try:
            with ServiceClient(f"http://127.0.0.1:{port}", timeout=10) as client:
                assert client.health() == {}
                with pytest.raises(ServiceError, match="cannot reach"):
                    client.health()
            thread.join(timeout=5)
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):  # no second connection
                listener.accept()
        finally:
            listener.close()

    def test_service_urls_are_checked_without_connecting(self):
        for bad in ("localhost:8008", "ftp://host/", "http://host:port"):
            with pytest.raises(ServiceError, match="URL"):
                ServiceClient(bad)
        client = ServiceClient(f"http://127.0.0.1:{closed_port()}/")
        client.close()  # nothing was opened

    def test_shutdown_checkpoints_and_stops(self, tmp_path):
        service = ReproService(
            "Hybrid", checkpoint_path=str(tmp_path / "state.json")
        )
        httpd = serve(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(httpd.url)
        client.submit(JobSubmission(job_id="j", input_bytes=1 * GB))
        reply = client.shutdown()
        assert reply["checkpoint"] == str(tmp_path / "state.json")
        thread.join(timeout=5)
        assert not thread.is_alive()
        httpd.server_close()
        restored = ReproService.restore(str(tmp_path / "state.json"))
        assert restored.drain()["finished"] == 1
