"""Mission control: frame schema, pure observation, and the dashboard.

The contracts pinned here:

* **frame schema** — versioned NDJSON envelope round-trips exactly;
  unknown fields and schema versions are rejected loudly; a truncated
  *final* line is tolerated (a live file is expected to end mid-append)
  while interior corruption raises;
* **pure observer** — a daemon run with a :class:`MetricsBus` attached
  produces byte-identical results to a bare run, and so does a
  bus-attached sweep;
* **reconciliation** — the last service frame, ``metrics_dump()``,
  ``health()``, the ``drain()`` summary and the checkpoint counters
  agree key for key, with integer counts — live, restored and under
  brownout;
* **surfaces** — ``GET /events`` tails frames (``?since=N`` resumes),
  ``GET /mission`` and ``repro mission`` emit self-contained HTML
  (no scripts, no external fetches — the profiler-dashboard rule).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.apps import GREP
from repro.core.architectures import out_ofs, up_ofs
from repro.profiler.dashboard import render_mission, write_mission
from repro.runner import PoolRunner, ResultCache, canonical_json, sweep_experiment
from repro.service import (
    REASON_SHED_DEGRADED,
    AdmissionPolicy,
    ReproService,
    serve,
)
from repro.core.api import JobSubmission
from repro.elastic import HEALTH_DEGRADED, BrownoutConfig
from repro.faults import NODE_CRASH, FaultEvent, FaultPlan
from repro.telemetry.bus import (
    FRAME_SCHEMA,
    FrameError,
    KIND_RUNNER,
    KIND_SERVICE,
    MetricsBus,
    MetricsFrame,
    frames_from_text,
    read_frames,
    write_frames,
)
from repro.units import GB
from repro.workload.fb2009 import generate_fb2009


def make_trace(num_jobs: int = 20, seed: int = 2009):
    duration = 86400.0 * num_jobs / 6000.0
    return generate_fb2009(
        num_jobs=num_jobs, seed=seed, duration=duration
    ).shrink(5.0)


def submissions_for(trace):
    return [JobSubmission.from_tracejob(job) for job in trace.jobs]


def results_bytes(results) -> str:
    return json.dumps([dataclasses.asdict(r) for r in results], sort_keys=True)


class TestFrameSchema:
    def test_round_trip(self):
        frame = MetricsFrame(seq=3, kind=KIND_SERVICE, clock=12.5,
                             body={"pending": 2})
        assert MetricsFrame.from_wire(json.loads(frame.to_json())) == frame

    def test_unknown_field_rejected(self):
        wire = MetricsFrame(seq=1, kind="x", clock=0.0).to_wire()
        wire["surprise"] = 1
        with pytest.raises(FrameError, match="surprise"):
            MetricsFrame.from_wire(wire)

    def test_schema_version_skew_rejected(self):
        wire = MetricsFrame(seq=1, kind="x", clock=0.0).to_wire()
        wire["schema"] = FRAME_SCHEMA + 1
        with pytest.raises(FrameError, match="schema"):
            MetricsFrame.from_wire(wire)

    @pytest.mark.parametrize("field,value", [
        ("seq", -1), ("seq", 1.5), ("seq", True),
        ("kind", ""), ("kind", 7),
        ("clock", "noon"), ("clock", True),
        ("body", []),
    ])
    def test_malformed_fields_rejected(self, field, value):
        wire = MetricsFrame(seq=1, kind="x", clock=0.0).to_wire()
        wire[field] = value
        with pytest.raises(FrameError):
            MetricsFrame.from_wire(wire)

    def test_file_round_trip(self, tmp_path):
        frames = [MetricsFrame(seq=i + 1, kind=KIND_RUNNER, clock=float(i),
                               body={"done": i}) for i in range(5)]
        path = write_frames(frames, tmp_path / "frames.ndjson")
        assert read_frames(path) == frames

    def test_truncated_tail_is_tolerated(self, tmp_path):
        frames = [MetricsFrame(seq=1, kind="x", clock=0.0),
                  MetricsFrame(seq=2, kind="x", clock=1.0)]
        path = write_frames(frames, tmp_path / "frames.ndjson")
        text = path.read_text() + '{"schema": 1, "seq": 3, "ki'
        assert frames_from_text(text) == frames

    def test_interior_corruption_raises(self):
        good = MetricsFrame(seq=1, kind="x", clock=0.0).to_json()
        text = good + "\n{nope}\n" + good + "\n"
        with pytest.raises(FrameError, match="line 2"):
            frames_from_text(text)

    def test_bus_assigns_sequences_and_tails(self, tmp_path):
        bus = MetricsBus(tmp_path / "bus.ndjson", keep=3)
        for i in range(5):
            bus.publish(KIND_SERVICE, float(i), {"i": i})
        assert bus.last_seq == 5
        assert [f.seq for f in bus.tail(3)] == [4, 5]
        # The ring is bounded; the file keeps everything.
        assert [f.seq for f in bus.frames()] == [3, 4, 5]
        assert [f.seq for f in read_frames(tmp_path / "bus.ndjson")] == [
            1, 2, 3, 4, 5,
        ]


class TestPureObserver:
    """Attaching a bus never changes simulation results."""

    def test_daemon_run_is_byte_identical_with_bus(self):
        subs = submissions_for(make_trace())
        bare = ReproService("Hybrid")
        bussed = ReproService("Hybrid", bus=MetricsBus())
        for service in (bare, bussed):
            for sub in subs:
                service.submit(sub)
            service.drain()
        assert results_bytes(bare.results) == results_bytes(bussed.results)
        assert bussed.bus.last_seq > 0

    def test_sweep_is_byte_identical_with_bus(self, tmp_path):
        cells = sweep_experiment(
            [up_ofs(), out_ofs()], GREP, [1 * GB, 8 * GB]
        ).cells
        bare = PoolRunner(max_workers=1).run_cells(cells)
        bus = MetricsBus()
        bussed = PoolRunner(
            max_workers=1, cache=ResultCache(tmp_path / "cache"), bus=bus
        ).run_cells(cells)
        assert [canonical_json(o.payload) for o in bare] == [
            canonical_json(o.payload) for o in bussed
        ]
        # One runner frame per completed cell, clocks non-decreasing.
        frames = bus.frames()
        assert len(frames) == len(cells)
        assert all(f.kind == KIND_RUNNER for f in frames)
        assert frames[-1].body["done"] == len(cells)
        clocks = [f.clock for f in frames]
        assert clocks == sorted(clocks)


class TestReconciliation:
    def test_last_frame_matches_metrics_dump(self):
        bus = MetricsBus()
        service = ReproService("Hybrid", bus=bus)
        for sub in submissions_for(make_trace()):
            service.submit(sub)
        service.drain()
        body = bus.frames()[-1].body
        dump = service.metrics_dump()
        for key in ("accepted", "rejected", "clamped", "finished"):
            assert body[key] == dump["service"][key]
        assert body["pending"] == dump["service"]["pending"]
        assert bus.frames()[-1].clock == dump["service"]["clock"]
        assert body["routing"] == dump["routing"]
        assert body["health"] == dump["elastic"]["health"]
        assert body["healthy_fraction"] == dump["elastic"]["healthy_fraction"]
        assert sum(body["capacity"].values()) == (
            dump["elastic"]["schedulable_nodes"]
        )

    def _scenario(self, name, tmp_path):
        """A drained-to-be service with a bus: live, restored from a
        checkpoint, or shedding under brownout."""
        subs = submissions_for(make_trace(30))
        if name == "brownout":
            crashes = FaultPlan(tuple(
                FaultEvent(time=1.0 + i, kind=NODE_CRASH, member="out", node=i)
                for i in range(7)  # 17/24 schedulable: degraded
            ))
            bus = MetricsBus()
            service = ReproService(
                "RHadoop", fault_plan=crashes, bus=bus,
                brownout=BrownoutConfig(degraded_shed_shuffle_over=1 * GB),
            )
            service.advance_until(20.0)
            assert service.submit(JobSubmission(
                job_id="big", input_bytes=1 * GB, shuffle_bytes=2 * GB,
            )).reason == REASON_SHED_DEGRADED
            assert service.submit(JobSubmission(
                job_id="small", input_bytes=1 * GB, shuffle_bytes=0.5 * GB,
            )).accepted
            return service, bus
        path = str(tmp_path / "state.json")
        bus = MetricsBus()
        service = ReproService(
            "Hybrid", bus=bus, checkpoint_path=path,
            policy=AdmissionPolicy(max_total_pending=8),
        )
        for sub in subs:
            service.submit(sub)
        service.submit(dataclasses.replace(subs[0]))  # duplicate
        service.advance_until(subs[-1].arrival_time)
        if name == "live":
            return service, bus
        service.checkpoint()
        bus = MetricsBus()
        restored = ReproService.restore(path, bus=bus)
        assert restored.state().counters == service.state().counters
        return restored, bus

    @pytest.mark.parametrize("scenario", ["live", "restored", "brownout"])
    def test_every_view_agrees(self, scenario, tmp_path):
        service, bus = self._scenario(scenario, tmp_path)
        summary = service.drain()
        body = bus.frames()[-1].body
        dump = service.metrics_dump()
        health = service.health()
        counters = service.state().counters
        counts = dump["service"]

        for key in ("accepted", "rejected", "clamped", "finished", "pending"):
            assert body[key] == counts[key]
        for key in ("accepted", "finished", "failed", "pending", "clock"):
            assert summary[key] == counts[key]
        for key in ("accepted", "pending", "clock"):
            assert health[key] == counts[key]
        assert bus.frames()[-1].clock == counts["clock"]
        assert body["health"] == health["status"] == dump["elastic"]["health"]
        assert body["healthy_fraction"] == health["healthy_fraction"]
        assert body["capacity"] == dump["capacity"]
        assert body["routing"] == dump["routing"]
        assert body["elastic"] == {
            key: dump["elastic"][key] for key in body["elastic"]
        }
        # Checkpoint counters are every service.admission.* counter.
        assert counters == {
            name[len("service.admission."):]: value
            for name, value in dump["metrics"].items()
            if name.startswith("service.admission.")
        }
        for key in ("accepted", "rejected", "clamped"):
            assert counters[key] == counts[key]
        assert sum(
            value for name, value in counters.items()
            if name.startswith("rejected.")
        ) == counts["rejected"]
        assert counts["rejected"] > 0

        views = (body, summary, health, counters, counts, dump["admission"])
        for view in views:
            for key, value in view.items():
                if key in ("clock", "healthy_fraction") or not isinstance(
                    value, (int, float)
                ):
                    continue
                assert type(value) is int, (key, value)
        if scenario == "brownout":
            assert health["status"] == HEALTH_DEGRADED


def _runner_body(done, cells=10, store="sqlite"):
    return {"cells": cells, "done": done, "cache_hits": done // 2,
            "simulated": done - done // 2, "infeasible": 0, "failures": 0,
            "retries": 0, "timeouts": 0, "store": store}


def _daemon_frames():
    """A drained 20-job daemon's service frames plus one runner frame."""
    bus = MetricsBus()
    service = ReproService("Hybrid", bus=bus)
    for sub in submissions_for(make_trace()):
        service.submit(sub)
    service.drain()
    bus.publish(KIND_RUNNER, 1.5, _runner_body(4))
    return bus.frames()


def _runner_only_frames():
    """A sweep's per-cell frames, no daemon."""
    bus = MetricsBus()
    for done in range(1, 6):
        bus.publish(KIND_RUNNER, 0.75 * done, _runner_body(done, store=None))
    return bus.frames()


def _tuning_frames():
    """Hand-built service frames with a ``tuning`` block, so the MAPE
    trend renders without a live tuner; one frame lacks the block and
    one carries a non-numeric MAPE."""
    bus = MetricsBus()
    for step in range(6):
        body = {
            "health": "degraded" if step == 3 else "ok",
            "healthy_fraction": 0.75 if step == 3 else 1.0,
            "accepted": 4 * step, "pending": 6 - step, "finished": 3 * step,
            "rejected": step // 2,
            "capacity": {"up": 2, "out": 12 - (step == 3) * 3},
            "routing": {"members": {"up": {"small": step, "shuffle": 1},
                                    "out": {"large": 2 * step}},
                        "rejected": step // 2},
        }
        if step:
            body["tuning"] = {
                "publishes": step,
                "mape_after_last": "n/a" if step == 2 else 0.3 / step,
            }
        bus.publish(KIND_SERVICE, 40.0 * step, body)
    return bus.frames()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: sha256 of the rendered page for each fixture.  Any change to the
#: renderer that moves a byte of the page fails here; a deliberate
#: change to what the page shows re-records these.
MISSION_PINS = {
    "daemon": (
        "02dfea8c9cf5acfe4c8896689882c3b1"
        "67d7957cfabcb797db5a58f4365aa709"
    ),
    "daemon_refresh": (
        "8e2a94763cc42272e82facd637cad6c2"
        "cd01e06e48ad159f718ce3c3bb2928a8"
    ),
    "empty": (
        "bf65cc552fc806d77b9477c0985f00ee"
        "5ff06a0fc4f5c936667cc5d1cc4109ac"
    ),
    "runner_only": (
        "48ddf513355f4cde1963a5e0b182249e"
        "ebc7944341232ea6e8e86ffe8616bccb"
    ),
    "tuning_titled": (
        "ac3682b5d318b60bd7fd0b32a65df1b9"
        "f8ac9116ab4cf204bcd1f9424ec4e6c2"
    ),
}


class TestDashboard:
    def _frames(self):
        return _daemon_frames()

    def test_self_contained_and_deterministic(self):
        frames = self._frames()
        html = render_mission(frames)
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert html == render_mission(frames)
        for needle in ("Queue depth", "Healthy capacity per member",
                       "Routing decisions", "Sweep completion"):
            assert needle in html

    def test_refresh_tag_is_opt_in(self):
        frames = self._frames()
        assert "http-equiv" not in render_mission(frames)
        assert 'http-equiv="refresh" content="3"' in render_mission(
            frames, refresh=3
        )

    def test_write_mission(self, tmp_path):
        path = write_mission(self._frames(), tmp_path / "mission.html")
        assert path.read_text().startswith("<!DOCTYPE html>")

    def test_empty_stream_renders(self):
        html = render_mission([])
        assert "no frames yet" in html


class TestDashboardPins:
    """The mission page's bytes, pinned per fixture."""

    def test_daemon_and_runner_frames(self):
        frames = _daemon_frames()
        assert _sha(render_mission(frames)) == MISSION_PINS["daemon"]
        assert (_sha(render_mission(frames, refresh=2))
                == MISSION_PINS["daemon_refresh"])

    def test_empty_stream(self):
        assert _sha(render_mission([])) == MISSION_PINS["empty"]

    def test_runner_only_frames(self):
        html = render_mission(_runner_only_frames())
        assert _sha(html) == MISSION_PINS["runner_only"]

    def test_tuning_frames(self, tmp_path):
        path = write_mission(
            _tuning_frames(), tmp_path / "mission.html",
            title="tuned <Hybrid> & co", refresh=5,
        )
        html = path.read_text()
        assert "Calibration MAPE" in html
        assert _sha(html) == MISSION_PINS["tuning_titled"]


class TestHTTPSurface:
    @pytest.fixture()
    def server(self):
        service = ReproService(
            "Hybrid",
            policy=AdmissionPolicy(max_total_pending=40),
            bus=MetricsBus(),
        )
        httpd = serve(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            yield httpd
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)

    def _get(self, url: str):
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.status, resp.read().decode("utf-8")

    def _submit(self, httpd, job_id="j1"):
        sub = JobSubmission(job_id=job_id, input_bytes=1 * GB)
        request = urllib.request.Request(
            httpd.url + "/jobs",
            data=json.dumps(sub.to_wire()).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10.0):
            pass

    def test_events_tail_and_since(self, server):
        self._submit(server, "j1")
        self._submit(server, "j2")
        status, body = self._get(server.url + "/events")
        assert status == 200
        frames = frames_from_text(body)
        assert [f.seq for f in frames] == [1, 2]
        assert all(f.kind == KIND_SERVICE for f in frames)
        _, tail = self._get(server.url + "/events?since=1")
        assert [f.seq for f in frames_from_text(tail)] == [2]

    def test_events_rejects_bad_since(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(server.url + "/events?since=soon")
        assert err.value.code == 400

    def test_events_404_without_bus(self):
        service = ReproService("Hybrid")
        httpd = serve(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._get(httpd.url + "/events")
            assert err.value.code == 404
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)

    def test_mission_endpoint_serves_live_dashboard(self, server):
        self._submit(server, "j1")
        status, html = self._get(server.url + "/mission")
        assert status == 200
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert 'http-equiv="refresh"' in html
