"""Mission control: live observation of a running repro system.

This package is the read side of the observability stack
(docs/MISSION.md):

* the :class:`~repro.telemetry.bus.MetricsBus` publishes versioned
  NDJSON frames from the deployment daemon's step loop and the
  experiment runner's per-cell completions;
* :func:`render_mission` turns a frame stream into a self-contained,
  auto-refreshing HTML dashboard (stdlib only, inline SVG, zero
  external fetches), drawn by :mod:`repro.profiler.dashboard`, the one
  renderer behind both this page and the run-profile page;
* the daemon serves the dashboard at ``GET /mission`` and the raw
  frame tail at ``GET /events`` (:mod:`repro.service.server`), and
  ``repro mission`` renders from either a frames file or a live URL.

Everything here is strictly an observer: attaching a bus never
schedules simulation events, so an observed run is byte-identical to a
bare one (pinned by ``tests/test_mission.py``).
"""

from repro.profiler.dashboard import render_mission, write_mission
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

__all__ = [
    "FRAME_SCHEMA",
    "FrameError",
    "KIND_RUNNER",
    "KIND_SERVICE",
    "MetricsBus",
    "MetricsFrame",
    "frames_from_text",
    "read_frames",
    "render_mission",
    "write_frames",
    "write_mission",
]
