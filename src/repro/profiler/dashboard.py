"""The one HTML renderer: the run-profile page and the mission page.

Both pages follow the same rules.  Stdlib only: the emitted document
embeds all CSS and renders every chart as inline SVG — no script tags,
no external fetches, no fonts beyond the system sans.  Open the file
from disk and it just works; CI asserts there is not a single
``http://``/``https://`` reference.  Both are section lists over one
set of primitives below: the CSS, the format helpers, the legend, the
line chart, the tile strip, the table, the page shell and the writer.

* **Run profile** (:func:`render_dashboard`): one column per
  :class:`~repro.profiler.model.RunProfile` (A/B comparisons render
  side by side), each stacking summary tiles, bucket-attribution bars,
  slot-occupancy and storage-bandwidth timelines (with fault
  annotations), the slowest job's critical path, the routing-decision
  audit and the fault log.
* **Mission control** (:func:`render_mission`): a
  :class:`~repro.telemetry.bus.MetricsFrame` stream — service frames
  from the daemon's step loop, runner frames from a sweep — as status
  tiles, queue depth over the simulation clock, per-member healthy
  capacity, per-member routing counts, the calibration MAPE trend (when
  a tuner is attached) and sweep completion (when runner frames are
  present).  Its only "live" ingredient is an optional ``<meta
  http-equiv="refresh">`` tag, which the daemon's ``GET /mission`` sets
  so a browser tab re-pulls the page without any JavaScript.

Identity is never color-alone: every chart has a legend and every
number also appears in a table, and all text wears the text tokens
rather than series colors.  Rendering is deterministic: fixed float
formatting, sorted iteration, no timestamps — the same input always
yields byte-identical HTML (pinned by ``tests/test_profiler.py`` and
``tests/test_mission.py``).
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.profiler.attribution import BUCKETS
from repro.profiler.model import RunProfile
from repro.telemetry.bus import KIND_RUNNER, KIND_SERVICE, MetricsFrame

# -- primitives shared by both pages -----------------------------------------

_CSS = """
:root {
  color-scheme: light dark;
}
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px; line-height: 1.45;
}
.viz-root {
  --page:           #f9f9f7;
  --surface-1:      #fcfcfb;
  --text-primary:   #0b0b0b;
  --text-secondary: #52514e;
  --muted:          #898781;
  --grid:           #e1e0d9;
  --baseline:       #c3c2b7;
  --border:         rgba(11,11,11,0.10);
  --series-1:       #2a78d6;
  --series-2:       #eb6834;
  --series-3:       #1baf7a;
  --series-4:       #eda100;
  --series-5:       #e87ba4;
  --series-6:       #008300;
  --status-critical:#d03b3b;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --muted:          #898781;
    --grid:           #2c2c2a;
    --baseline:       #383835;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
    --series-2:       #d95926;
    --series-3:       #199e70;
    --series-4:       #c98500;
    --series-5:       #d55181;
    --series-6:       #008300;
    --status-critical:#d03b3b;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 24px 0 8px; }
h3 { font-size: 13px; margin: 16px 0 6px; color: var(--text-secondary); }
.subtitle { color: var(--text-secondary); margin-bottom: 20px; }
.runs { display: grid; gap: 24px; align-items: start;
        grid-template-columns: repeat(auto-fit, minmax(560px, 1fr)); }
.run { background: var(--surface-1); border: 1px solid var(--border);
       border-radius: 8px; padding: 16px 20px 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 8px 0 4px; }
.tile { border: 1px solid var(--border); border-radius: 6px;
        padding: 8px 14px; min-width: 96px; }
.tile .v { font-size: 20px; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
.legend { display: flex; flex-wrap: wrap; gap: 12px; margin: 6px 0 10px;
          color: var(--text-secondary); font-size: 12px; }
.legend .chip { display: inline-block; width: 10px; height: 10px;
                border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
.barrow { margin: 6px 0; }
.barrow .lbl { font-size: 12px; color: var(--text-secondary); margin-bottom: 2px; }
table { border-collapse: collapse; width: 100%; font-size: 12.5px; }
th { text-align: left; color: var(--text-secondary); font-weight: 500;
     border-bottom: 1px solid var(--baseline); padding: 4px 8px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 8px 4px 0;
     font-variant-numeric: tabular-nums; }
.note { color: var(--muted); font-size: 12px; margin: 4px 0 0; }
svg { display: block; }
svg text { font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _f(value: float, places: int = 1) -> str:
    """Fixed-point float (deterministic rendering)."""
    return f"{value:.{places}f}"


def _fmt_secs(value: float) -> str:
    if value >= 3600:
        return f"{_f(value / 3600, 2)} h"
    if value >= 60:
        return f"{_f(value / 60, 1)} min"
    return f"{_f(value, 1)} s"


def _fmt_bytes(value: float) -> str:
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("kB", 1e3)):
        if value >= scale:
            return f"{_f(value / scale, 1)} {unit}"
    return f"{_f(value, 0)} B"


def _fmt_rate(value: float) -> str:
    return f"{_fmt_bytes(value)}/s"


def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    chips = "".join(
        f'<span><span class="chip" style="background:var({var})"></span>'
        f"{_esc(name)}</span>"
        for name, var in entries
    )
    return f'<div class="legend">{chips}</div>'


def _line_chart(
    series: Sequence[Tuple[str, str, Sequence[Tuple[float, float]]]],
    x_max: float,
    y_label: str,
    vlines: Sequence[Tuple[float, str]] = (),
    width: int = 520,
    height: int = 110,
) -> str:
    """Multi-series line chart under its legend: ``(name, css_var,
    points)`` triples, shared x in seconds, auto y scale.  ``vlines``
    are fault markers."""
    legend = _legend([(name, var) for name, var, _ in series])
    pad_l, pad_r, pad_t, pad_b = 6, 6, 14, 16
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    y_max = 0.0
    for _, _, points in series:
        for _, y in points:
            y_max = max(y_max, y)
    if x_max <= 0 or y_max <= 0:
        return legend + '<p class="note">no samples recorded</p>'

    def sx(x: float) -> str:
        return _f(pad_l + plot_w * min(max(x / x_max, 0.0), 1.0), 2)

    def sy(y: float) -> str:
        return _f(pad_t + plot_h * (1.0 - min(max(y / y_max, 0.0), 1.0)), 2)

    parts: List[str] = [
        f'<rect x="0" y="0" width="{width}" height="{height}" '
        f'fill="var(--surface-1)"/>'
    ]
    for frac in (0.5, 1.0):
        y = sy(y_max * frac)
        parts.append(
            f'<line x1="{pad_l}" y1="{y}" x2="{width - pad_r}" y2="{y}" '
            f'stroke="var(--grid)" stroke-width="1"/>'
        )
    parts.append(
        f'<line x1="{pad_l}" y1="{sy(0)}" x2="{width - pad_r}" y2="{sy(0)}" '
        f'stroke="var(--baseline)" stroke-width="1"/>'
    )
    for ts, name in vlines:
        if 0 <= ts <= x_max:
            x = sx(ts)
            parts.append(
                f'<line x1="{x}" y1="{pad_t}" x2="{x}" y2="{sy(0)}" '
                f'stroke="var(--status-critical)" stroke-width="1" '
                f'stroke-dasharray="3 3"><title>{_esc(name)} at '
                f"{_fmt_secs(ts)}</title></line>"
            )
    for name, var, points in series:
        if not points:
            continue
        coords = " ".join(f"{sx(x)},{sy(y)}" for x, y in points)
        parts.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="var({var})" stroke-width="2" '
            f'stroke-linejoin="round"><title>{_esc(name)}</title></polyline>'
        )
    parts.append(
        f'<text x="{pad_l}" y="10" font-size="10" '
        f'fill="var(--muted)">{_esc(y_label)} (max {_esc(_axis_max(y_label, y_max))})</text>'
    )
    parts.append(
        f'<text x="{width - pad_r}" y="{height - 4}" font-size="10" '
        f'text-anchor="end" fill="var(--muted)">{_fmt_secs(x_max)}</text>'
    )
    return legend + (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">{"".join(parts)}</svg>'
    )


def _axis_max(y_label: str, y_max: float) -> str:
    if "bandwidth" in y_label:
        return _fmt_rate(y_max)
    return _f(y_max, 0)


def _step_points(
    points: Sequence[Tuple[float, float]], x_max: float
) -> List[Tuple[float, float]]:
    """Sample-and-hold rendering of a counter series."""
    out: List[Tuple[float, float]] = []
    for x, y in points:
        if out:
            out.append((x, out[-1][1]))
        out.append((x, y))
    if out:
        out.append((x_max, out[-1][1]))
    return out


def _tiles(entries: Sequence[Tuple[str, str]]) -> str:
    """A strip of ``(label, value)`` tiles."""
    body = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="k">{_esc(k)}</div></div>'
        for k, v in entries
    )
    return f'<div class="tiles">{body}</div>'


def _table(head: Sequence[str], rows: Sequence[str], note: str = "") -> str:
    """A table of pre-rendered ``<tr>`` rows under escaped column names,
    followed by ``note`` (pre-rendered HTML)."""
    cells = "".join(f"<th>{_esc(name)}</th>" for name in head)
    return (
        f"<table><thead><tr>{cells}</tr></thead>"
        f'<tbody>{"".join(rows)}</tbody></table>{note}'
    )


def _page(
    title: str, subtitle: str, body: str, refresh: Optional[int] = None
) -> str:
    """The HTML document around ``body``; ``subtitle`` and ``body`` are
    pre-rendered HTML.  ``refresh`` (seconds) adds a meta-refresh tag."""
    meta_refresh = (
        f'<meta http-equiv="refresh" content="{int(refresh)}">\n'
        if refresh is not None and refresh > 0
        else ""
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        + meta_refresh
        + f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        '</head><body class="viz-root">\n'
        f"<h1>{_esc(title)}</h1>\n"
        f'<div class="subtitle">{subtitle}</div>\n'
        f'<div class="runs">{body}</div>\n'
        "</body></html>\n"
    )


def _write(path: Union[str, Path], text: str) -> Path:
    target = Path(path)
    target.write_text(text)
    return target


# -- the run-profile page ----------------------------------------------------

#: Bucket -> CSS custom property (categorical slots in validated order;
#: "other" deliberately wears the muted ink, not a series slot).
_BUCKET_VARS = {
    "cpu": "--series-1",
    "disk": "--series-2",
    "network": "--series-3",
    "shuffle-wait": "--series-4",
    "queue-wait": "--series-5",
    "other": "--muted",
}


def _bucket_legend() -> str:
    return _legend([(bucket, _BUCKET_VARS[bucket]) for bucket in BUCKETS])


def _stacked_bar(
    buckets: Dict[str, float], width: int = 520, height: int = 16
) -> str:
    """Horizontal 100%-stacked bar of one bucket dict (2px gaps)."""
    total = sum(buckets.values())
    if total <= 0:
        return ""
    parts: List[str] = []
    x = 0.0
    for bucket in BUCKETS:
        share = buckets.get(bucket, 0.0) / total
        px = share * width
        if px >= 1.0:
            parts.append(
                f'<rect x="{_f(x, 2)}" y="0" width="{_f(max(px - 2, 1), 2)}" '
                f'height="{height}" rx="2" fill="var({_BUCKET_VARS[bucket]})">'
                f"<title>{_esc(bucket)}: {_fmt_secs(buckets.get(bucket, 0.0))} "
                f"({_f(share * 100, 1)}%)</title></rect>"
            )
        x += px
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}" '
        f'role="img">{"".join(parts)}</svg>'
    )


def _run_tiles(run: RunProfile) -> str:
    return _tiles(
        [
            ("jobs profiled", str(len(run.jobs))),
            ("jobs failed", str(run.jobs_failed)),
            ("horizon", _fmt_secs(run.horizon)),
            ("dominant bucket", run.dominant_bucket if run.jobs else "—"),
            ("faults", str(len(run.faults))),
        ]
    )


def _attribution_section(run: RunProfile) -> str:
    rows = [
        f'<div class="barrow"><div class="lbl">all jobs · '
        f"{_fmt_secs(run.total_attributed)} attributed</div>"
        f"{_stacked_bar(run.buckets)}</div>"
    ]
    for name in sorted(run.clusters):
        cluster = run.clusters[name]
        if cluster.jobs == 0:
            continue
        rows.append(
            f'<div class="barrow"><div class="lbl">{_esc(name)} · '
            f"{cluster.jobs} jobs · storage {_esc(cluster.storage or '?')}"
            f"</div>{_stacked_bar(cluster.buckets)}</div>"
        )
    return (
        "<h2>Bottleneck attribution</h2>"
        + _bucket_legend()
        + "".join(rows)
    )


def _timeline_section(run: RunProfile) -> str:
    vlines = [(fault["ts"], fault["name"]) for fault in run.faults]
    blocks: List[str] = ["<h2>Utilization timelines</h2>"]
    if vlines:
        blocks.append(
            '<p class="note">dashed red lines mark fault events</p>'
        )
    for name in sorted(run.clusters):
        cluster = run.clusters[name]
        points = cluster.slots.points
        if not points:
            continue
        maps = _step_points([(p[0], p[3]) for p in points], run.horizon)
        reduces = _step_points([(p[0], p[4]) for p in points], run.horizon)
        queued = _step_points([(p[0], p[1]) for p in points], run.horizon)
        blocks.append(f"<h3>{_esc(name)} slot occupancy</h3>")
        blocks.append(
            _line_chart(
                [
                    ("busy map slots", "--series-1", maps),
                    ("busy reduce slots", "--series-2", reduces),
                    ("queued maps", "--series-5", queued),
                ],
                run.horizon,
                "slots / tasks",
                vlines,
            )
        )
    for name in sorted(run.bandwidth):
        series = run.bandwidth[name]
        xs = [series.bin_width * (i + 0.5) for i in range(len(series.read_rates))]
        blocks.append(f"<h3>{_esc(name)} bandwidth</h3>")
        blocks.append(
            _line_chart(
                [
                    ("read", "--series-1", list(zip(xs, series.read_rates))),
                    ("write", "--series-2", list(zip(xs, series.write_rates))),
                ],
                run.horizon,
                "bandwidth",
                vlines,
            )
        )
    return "".join(blocks)


def _jobs_section(run: RunProfile, top: int = 8) -> str:
    if not run.jobs:
        return "<h2>Jobs</h2><p class='note'>no completed jobs recorded</p>"
    slowest = sorted(run.jobs, key=lambda j: (-j.makespan, j.job_id))[:top]
    rows = []
    for job in slowest:
        rows.append(
            "<tr>"
            f"<td>{_esc(job.job_id)}</td><td>{_esc(job.app)}</td>"
            f"<td>{_esc(job.cluster)}</td>"
            f"<td>{_fmt_bytes(job.input_bytes)}</td>"
            f"<td>{_fmt_secs(job.makespan)}</td>"
            f"<td>{_esc(job.dominant_bucket)}</td>"
            f"<td>{_stacked_bar(job.buckets, width=160, height=10)}</td>"
            "</tr>"
        )
    note = (
        f'<p class="note">showing the {len(slowest)} slowest of '
        f"{len(run.jobs)} jobs</p>"
        if len(run.jobs) > len(slowest)
        else ""
    )
    return "<h2>Slowest jobs</h2>" + _table(
        ["job", "app", "cluster", "input", "makespan", "dominant",
         "breakdown"],
        rows,
        note,
    )


def _critical_path_section(run: RunProfile, max_rows: int = 14) -> str:
    if not run.jobs:
        return ""
    job = max(run.jobs, key=lambda j: (j.makespan, j.job_id))
    rows = []
    segments = job.path
    shown = segments[:max_rows]
    for segment in shown:
        where = "—" if segment.kind == "wait" else f"node {segment.lane}"
        rows.append(
            "<tr>"
            f"<td>{_esc(segment.kind)}</td>"
            f"<td>{_f(segment.start - job.submit_time, 2)} s</td>"
            f"<td>{_f(segment.duration, 2)} s</td>"
            f"<td>{_esc(where)}</td>"
            f"<td>{_f(segment.slack, 2)} s</td>"
            f"<td>{_stacked_bar(segment.buckets, width=160, height=10)}</td>"
            "</tr>"
        )
    note = (
        f'<p class="note">showing {len(shown)} of {len(segments)} '
        f"segments</p>"
        if len(segments) > len(shown)
        else ""
    )
    head = ["kind", "offset", "duration", "where", "slack", "buckets"]
    return (
        f"<h2>Critical path — {_esc(job.job_id)} "
        f"({_fmt_secs(job.makespan)})</h2>" + _table(head, rows, note)
    )


def _routing_section(run: RunProfile, max_rows: int = 12) -> str:
    if not run.routing:
        return ""
    rows = []
    disagreements = sum(
        1 for d in run.routing if d.suggested and d.suggested != d.cluster
    )
    shown = run.routing[:max_rows]
    for decision in shown:
        flag = (
            " ⚠" if decision.suggested and decision.suggested != decision.cluster
            else ""
        )
        rows.append(
            "<tr>"
            f"<td>{_esc(decision.job_id)}</td>"
            f"<td>{_esc(decision.decision)}</td>"
            f"<td>{_esc(decision.cluster or '—')}</td>"
            f"<td>{_fmt_bytes(decision.input_bytes)}</td>"
            f"<td>{_esc(decision.dominant_bucket or '—')}</td>"
            f"<td>{_f(decision.queue_share * 100, 1)}%</td>"
            f"<td>{_esc(decision.suggested or '—')}{flag}</td>"
            "</tr>"
        )
    note = (
        f'<p class="note">showing {len(shown)} of {len(run.routing)} '
        f"decisions · {disagreements} where the breakdown suggests the "
        f"other cluster (queue-wait &gt; 50% of makespan — a load "
        f"heuristic, not ground truth)</p>"
    )
    return "<h2>Routing audit (Algorithm 1)</h2>" + _table(
        ["job", "decision", "ran on", "input", "dominant", "queue share",
         "breakdown suggests"],
        rows,
        note,
    )


def _faults_section(run: RunProfile, max_rows: int = 12) -> str:
    if not run.faults:
        return ""
    rows = []
    for fault in run.faults[:max_rows]:
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(fault["args"].items())
        )
        rows.append(
            "<tr>"
            f"<td>{_fmt_secs(fault['ts'])}</td>"
            f"<td>{_esc(fault['name'])}</td>"
            f"<td>{_esc(detail)}</td>"
            "</tr>"
        )
    note = (
        f'<p class="note">showing {max_rows} of {len(run.faults)} fault '
        f"events</p>"
        if len(run.faults) > max_rows
        else ""
    )
    return "<h2>Fault events</h2>" + _table(
        ["time", "event", "detail"], rows, note
    )


def _run_column(run: RunProfile) -> str:
    return (
        f'<section class="run"><h2 style="margin-top:0">{_esc(run.label)}'
        f"</h2>"
        + _run_tiles(run)
        + _attribution_section(run)
        + _timeline_section(run)
        + _jobs_section(run)
        + _critical_path_section(run)
        + _routing_section(run)
        + _faults_section(run)
        + "</section>"
    )


def render_dashboard(
    profiles: Sequence[RunProfile], title: str = "repro run profile"
) -> str:
    """The run-profile page: one column per profile, side by side."""
    labels = " vs ".join(_esc(run.label) for run in profiles)
    return _page(
        title,
        f"{labels} · critical-path &amp; bottleneck attribution · "
        "generated offline from recorded telemetry",
        "".join(_run_column(run) for run in profiles),
    )


def write_dashboard(
    profiles: Sequence[RunProfile],
    path: Union[str, Path],
    title: str = "repro run profile",
) -> Path:
    """Render and write the run-profile page; returns the written path."""
    return _write(path, render_dashboard(profiles, title=title))


# -- the mission page ---------------------------------------------------------

#: Categorical series slots for per-member lines (cycled, like the
#: bucket palette).
_MEMBER_VARS = (
    "--series-1",
    "--series-2",
    "--series-3",
    "--series-4",
    "--series-5",
    "--series-6",
)


def _member_var(index: int) -> str:
    return _MEMBER_VARS[index % len(_MEMBER_VARS)]


def _progress_bar(done: int, total: int, width: int = 520) -> str:
    share = 0.0 if total <= 0 else min(max(done / total, 0.0), 1.0)
    return (
        f'<svg width="{width}" height="16" viewBox="0 0 {width} 16" '
        f'role="img"><rect x="0" y="0" width="{width}" height="16" rx="2" '
        f'fill="var(--grid)"/><rect x="0" y="0" '
        f'width="{_f(share * width, 2)}" height="16" rx="2" '
        f'fill="var(--series-3)"><title>{done} of {total} cells '
        f"({_f(share * 100, 1)}%)</title></rect></svg>"
    )


def _int(value: Any) -> int:
    return int(value) if isinstance(value, (int, float)) else 0


def _status_tiles(service: Sequence[MetricsFrame]) -> str:
    last = service[-1].body
    health = str(last.get("health", "?"))
    fraction = last.get("healthy_fraction")
    healthy = (
        f"{health} ({_f(float(fraction) * 100, 0)}%)"
        if isinstance(fraction, (int, float))
        else health
    )
    return _tiles(
        [
            ("health", healthy),
            ("accepted", str(_int(last.get("accepted")))),
            ("pending", str(_int(last.get("pending")))),
            ("finished", str(_int(last.get("finished")))),
            ("rejected", str(_int(last.get("rejected")))),
            ("clock", _fmt_secs(service[-1].clock)),
        ]
    )


def _queue_section(service: Sequence[MetricsFrame]) -> str:
    x_max = service[-1].clock
    points = [(f.clock, float(_int(f.body.get("pending")))) for f in service]
    return (
        "<h2>Queue depth</h2>"
        + _line_chart(
            [("pending jobs", "--series-1", _step_points(points, x_max))],
            x_max,
            "pending jobs",
        )
    )


def _capacity_section(service: Sequence[MetricsFrame]) -> str:
    members = sorted(
        {name for frame in service for name in frame.body.get("capacity", {})}
    )
    if not members:
        return ""
    x_max = service[-1].clock
    series = []
    for index, name in enumerate(members):
        points = [
            (f.clock, float(f.body["capacity"][name]))
            for f in service
            if name in f.body.get("capacity", {})
        ]
        series.append((name, _member_var(index), _step_points(points, x_max)))
    return (
        "<h2>Healthy capacity per member</h2>"
        + _line_chart(series, x_max, "schedulable nodes")
    )


def _member_routing_section(service: Sequence[MetricsFrame]) -> str:
    """Per-member routing-reason counts from the last frame's
    ``routing_summary()`` (the run-profile page's
    :func:`_routing_section` audits individual decisions instead)."""
    routing = service[-1].body.get("routing")
    if not isinstance(routing, dict):
        return ""
    members = routing.get("members")
    if not isinstance(members, dict) or not members:
        return ""
    reasons = sorted(
        {
            reason
            for counts in members.values()
            if isinstance(counts, dict)
            for reason in counts
        }
    )
    rows = []
    for name in sorted(members):
        counts = members[name] if isinstance(members[name], dict) else {}
        cells = "".join(
            f"<td>{_int(counts.get(reason))}</td>" for reason in reasons
        )
        rows.append(f"<tr><td>{_esc(name)}</td>{cells}</tr>")
    rejected = _int(routing.get("rejected"))
    return "<h2>Routing decisions</h2>" + _table(
        ["member", *reasons],
        rows,
        f'<p class="note">{rejected} submissions rejected by routing</p>',
    )


def _tuning_section(service: Sequence[MetricsFrame]) -> str:
    points: List[Tuple[float, float]] = []
    publishes = 0
    for frame in service:
        tuning = frame.body.get("tuning")
        if not isinstance(tuning, dict):
            continue
        publishes = max(publishes, _int(tuning.get("publishes")))
        mape = tuning.get("mape_after_last")
        if isinstance(mape, (int, float)):
            points.append((frame.clock, float(mape) * 100))
    if not points:
        return ""
    x_max = service[-1].clock
    return (
        "<h2>Calibration MAPE</h2>"
        + _line_chart(
            [("MAPE after publish (%)", "--series-4", points)],
            x_max,
            "MAPE %",
        )
        + f'<p class="note">{publishes} calibration publishes so far</p>'
    )


def _sweep_section(runner: Sequence[MetricsFrame]) -> str:
    last = runner[-1].body
    cells = _int(last.get("cells"))
    done = _int(last.get("done"))
    store = last.get("store")
    strip = _tiles(
        [
            ("cells", str(cells)),
            ("done", str(done)),
            ("cache hits", str(_int(last.get("cache_hits")))),
            ("simulated", str(_int(last.get("simulated")))),
            ("failures", str(_int(last.get("failures")))),
            ("store", str(store) if store else "none"),
        ]
    )
    x_max = runner[-1].clock
    points = [(f.clock, float(_int(f.body.get("done")))) for f in runner]
    chart = _line_chart(
        [("cells completed", "--series-3", _step_points(points, x_max))],
        x_max,
        "cells completed",
    )
    return (
        "<h2>Sweep completion</h2>"
        + strip
        + _progress_bar(done, cells)
        + chart
        + '<p class="note">runner clock is wall-clock seconds since the '
        "grid started</p>"
    )


def render_mission(
    frames: Sequence[MetricsFrame],
    title: str = "repro mission control",
    refresh: Optional[int] = None,
) -> str:
    """The mission page for a frame stream, in one column.

    ``refresh`` (seconds) adds a ``<meta http-equiv="refresh">`` tag —
    the daemon's ``GET /mission`` uses it so a browser tab tracks a
    live run with zero JavaScript.  Deterministic for a given frame
    list (same frames, same bytes).
    """
    service = [f for f in frames if f.kind == KIND_SERVICE]
    runner = [f for f in frames if f.kind == KIND_RUNNER]
    sections: List[str] = []
    if service:
        sections.append(_status_tiles(service))
        sections.append(_queue_section(service))
        sections.append(_capacity_section(service))
        sections.append(_member_routing_section(service))
        sections.append(_tuning_section(service))
    if runner:
        sections.append(_sweep_section(runner))
    if not sections:
        sections.append(
            '<p class="note">no frames yet — attach a MetricsBus and '
            "submit some work (docs/MISSION.md)</p>"
        )
    last_seq = frames[-1].seq if frames else 0
    return _page(
        title,
        f"{len(frames)} frames · last seq {last_seq} · "
        "rendered offline from the metrics bus",
        f'<section class="run">{"".join(sections)}</section>',
        refresh,
    )


def write_mission(
    frames: Sequence[MetricsFrame],
    path: Union[str, Path],
    title: str = "repro mission control",
    refresh: Optional[int] = None,
) -> Path:
    """Render and write the mission page; returns the written path."""
    return _write(path, render_mission(frames, title=title, refresh=refresh))


__all__ = [
    "render_dashboard",
    "render_mission",
    "write_dashboard",
    "write_mission",
]
