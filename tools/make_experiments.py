#!/usr/bin/env python
"""Regenerate the measured-results section of EXPERIMENTS.md.

Runs every experiment at paper scale with DEFAULT_CALIBRATION and emits
markdown to stdout: per-figure paper-vs-measured tables.  The narrative
half of EXPERIMENTS.md is hand-written; this script produces everything
between the BEGIN/END GENERATED markers.

Usage:  python tools/make_experiments.py [--replay-jobs N] > /tmp/gen.md
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis.conclusions import CROSS_CLAIMS
from repro.analysis.figures import (
    fig3_trace_cdf,
    fig5_wordcount,
    fig6_grep,
    fig7_crosspoints,
    fig8_crosspoint_dfsio,
    fig9_dfsio,
    fig10_trace_replay,
)
from repro.units import GB, format_size
from repro.workload.cdf import quantile


def md_table(headers, rows):
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def fmt(value, digits=1):
    if value is None:
        return "—"
    return f"{value:.{digits}f}"


def section_fig3():
    figure = fig3_trace_cdf(num_jobs=6000, seed=2009)
    n = figure.notes
    print("### Fig. 3 — input-size CDF of the FB-2009 trace\n")
    print(md_table(
        ["statistic", "paper", "measured"],
        [
            ["jobs < 1 MB", "40%", f"{n['share_below_1MB']:.1%}"],
            ["jobs 1 MB – 30 GB", "49%", f"{n['share_1MB_to_30GB']:.1%}"],
            ["jobs > 30 GB", "11%", f"{n['share_above_30GB']:.1%}"],
            ["jobs < 10 GB (Section V)", "> 80%", "see bench fig3"],
        ],
    ))
    print()


def section_measurement(name, fig_fn, small_size, large_size, unit_note):
    panels = fig_fn()
    execution = panels["execution"]

    def row_at(size):
        index = execution.sizes.index(size)
        return {
            arch: execution.series[arch][index] for arch in execution.series
        }

    small = row_at(small_size)
    large = row_at(large_size)
    print(f"### {name}\n")
    print(unit_note + "\n")
    print(md_table(
        ["architecture",
         f"exec @ {format_size(small_size)} (normalized)",
         f"exec @ {format_size(large_size)} (normalized)"],
        [[arch, fmt(small[arch], 3), fmt(large[arch], 3)]
         for arch in ("up-HDFS", "up-OFS", "out-HDFS", "out-OFS")],
    ))
    shuffle = panels["shuffle"]
    index = shuffle.sizes.index(large_size)
    print(
        f"\nShuffle tail at {format_size(large_size)}: "
        f"up-OFS {fmt(shuffle.series['up-OFS'][index])}s vs "
        f"out-OFS {fmt(shuffle.series['out-OFS'][index])}s "
        "(paper: always shorter on scale-up).\n"
    )


def section_crosspoints():
    fig7 = fig7_crosspoints()
    fig8 = fig8_crosspoint_dfsio()

    def paper(app):
        return format_size(CROSS_CLAIMS[app].paper)

    print("### Figs. 7/8 — cross points\n")
    print(md_table(
        ["application", "shuffle/input", "paper cross", "measured cross"],
        [
            ["TestDFSIO-write", "~0", paper("testdfsio-write"),
             format_size(fig8.notes["dfsio_cross_point"])],
            ["Grep", "0.4", paper("grep"),
             format_size(fig7.notes["grep_cross_point"])],
            ["Wordcount", "1.6", paper("wordcount"),
             format_size(fig7.notes["wordcount_cross_point"])],
        ],
    ))
    print()


def section_fig10(num_jobs):
    outcome = fig10_trace_replay(num_jobs=num_jobs)
    print(f"### Fig. 10 — FB-2009 replay ({num_jobs} jobs, 5x shrink)\n")
    for label, attr, paper in (
        ("Fig. 10(a) scale-up jobs", "scale_up_times",
         {"Hybrid": "48.53", "THadoop": "83.37", "RHadoop": "68.17"}),
        ("Fig. 10(b) scale-out jobs", "scale_out_times",
         {"Hybrid": "1207", "THadoop": "3087", "RHadoop": "2734"}),
    ):
        rows = []
        for arch in ("Hybrid", "THadoop", "RHadoop"):
            times = getattr(outcome[arch], attr)
            p50, p99 = quantile(times, [0.5, 0.99])
            rows.append(
                [arch, paper[arch], fmt(float(np.max(times))),
                 fmt(float(p50)), fmt(float(p99))]
            )
        print(f"**{label}** (seconds)\n")
        print(md_table(
            ["architecture", "paper max", "measured max", "measured p50",
             "measured p99"],
            rows,
        ))
        print()
    print("**Whole-workload mean execution time** (not reported in the "
          "paper; summarises both classes)\n")
    print(md_table(
        ["architecture", "mean (s)"],
        [[arch, fmt(outcome[arch].mean_execution_time)]
         for arch in ("Hybrid", "THadoop", "RHadoop")],
    ))
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replay-jobs", type=int, default=6000)
    args = parser.parse_args()

    print("<!-- BEGIN GENERATED (tools/make_experiments.py) -->\n")
    section_fig3()
    section_measurement(
        "Fig. 5 — Wordcount (shuffle/input 1.6)", fig5_wordcount,
        2 * GB, 64 * GB,
        "Execution time normalized by up-OFS (lower = faster; paper "
        "normalizes the same way).",
    )
    section_measurement(
        "Fig. 6 — Grep (shuffle/input 0.4)", fig6_grep,
        2 * GB, 64 * GB,
        "Execution time normalized by up-OFS.",
    )
    section_measurement(
        "Fig. 9 — TestDFSIO write (map-intensive)", fig9_dfsio,
        3 * GB, 100 * GB,
        "Execution time normalized by up-OFS.  up-HDFS is infeasible "
        "beyond ~80 GB (91 GB local disks), shown as —.",
    )
    section_crosspoints()
    section_fig10(args.replay_jobs)
    print("<!-- END GENERATED -->")


if __name__ == "__main__":
    main()
