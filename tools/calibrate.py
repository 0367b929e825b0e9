#!/usr/bin/env python
"""Calibration search for the performance model.

Tunes the free constants (per-app CPU costs + the Calibration fields)
against the paper's qualitative targets:

* cross points: the paper's Figs. 7/8 numbers, on the size grids of the
  cross-point claims in repro.analysis.conclusions;
* small-input ordering (execution time ascending):
  up-HDFS < up-OFS < out-HDFS < out-OFS for shuffle apps;
* large-input ordering: out-OFS < out-HDFS < up-OFS (< up-HDFS);
* Fig. 7 tail: out-OFS/up-OFS ratio at 100 GB in [0.60, 0.88];
* shuffle phase always shorter on scale-up;
* HDFS ~10-25 % better than OFS at small inputs on the same cluster.

Run:  python tools/calibrate.py [--rounds N] [--quick]

Prints the best parameter set; the winner is frozen into
repro/core/calibration.py and repro/apps/*.py, and locked in by the
claims table that tests/test_paper_fidelity.py checks.  ``--quick``
scores the frozen constants themselves (``START``).
"""

from __future__ import annotations

import argparse
import math
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.conclusions import CROSS_CLAIMS
from repro.analysis.figures import fig10_trace_replay
from repro.analysis.sweep import sweep_architectures
from repro.apps import GREP, TESTDFSIO_WRITE, WORDCOUNT
from repro.core.architectures import out_hdfs, out_ofs, up_hdfs, up_ofs
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.crosspoint import estimate_cross_point
from repro.units import GB, MB

ARCHS = (up_ofs(), up_hdfs(), out_ofs(), out_hdfs())

CROSS_SIZES = {app: list(claim.inputs) for app, claim in CROSS_CLAIMS.items()}
CROSS_TARGETS = {app: claim.paper for app, claim in CROSS_CLAIMS.items()}


def make_apps(params: Dict[str, float]):
    return {
        "wordcount": replace(WORDCOUNT, map_cpu_per_mb=params["wc_cpu"]),
        "grep": replace(GREP, map_cpu_per_mb=params["grep_cpu"]),
        "testdfsio-write": replace(TESTDFSIO_WRITE, map_cpu_per_mb=params["dfsio_cpu"]),
    }


def make_calibration(params: Dict[str, float]) -> Calibration:
    return Calibration(
        ofs_access_latency=params["ofs_lat"],
        ofs_stream_cap=params["ofs_cap"] * MB,
        ofs_per_job_overhead=params["ofs_job"],
        task_overhead_up=params["ovh_up"],
        task_overhead_out=params["ovh_out"],
        ramdisk_bandwidth=params["ramdisk"] * MB,
        shuffle_residual=params["residual"],
        spill_io_factor=params["spill"],
        hdfs_write_buffer_factor=params["wbuf"],
        core_speed_up=params["speed_up"],
        job_setup_overhead=params["job_setup"],
        hdfs_page_cache_bytes=params["cache"] * GB,
        disk_seek_penalty=params["seek"],
    )


def _exec_times(grid, name) -> List[Optional[float]]:
    return grid[name].execution_times


def _order_penalty(values: List[Optional[float]], tolerance: float = 0.0) -> float:
    """Penalty when values are not strictly ascending (None = skip)."""
    penalty = 0.0
    present = [v for v in values if v is not None]
    for a, b in zip(present, present[1:]):
        if a >= b * (1 - tolerance):
            penalty += 2.0 + math.log(max(a / b, 1.0))
    return penalty


def _band_penalty(value: float, low: float, high: float, weight: float = 5.0) -> float:
    if low <= value <= high:
        return 0.0
    edge = low if value < low else high
    return weight * abs(math.log(value / edge))


def evaluate(params: Dict[str, float], verbose: bool = False) -> Tuple[float, Dict]:
    cal = make_calibration(params)
    apps = make_apps(params)
    loss = 0.0
    diag: Dict[str, object] = {}

    # Cross points (up-OFS vs out-OFS).
    for app_name, sizes in CROSS_SIZES.items():
        grid = sweep_architectures((up_ofs(), out_ofs()), apps[app_name], sizes, cal)
        up_t = _exec_times(grid, "up-OFS")
        out_t = _exec_times(grid, "out-OFS")
        cross = estimate_cross_point(sizes, up_t, out_t)
        diag[f"cross_{app_name}"] = None if cross is None else cross / GB
        if cross is None:
            loss += 50.0
        else:
            loss += 12.0 * math.log(cross / CROSS_TARGETS[app_name]) ** 2

    # Small-input ordering + HDFS-vs-OFS gaps at 2 GB (3 GB for DFSIO).
    for app_name, size in (("wordcount", 2 * GB), ("grep", 2 * GB),
                           ("testdfsio-write", 3 * GB)):
        grid = sweep_architectures(ARCHS, apps[app_name], [size], cal)
        t = {name: _exec_times(grid, name)[0] for name in grid}
        diag[f"small_{app_name}"] = {k: round(v, 1) for k, v in t.items()}
        loss += _order_penalty([t["up-HDFS"], t["up-OFS"], t["out-HDFS"], t["out-OFS"]])
        # HDFS should beat OFS by ~10-25% at small sizes on each cluster.
        loss += _band_penalty(t["up-OFS"] / t["up-HDFS"], 1.05, 1.3, weight=6.0)
        loss += _band_penalty(t["out-OFS"] / t["out-HDFS"], 1.08, 1.4, weight=6.0)
        # up-OFS should beat out-HDFS by ~10-25%.
        loss += _band_penalty(t["out-HDFS"] / t["up-OFS"], 1.05, 1.4, weight=4.0)

    # Large-input ordering at 64 GB (50 GB for DFSIO); up-HDFS may be None.
    for app_name, size in (("wordcount", 64 * GB), ("grep", 64 * GB),
                           ("testdfsio-write", 50 * GB)):
        grid = sweep_architectures(ARCHS, apps[app_name], [size], cal)
        t = {name: _exec_times(grid, name)[0] for name in grid}
        diag[f"large_{app_name}"] = {
            k: (round(v, 1) if v is not None else None) for k, v in t.items()
        }
        if app_name == "testdfsio-write":
            # Paper Section III-C: out-OFS > up-OFS > out-HDFS at >=10 GB.
            loss += _order_penalty(
                [t["out-OFS"], t["up-OFS"], t["out-HDFS"], t["up-HDFS"]]
            )
        else:
            loss += _order_penalty(
                [t["out-OFS"], t["out-HDFS"], t["up-OFS"], t["up-HDFS"]]
            )
            # Robustness margin: out-HDFS at least ~4% ahead of up-OFS so
            # the ordering survives small parameter perturbations.
            loss += _band_penalty(
                t["out-HDFS"] / t["up-OFS"], 0.55, 0.96, weight=8.0
            )
        # Clear separation at large sizes: out-OFS visibly ahead of up-OFS.
        loss += _band_penalty(t["out-OFS"] / t["up-OFS"], 0.55, 0.92, weight=6.0)

        # Shuffle phase must be shorter on scale-up (shuffle apps).
        if app_name != "testdfsio-write":
            sh_up = grid["up-OFS"].shuffle_phases[0]
            sh_out = grid["out-OFS"].shuffle_phases[0]
            if sh_up is not None and sh_out is not None and sh_up >= sh_out:
                loss += 5.0

    # Fig. 10 (Section V): a 300-job rate-preserving replay must show the
    # hybrid dominating for scale-up jobs and at least beating THadoop
    # for scale-out jobs (the full RHadoop inversion is out of reach of
    # equal-cost physics; see EXPERIMENTS.md).
    replay = fig10_trace_replay(calibration=cal, num_jobs=300)
    hybrid_up = replay["Hybrid"].max_scale_up_time
    thadoop_up = replay["THadoop"].max_scale_up_time
    rhadoop_up = replay["RHadoop"].max_scale_up_time
    hybrid_out = replay["Hybrid"].max_scale_out_time
    thadoop_out = replay["THadoop"].max_scale_out_time
    rhadoop_out = replay["RHadoop"].max_scale_out_time
    diag["fig10_up_max"] = {
        "Hybrid": round(hybrid_up, 1),
        "THadoop": round(thadoop_up, 1),
        "RHadoop": round(rhadoop_up, 1),
    }
    diag["fig10_out_max"] = {
        "Hybrid": round(hybrid_out, 1),
        "THadoop": round(thadoop_out, 1),
        "RHadoop": round(rhadoop_out, 1),
    }
    # Paper's Fig 10(a) ordering: Hybrid < RHadoop < THadoop.
    loss += _order_penalty([hybrid_up, rhadoop_up, thadoop_up])
    # Fig 10(b): RHadoop < THadoop reproduces; the Hybrid's 12-node
    # scale-out side cannot beat 24 equal nodes in this model (documented
    # deviation) — keep it within ~1.6x of the best baseline.
    loss += _order_penalty([rhadoop_out, thadoop_out])
    loss += _band_penalty(hybrid_out / rhadoop_out, 0.5, 1.6, weight=4.0)

    # Fig. 7 tail: ratio at 100 GB for wordcount and grep in [0.60, 0.88].
    for app_name in ("wordcount", "grep"):
        grid = sweep_architectures(
            (up_ofs(), out_ofs()), apps[app_name], [100 * GB], cal
        )
        ratio = (
            _exec_times(grid, "out-OFS")[0] / _exec_times(grid, "up-OFS")[0]
        )
        diag[f"ratio100_{app_name}"] = round(ratio, 3)
        loss += _band_penalty(ratio, 0.60, 0.88, weight=10.0)

    if verbose:
        for key, value in diag.items():
            print(f"  {key}: {value}")
    return loss, diag


#: Initial parameter vector: the frozen constants (see module docstring
#: for meanings/units: cpu costs s/MB, bandwidths MB/s, times s).
_CAL = DEFAULT_CALIBRATION
START: Dict[str, float] = {
    "wc_cpu": WORDCOUNT.map_cpu_per_mb,
    "grep_cpu": GREP.map_cpu_per_mb,
    "dfsio_cpu": TESTDFSIO_WRITE.map_cpu_per_mb,
    "ofs_lat": _CAL.ofs_access_latency,
    "ofs_cap": _CAL.ofs_stream_cap / MB,
    "ofs_job": _CAL.ofs_per_job_overhead,
    "ovh_up": _CAL.task_overhead_up,
    "ovh_out": _CAL.task_overhead_out,
    "ramdisk": _CAL.ramdisk_bandwidth / MB,
    "residual": _CAL.shuffle_residual,
    "spill": _CAL.spill_io_factor,
    "wbuf": _CAL.hdfs_write_buffer_factor,
    "speed_up": _CAL.core_speed_up,
    "job_setup": _CAL.job_setup_overhead,
    "cache": _CAL.hdfs_page_cache_bytes / GB,
    "seek": _CAL.disk_seek_penalty,
}

#: Per-parameter hard bounds (physical plausibility).
BOUNDS: Dict[str, Tuple[float, float]] = {
    # CPU costs capped so I/O still matters at scale: unbounded, the
    # search inflates CPU until every storage difference washes out.
    "wc_cpu": (0.01, 0.14),
    "grep_cpu": (0.005, 0.08),
    "dfsio_cpu": (0.001, 0.05),
    "ofs_lat": (0.05, 4.0),
    "ofs_cap": (15.0, 400.0),
    "ofs_job": (0.0, 12.0),
    "ovh_up": (0.1, 4.0),
    "ovh_out": (0.2, 6.0),
    "ramdisk": (500.0, 6000.0),
    "residual": (0.1, 0.9),
    "spill": (0.2, 2.5),
    "wbuf": (1.0, 8.0),
    # >= 1.1: the paper's narrative requires a real per-core advantage
    # for the 2.66 GHz Xeons over the 2.3 GHz Opterons.
    "speed_up": (1.1, 2.2),
    "job_setup": (0.5, 5.0),
    "cache": (2.0, 24.0),
    "seek": (0.0, 0.5),
}

MULTIPLIERS = (0.75, 0.9, 1.11, 1.33)


def coordinate_descent(
    start: Dict[str, float], rounds: int, verbose: bool = True
) -> Dict[str, float]:
    params = dict(start)
    best_loss, _ = evaluate(params)
    if verbose:
        print(f"start loss: {best_loss:.3f}")
    for round_num in range(rounds):
        improved = False
        for key in params:
            low, high = BOUNDS[key]
            for mult in MULTIPLIERS:
                candidate = dict(params)
                candidate[key] = min(high, max(low, params[key] * mult))
                if candidate[key] == params[key]:
                    continue
                loss, _ = evaluate(candidate)
                if loss < best_loss - 1e-9:
                    best_loss = loss
                    params = candidate
                    improved = True
                    if verbose:
                        print(
                            f"  round {round_num}: {key}={params[key]:.4g} "
                            f"-> loss {best_loss:.3f}"
                        )
        if not improved:
            break
    return params


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--quick", action="store_true", help="evaluate START only")
    args = parser.parse_args()
    if args.quick:
        loss, _ = evaluate(START, verbose=True)
        print(f"loss: {loss:.3f}")
        return
    params = coordinate_descent(START, rounds=args.rounds)
    print("\nbest parameters:")
    for key, value in params.items():
        print(f"  {key} = {value:.5g}")
    loss, _ = evaluate(params, verbose=True)
    print(f"final loss: {loss:.3f}")


if __name__ == "__main__":
    main()
