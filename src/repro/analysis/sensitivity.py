"""Calibration sensitivity: which conclusions depend on which constants?

The model's free constants were fitted (docs/CALIBRATION.md); a fair
question is whether the reproduced results are *properties of the fit*
or *properties of the system*.  This module perturbs one calibration
constant at a time and re-measures the headline outcomes:

* the three cross points (do they move? do they stay ordered?),
* the small-input and large-input architecture orderings.

A conclusion that survives ±25% shocks to every constant is structural;
one that flips under small shocks is an artefact of the fit and is
reported as such.  `benchmarks/bench_sensitivity.py` runs the study and
archives the table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence

from repro.analysis.conclusions import CLAIMS_BY_ID, CROSS_CLAIMS
from repro.analysis.figures import crosspoint_series
from repro.analysis.sweep import sweep_architectures
from repro.apps import WORDCOUNT
from repro.core.architectures import out_hdfs, out_ofs, up_hdfs, up_ofs
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.errors import ConfigurationError
from repro.runner.pool import PoolRunner
from repro.units import GB

#: The continuous constants worth shocking (bools/ints excluded).
SHOCKABLE = (
    "ofs_access_latency",
    "ofs_stream_cap",
    "task_overhead_up",
    "task_overhead_out",
    "job_setup_overhead",
    "shuffle_residual",
    "spill_io_factor",
    "ramdisk_bandwidth",
    "hdfs_page_cache_bytes",
    "disk_seek_penalty",
    "hdfs_write_buffer_factor",
    "core_speed_up",
)

ARCHS = (up_ofs(), up_hdfs(), out_ofs(), out_hdfs())


@dataclass
class Shock:
    """Outcome of perturbing one constant by one factor."""

    parameter: str
    factor: float
    wordcount_cross: Optional[float]
    small_ordering_holds: bool
    large_ordering_holds: bool
    crosses_ordered: bool


def _apply_shock(parameter: str, factor: float) -> Calibration:
    value = getattr(DEFAULT_CALIBRATION, parameter) * factor
    # Respect hard floors where the model requires them.
    if parameter == "hdfs_write_buffer_factor":
        value = max(1.0, value)
    if parameter == "core_speed_up":
        value = max(1.0, value)
    return DEFAULT_CALIBRATION.with_options(**{parameter: value})


def _orderings(
    calibration: Calibration, runner: Optional[PoolRunner] = None
) -> tuple[bool, bool]:
    grid_small = sweep_architectures(
        ARCHS, WORDCOUNT, [2 * GB], calibration, runner=runner
    )
    s = {n: grid_small[n].execution_times[0] for n in grid_small}
    small_ok = s["up-HDFS"] < s["up-OFS"] < s["out-HDFS"] < s["out-OFS"]
    grid_large = sweep_architectures(
        ARCHS, WORDCOUNT, [64 * GB], calibration, runner=runner
    )
    l = {n: grid_large[n].execution_times[0] for n in grid_large}
    # The robust form of the large ordering (see fidelity tests): clear
    # winner and loser, middle pair within tolerance.
    large_ok = (
        l["out-OFS"] < l["out-HDFS"]
        and l["out-HDFS"] < l["up-OFS"] * 1.08
        and (l["up-HDFS"] is None or l["up-OFS"] < l["up-HDFS"])
    )
    return small_ok, large_ok


def _crosses(calibration: Calibration, runner: Optional[PoolRunner] = None):
    """Wordcount's cross point, and whether the claims' cross points ascend."""
    cross = {app: crosspoint_series(app, c.inputs, calibration, runner=runner)[1]
             for app, c in CROSS_CLAIMS.items()}
    ordered = all(
        cross[a] is not None and cross[b] is not None and cross[a] < cross[b]
        for a, b, _ in CLAIMS_BY_ID["cross-order"].relations
    )
    return cross["wordcount"], ordered


def run_sensitivity(
    parameters: Sequence[str] = SHOCKABLE,
    factors: Sequence[float] = (0.75, 1.25),
    *,
    runner: Optional[PoolRunner] = None,
) -> List[Shock]:
    """Shock each parameter by each factor; measure the outcomes.

    ``runner`` parallelises (and caches) the sweeps behind each shock —
    the study is ~100 independent grids, the runner's best case.
    """
    for parameter in parameters:
        if parameter not in {f.name for f in fields(Calibration)}:
            raise ConfigurationError(f"unknown calibration field {parameter!r}")
    shocks: List[Shock] = []
    for parameter in parameters:
        for factor in factors:
            calibration = _apply_shock(parameter, factor)
            small_ok, large_ok = _orderings(calibration, runner)
            wc_cross, ordered = _crosses(calibration, runner)
            shocks.append(
                Shock(
                    parameter=parameter,
                    factor=factor,
                    wordcount_cross=wc_cross,
                    small_ordering_holds=small_ok,
                    large_ordering_holds=large_ok,
                    crosses_ordered=ordered,
                )
            )
    return shocks


def summarize(shocks: Sequence[Shock]) -> Dict[str, float]:
    """Fractions of shocks under which each conclusion survives."""
    n = len(shocks)
    if n == 0:
        raise ConfigurationError("no shocks to summarise")
    return {
        "small_ordering": sum(s.small_ordering_holds for s in shocks) / n,
        "large_ordering": sum(s.large_ordering_holds for s in shocks) / n,
        "crosses_ordered": sum(s.crosses_ordered for s in shocks) / n,
        "wordcount_cross_exists": sum(
            s.wordcount_cross is not None for s in shocks
        )
        / n,
    }
