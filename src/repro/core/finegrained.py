"""Fine-grained ratio partition: the paper's suggested refinement.

Section IV: "A fine-grained ratio partition can be conducted from more
experiments with other different jobs to make the algorithm more
accurate."  Algorithm 1 quantises the shuffle/input ratio into three
bands; this module replaces the bands with a continuous cross-point
function interpolated through measured *(ratio, cross point)* anchors —
for the paper's measurements, (≈0, 10 GB), (0.4, 16 GB) and (1.6, 32 GB).

Between anchors the cross point is interpolated linearly in ratio and
logarithmically in size (cross points grow multiplicatively, as the
measurement section shows); outside the anchor range it clamps to the
nearest anchor, preserving Algorithm 1's conservatism for extreme ratios.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.scheduler import PAPER_CROSS_POINTS, Decision
from repro.errors import ConfigurationError
from repro.mapreduce.job import JobSpec

#: The paper's three measured anchors (ratio, cross point in bytes).
PAPER_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (0.0, PAPER_CROSS_POINTS.low_ratio_cross),
    (0.4, PAPER_CROSS_POINTS.mid_ratio_cross),
    (1.6, PAPER_CROSS_POINTS.high_ratio_cross),
)


class InterpolatingScheduler:
    """Continuous-ratio variant of the size-aware scheduler.

    Parameters
    ----------
    anchors:
        Measured ``(shuffle_input_ratio, cross_point_bytes)`` pairs, at
        least two, with strictly increasing ratios.  Use
        :func:`repro.core.crosspoint.estimate_cross_point` on per-app
        sweeps to produce them for a new deployment.
    """

    def __init__(
        self, anchors: Iterable[Tuple[float, float]] = PAPER_ANCHORS
    ) -> None:
        pairs: List[Tuple[float, float]] = sorted(anchors)
        if len(pairs) < 2:
            raise ConfigurationError("need at least two (ratio, cross) anchors")
        ratios = [r for r, _ in pairs]
        if any(b <= a for a, b in zip(ratios, ratios[1:])):
            raise ConfigurationError(f"anchor ratios must be distinct: {ratios}")
        for ratio, cross in pairs:
            if ratio < 0:
                raise ConfigurationError(f"anchor ratio must be >= 0: {ratio}")
            if cross <= 0:
                raise ConfigurationError(f"anchor cross point must be > 0: {cross}")
        self.anchors = pairs

    def cross_for_ratio(self, ratio: Optional[float]) -> float:
        """Interpolated cross point (bytes) for a shuffle/input ratio.

        ``None`` (unknown ratio) falls back to the lowest anchor — the
        same avoid-overloading-scale-up conservatism as Algorithm 1.
        """
        if ratio is None:
            return self.anchors[0][1]
        if ratio < 0:
            raise ConfigurationError(f"ratio must be >= 0: {ratio}")
        pairs = self.anchors
        if ratio <= pairs[0][0]:
            return pairs[0][1]
        if ratio >= pairs[-1][0]:
            return pairs[-1][1]
        for (r0, c0), (r1, c1) in zip(pairs, pairs[1:]):
            if r0 <= ratio <= r1:
                t = (ratio - r0) / (r1 - r0)
                return math.exp(
                    math.log(c0) + t * (math.log(c1) - math.log(c0))
                )
        raise AssertionError("unreachable: anchors cover the ratio")

    def decide(self, input_bytes: float, ratio: Optional[float]) -> Decision:
        if input_bytes < 0:
            raise ConfigurationError(f"input size must be >= 0: {input_bytes}")
        if input_bytes < self.cross_for_ratio(ratio):
            return Decision.SCALE_UP
        return Decision.SCALE_OUT

    def decide_job(self, spec: JobSpec, ratio_known: bool = True) -> Decision:
        ratio = spec.shuffle_input_ratio if ratio_known else None
        return self.decide(spec.input_bytes, ratio)


def anchors_from_measurements(
    measured: Sequence[Tuple[float, Optional[float]]],
) -> List[Tuple[float, float]]:
    """Filter sweep outcomes into usable anchors.

    ``measured`` pairs each app's shuffle/input ratio with its estimated
    cross point (``None`` when the sweep saw no crossing); entries
    without a crossing are dropped.  Raises if fewer than two remain.
    """
    anchors = [(r, c) for r, c in measured if c is not None]
    if len(anchors) < 2:
        raise ConfigurationError(
            "need crossings for at least two ratios to interpolate"
        )
    return sorted(anchors)
