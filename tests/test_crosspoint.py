"""Tests for cross-point estimation (the Figs. 7/8 method)."""

import numpy as np
import pytest

from repro.analysis.conclusions import CROSS_CLAIMS
from repro.core.crosspoint import (
    CrossBand,
    cross_point_band,
    derive_cross_points,
    estimate_cross_point,
    normalized_ratio,
)
from repro.core.scheduler import PAPER_CROSS_POINTS, CrossPoints
from repro.errors import ConfigurationError
from repro.units import GB


class TestNormalizedRatio:
    def test_out_over_up(self):
        ratio = normalized_ratio([10.0, 20.0], [15.0, 10.0])
        assert ratio == pytest.approx([1.5, 0.5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            normalized_ratio([1.0], [1.0, 2.0])

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ConfigurationError):
            normalized_ratio([0.0], [1.0])


class TestEstimateCrossPoint:
    def test_exact_crossing_between_points(self):
        sizes = [8 * GB, 16 * GB, 32 * GB, 64 * GB]
        up = [10.0, 20.0, 40.0, 80.0]
        out = [14.0, 24.0, 36.0, 60.0]  # ratio: 1.4, 1.2, 0.9, 0.75
        cross = estimate_cross_point(sizes, up, out)
        assert 16 * GB < cross < 32 * GB

    def test_log_interpolation_midpoint(self):
        sizes = [10.0, 40.0]
        up = [10.0, 10.0]
        out = [12.0, 10.0 * 10.0 / 12.0]  # ratios 1.2 and 1/1.2
        cross = estimate_cross_point(sizes, up, out)
        # Symmetric ratios around 1 -> crossing near the geometric middle.
        assert cross == pytest.approx(np.sqrt(10.0 * 40.0), rel=0.15)

    def test_no_crossing_returns_none(self):
        sizes = [GB, 2 * GB, 4 * GB]
        assert estimate_cross_point(sizes, [10, 10, 10], [20, 19, 18]) is None
        assert estimate_cross_point(sizes, [10, 10, 10], [5, 6, 7]) is None

    def test_multiple_crossings_takes_last(self):
        sizes = [1.0, 2.0, 4.0, 8.0, 16.0]
        up = [10.0] * 5
        out = [12.0, 9.0, 11.0, 9.0, 8.0]  # noisy: crossings at 1-2 and 4-8
        cross = estimate_cross_point(sizes, up, out)
        assert 4.0 < cross < 8.0

    def test_exact_touch_at_measured_point(self):
        sizes = [1.0, 2.0, 4.0]
        up = [10.0, 10.0, 10.0]
        out = [12.0, 10.0, 8.0]
        cross = estimate_cross_point(sizes, up, out)
        assert cross == pytest.approx(2.0)

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ConfigurationError):
            estimate_cross_point([2.0, 1.0], [1, 1], [1, 1])

    def test_rejects_single_point(self):
        with pytest.raises(ConfigurationError):
            estimate_cross_point([1.0], [1.0], [1.0])


class TestDeriveCrossPoints:
    @staticmethod
    def synthetic_measure(app, size):
        """A synthetic deployment with known crossings: up time flat, out
        time falling; crossing position depends on the app."""
        cross = CROSS_CLAIMS[app].paper
        up = 100.0
        out = 100.0 * (cross / size)  # ratio == 1 exactly at the crossing
        return up, out

    def test_recovers_known_crossings(self):
        sizes = [s * GB for s in (2, 4, 8, 16, 32, 64, 128)]
        cp = derive_cross_points(self.synthetic_measure, sizes)
        # Interpolation between geometric sample points is approximate;
        # the coarse 8->16 GB gap bounds the error at ~6%.
        paper = PAPER_CROSS_POINTS
        assert cp.high_ratio_cross == pytest.approx(paper.high_ratio_cross, rel=0.08)
        assert cp.mid_ratio_cross == pytest.approx(paper.mid_ratio_cross, rel=0.08)
        assert cp.low_ratio_cross == pytest.approx(paper.low_ratio_cross, rel=0.08)

    def test_falls_back_when_no_crossing(self):
        def up_always_wins(app, size):
            return 10.0, 20.0

        sizes = [GB, 2 * GB]
        fallback = CrossPoints()
        cp = derive_cross_points(up_always_wins, sizes, fallback=fallback)
        assert cp.high_ratio_cross == fallback.high_ratio_cross
        assert cp.mid_ratio_cross == fallback.mid_ratio_cross
        assert cp.low_ratio_cross == fallback.low_ratio_cross

    def test_band_limits_pass_through(self):
        sizes = [s * GB for s in (2, 8, 32, 128)]
        cp = derive_cross_points(
            self.synthetic_measure, sizes, ratio_high=1.2, ratio_low=0.3
        )
        assert cp.ratio_high == 1.2
        assert cp.ratio_low == 0.3


class TestCrossPointBand:
    """The full-information curve read behind estimate_cross_point."""

    def test_clean_crossing(self):
        band = cross_point_band([1.0, 2.0, 4.0], [10, 10, 10], [12, 10, 8])
        assert not band.open_ended
        assert band.monotone
        assert band.crossings == 1
        assert band.cross == pytest.approx(2.0)

    def test_open_ended_out_dominant(self):
        """Scale-out faster everywhere: no crossing, curve stays < 1."""
        band = cross_point_band([1.0, 2.0, 4.0], [10, 10, 10], [5, 6, 7])
        assert band.open_ended
        assert band.cross is None
        assert band.dominant == "scale-out"
        assert "scale-out" in band.describe()

    def test_open_ended_up_dominant(self):
        band = cross_point_band([1.0, 2.0], [10, 10], [20, 19])
        assert band.open_ended
        assert band.dominant == "scale-up"

    def test_non_monotone_counts_crossings(self):
        sizes = [1.0, 2.0, 4.0, 8.0, 16.0]
        up = [10.0] * 5
        out = [12.0, 9.0, 11.0, 9.0, 8.0]  # two *downward* crossings
        band = cross_point_band(sizes, up, out)
        assert band.crossings == 2
        assert not band.monotone
        assert not band.open_ended
        assert 4.0 < band.cross < 8.0  # last crossing wins

    def test_window_recorded(self):
        band = cross_point_band([2.0, 8.0], [10, 10], [12, 8])
        assert band.lo == 2.0
        assert band.hi == 8.0


class TestStrictMode:
    """estimate_cross_point/derive_cross_points with strict=True raise a
    typed ConfigurationError instead of silently falling back."""

    def test_estimate_strict_raises_with_dominant_named(self):
        with pytest.raises(ConfigurationError, match="scale-out"):
            estimate_cross_point(
                [1.0, 2.0], [10, 10], [5, 6], strict=True
            )

    def test_estimate_strict_passes_through_crossings(self):
        cross = estimate_cross_point(
            [1.0, 2.0, 4.0], [10, 10, 10], [12, 10, 8], strict=True
        )
        assert cross == pytest.approx(2.0)

    def test_derive_strict_names_the_band(self):
        def out_always_wins(app, size):
            return 10.0, 5.0

        with pytest.raises(
            ConfigurationError, match="high-ratio band.*no crossing"
        ):
            derive_cross_points(
                out_always_wins, [GB, 2 * GB], strict=True
            )


class TestExplicitNoFallback:
    """fallback=None (explicitly disabled) encodes dominance as extreme
    thresholds instead of silently reusing the paper's numbers."""

    def test_out_dominant_threshold_below_window(self):
        def out_always_wins(app, size):
            return 10.0, 5.0

        cp = derive_cross_points(out_always_wins, [GB, 2 * GB], fallback=None)
        # Every job larger than the (tiny) threshold routes scale-out.
        assert cp.high_ratio_cross < GB
        assert cp.mid_ratio_cross < GB
        assert cp.low_ratio_cross < GB

    def test_up_dominant_threshold_above_window(self):
        def up_always_wins(app, size):
            return 10.0, 20.0

        cp = derive_cross_points(up_always_wins, [GB, 2 * GB], fallback=None)
        assert cp.high_ratio_cross > 2 * GB
        assert cp.mid_ratio_cross > 2 * GB
        assert cp.low_ratio_cross > 2 * GB

    def test_default_still_falls_back_to_paper(self):
        def out_always_wins(app, size):
            return 10.0, 5.0

        cp = derive_cross_points(out_always_wins, [GB, 2 * GB])
        paper = CrossPoints()
        assert cp.high_ratio_cross == paper.high_ratio_cross
        assert cp.low_ratio_cross == paper.low_ratio_cross
