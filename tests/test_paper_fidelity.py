"""Paper-fidelity lock: the calibrated model must keep the paper's shapes.

Every claim of the paper lives once in
:data:`repro.analysis.conclusions.CLAIMS`, with its inputs and its band
or ordering.  ``test_claim`` checks each one but the marked deviation on
a single evaluation of DEFAULT_CALIBRATION, so any change to the model
or its constants that breaks reproduction fails CI.
"""

import pytest

from repro.analysis.conclusions import CLAIMS, CLAIMS_BY_ID
from repro.apps import GREP, WORDCOUNT
from repro.units import GB


def assert_holds(findings, *claim_ids):
    for claim_id in claim_ids:
        finding = findings[claim_id]
        assert finding.holds, (claim_id, finding.evidence)


def assert_covers(claim_id, app, size):
    claim = CLAIMS_BY_ID[claim_id]
    assert app.name in claim.apps and size in claim.inputs, claim


def claims(*claim_ids):
    """A test that the named claims hold."""
    def test(self, paper_findings):
        assert_holds(paper_findings, *claim_ids)
    return test


# The deviation's miss is pinned by test_conclusions.py.
@pytest.mark.parametrize("claim_id", [c.id for c in CLAIMS if not c.deviation])
def test_claim(paper_findings, claim_id):
    assert_holds(paper_findings, claim_id)


# The historical test names, each pointing at the claims that now make
# its assertions.

class TestCrossPoints:
    test_wordcount_cross_in_band = claims("fig7-wordcount-cross")
    test_grep_cross_in_band = claims("fig7-grep-cross")
    test_dfsio_cross_in_band = claims("fig8-dfsio-cross")
    test_cross_points_ascend_with_shuffle_ratio = claims("cross-order")


class TestSmallInputOrdering:
    @pytest.mark.parametrize("app,size", [(WORDCOUNT, 2 * GB), (GREP, 2 * GB)])
    def test_shuffle_apps(self, paper_findings, app, size):
        assert_covers("small-order", app, size)
        assert_holds(paper_findings, "small-order")

    test_dfsio_small = claims("small-dfsio-order")
    test_hdfs_beats_ofs_small_by_10_to_45_percent = claims(
        "small-out-hdfs-gap", "small-up-hdfs-gap")
    test_up_ofs_beats_out_hdfs_small = claims("small-order")


class TestLargeInputOrdering:
    @pytest.mark.parametrize("app", [WORDCOUNT, GREP])
    def test_shuffle_apps_at_64gb(self, paper_findings, app):
        assert_covers("large-order", app, 64 * GB)
        assert_holds(paper_findings, "large-order")

    @pytest.mark.parametrize("app", [WORDCOUNT, GREP])
    def test_shuffle_apps_at_256gb_strict(self, paper_findings, app):
        assert_covers("large-order-strict", app, 256 * GB)
        assert_covers("up-hdfs-infeasible", app, 256 * GB)
        assert_holds(paper_findings, "large-order-strict", "up-hdfs-infeasible")

    test_dfsio_large = claims("dfsio-large-order")
    test_up_hdfs_infeasible_beyond_80gb = claims("up-hdfs-infeasible")
    test_fig7_tail_moderate = claims("fig7-tail")


class TestMapPhaseClaims:
    test_hdfs_map_shorter_at_small_sizes = claims("small-hdfs-map")
    test_ofs_map_shorter_at_large_sizes = claims(
        "large-ofs-map", "large-up-ofs-map-gap")
    test_dfsio_ofs_map_much_shorter_at_large = claims("dfsio-ofs-map")


class TestShuffleAdvantage:
    test_shuffle_phase_always_shorter_on_scale_up = claims("shuffle-up-shorter")


class TestFig10Shapes:
    test_scale_up_jobs_hybrid_dominates = claims("fig10a")
    test_scale_out_jobs_partial_ordering = claims("fig10b")
    test_hybrid_best_mean_workload_performance = claims("fig10-mean")
