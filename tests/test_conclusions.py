"""The claims table, its evaluator and the ``repro verify`` command."""

import pytest

from repro.analysis.conclusions import (
    CLAIMS,
    CLAIMS_BY_ID,
    Finding,
    render_findings,
)
from repro.cli import main
from repro.units import GB


def gb(*sizes):
    return tuple(s * GB for s in sizes)


W, WG, D, FB = ("wordcount",), ("wordcount", "grep"), ("testdfsio-write",), ("fb2009",)
OPEN = (None, None)

#: Each claim's apps, inputs, band, ordering and paper number, as the
#: fidelity tests and ``repro verify`` stated them before they read the table.
PINNED = {
    "fig7-wordcount-cross": (W, gb(8, 16, 24, 32, 48, 64, 96), gb(24, 40), "", 32 * GB),
    "fig7-grep-cross": (("grep",), gb(4, 8, 12, 16, 24, 32, 48), gb(10, 22), "",
                        16 * GB),
    "fig8-dfsio-cross": (D, gb(3, 5, 8, 10, 15, 20, 30), gb(6, 14), "", 10 * GB),
    "cross-order": (D + ("grep", "wordcount"), (), OPEN,
                    "testdfsio-write < grep < wordcount", None),
    "small-up-wins": (W, gb(2), OPEN, "up-OFS < out-OFS", None),
    "small-order": (WG, gb(2), OPEN, "up-HDFS < up-OFS < out-HDFS < out-OFS", None),
    "small-out-hdfs-gap": (W, gb(2), (1.02, 1.45), "", None),
    "small-up-hdfs-gap": (W, gb(2), (1.02, 1.40), "", None),
    "small-dfsio-order": (D, gb(3), OPEN,
                          "up-HDFS < up-OFS < out-OFS; out-HDFS < out-OFS", None),
    "small-hdfs-map": (WG, gb(2), OPEN, "out-HDFS < out-OFS; up-HDFS < up-OFS", None),
    "large-out-wins": (W, gb(64), OPEN, "out-OFS < up-OFS", None),
    "large-order": (WG, gb(64), OPEN,
                    "out-OFS < out-HDFS < 1.04*up-OFS; up-OFS < up-HDFS", None),
    "large-order-strict": (WG, gb(256), OPEN, "out-OFS < out-HDFS < up-OFS", None),
    "large-ofs-map": (WG, gb(64), OPEN, "out-OFS < out-HDFS; up-OFS < up-HDFS", None),
    "large-up-ofs-map-gap": (WG, gb(64), (1.10, None), "", None),
    "fig7-tail": (WG, gb(100), (0.55, 0.92), "", None),
    "shuffle-up-shorter": (W, gb(2, 16, 32, 64), OPEN, "up-OFS < out-OFS", None),
    "up-hdfs-infeasible": (WG, gb(128, 256), OPEN, "", None),
    "dfsio-large-order": (D, gb(50), OPEN, "out-OFS < up-OFS < out-HDFS", None),
    "dfsio-ofs-map": (D, gb(50), OPEN, "out-OFS < 0.75*out-HDFS", None),
    "fig10a": (FB, (300,), OPEN, "Hybrid < RHadoop < THadoop", None),
    "fig10-mean": (FB, (300,), OPEN, "Hybrid < RHadoop; Hybrid < THadoop", None),
    "fig10b": (FB, (300,), OPEN,
               "RHadoop < THadoop; Hybrid < 2.0*RHadoop; Hybrid < 2.0*THadoop", None),
    "fig10b-paper": (FB, (300,), OPEN, "Hybrid < RHadoop; Hybrid < THadoop", None),
}


class TestClaimTable:
    def test_every_value_is_pinned(self):
        table = {c.id: (c.apps, c.inputs, c.band, c.order, c.paper) for c in CLAIMS}
        assert table == PINNED
        assert {c.id: c.metric for c in CLAIMS if c.metric != "execution_time"} == {
            "cross-order": "cross_point", "shuffle-up-shorter": "shuffle_phase",
            "small-hdfs-map": "map_phase", "large-ofs-map": "map_phase",
            "large-up-ofs-map-gap": "map_phase", "dfsio-ofs-map": "map_phase",
            "fig10a": "max_scale_up_time", "fig10-mean": "mean_execution_time",
            "fig10b": "max_scale_out_time", "fig10b-paper": "max_scale_out_time",
        }
        assert [c.id for c in CLAIMS if c.deviation] == ["fig10b-paper"]

    def test_order_reads_as_relations(self):
        assert CLAIMS_BY_ID["large-order"].relations == [
            ("out-OFS", "out-HDFS", 1.0), ("out-HDFS", "up-OFS", 1.04),
            ("up-OFS", "up-HDFS", 1.0),
        ]


class TestEvaluateConclusions:
    @pytest.fixture
    def findings(self, paper_findings):
        return list(paper_findings.values())

    def test_one_finding_per_claim(self, findings):
        assert [f.id for f in findings] == [c.id for c in CLAIMS]

    def test_only_the_documented_deviation_misses(self, findings):
        assert [f.id for f in findings if not f.holds] == ["fig10b-paper"]

    def test_every_finding_carries_evidence(self, findings):
        for finding in findings:
            assert finding.evidence
            assert finding.claim

    def test_cross_point_evidence_mentions_sizes(self, paper_findings):
        cross = paper_findings["cross-order"]
        assert "GB" in cross.evidence
        assert cross.holds


class TestRenderFindings:
    def test_renders_marks_and_tally(self, paper_findings):
        text = render_findings(list(paper_findings.values()))
        assert "[PASS]" in text
        assert "conclusions hold" in text
        assert f"/{len(paper_findings)}" in text

    def test_render_synthetic(self):
        text = render_findings(
            [Finding(id="x", claim="x", holds=False, evidence="y")]
        )
        assert "[MISS] x" in text
        assert "0/1" in text


class TestVerifyCommand:
    def verify(self, monkeypatch, capsys, findings):
        monkeypatch.setattr(
            "repro.analysis.conclusions.evaluate_conclusions", lambda: findings
        )
        code = main(["verify"])
        assert "conclusions hold" in capsys.readouterr().out
        return code

    def test_cli_verify_exits_zero(self, monkeypatch, capsys, paper_findings):
        assert self.verify(
            monkeypatch, capsys, list(paper_findings.values())
        ) == 0

    def test_miss_without_deviation_mark_fails(self, monkeypatch, capsys):
        findings = [Finding("a", "a", False, "e"),
                    Finding("b", "b", True, "e", deviation=True)]
        assert self.verify(monkeypatch, capsys, findings) == 1

    def test_miss_on_the_deviation_alone_passes(self, monkeypatch, capsys):
        findings = [Finding("a", "a", True, "e"),
                    Finding("b", "b", False, "e", deviation=True)]
        assert self.verify(monkeypatch, capsys, findings) == 0
