"""Fig. 7: cross points of Wordcount (~32 GB) and Grep (~16 GB).

Normalized out-OFS execution time (by up-OFS) against input size; the
crossing of 1.0 is the size at which scale-out overtakes scale-up.  The
paper reads 32 GB for Wordcount and 16 GB for Grep, and argues the gap
comes from the shuffle/input ratio (1.6 vs 0.4): more shuffle keeps the
scale-up cluster's RAMdisk advantage relevant for longer.
"""

from repro.analysis.asciichart import render_chart
from repro.analysis.conclusions import CROSS_CLAIMS
from repro.analysis.figures import fig7_crosspoints
from repro.analysis.report import render_series
from repro.units import GB, format_size

WORDCOUNT_CROSS = CROSS_CLAIMS["wordcount"]
GREP_CROSS = CROSS_CLAIMS["grep"]


def test_fig7_crosspoints(benchmark, artifact, runner):
    figure = benchmark.pedantic(
        fig7_crosspoints, kwargs={"runner": runner}, rounds=1, iterations=1
    )
    wc_cross = figure.notes["wordcount_cross_point"]
    grep_cross = figure.notes["grep_cross_point"]
    text = render_series(figure.sizes, figure.series, title=figure.title)
    text += "\n\n" + render_chart(
        figure.sizes,
        figure.series,
        reference_y=1.0,
        x_formatter=format_size,
    )
    text += (
        f"\n\nwordcount cross point: {format_size(wc_cross)} "
        f"(paper: {format_size(WORDCOUNT_CROSS.paper)})"
        f"\ngrep cross point:      {format_size(grep_cross)} "
        f"(paper: {format_size(GREP_CROSS.paper)})"
    )
    artifact("fig7_crosspoints", text, data=figure.to_dict())

    assert wc_cross is not None and grep_cross is not None
    # The cross-point claims' bands, on the figure's own size grid.
    assert WORDCOUNT_CROSS.in_band(wc_cross), f"wordcount cross {wc_cross / GB:.1f}GB"
    assert GREP_CROSS.in_band(grep_cross), f"grep cross {grep_cross / GB:.1f}GB"
    # The higher shuffle/input ratio must produce the higher cross point.
    assert wc_cross > grep_cross

    # Curve shape: above 1 at the smallest size, below 1 at the largest.
    for name, series in figure.series.items():
        assert series[0] > 1.0, f"{name} should start above 1"
        assert series[-1] < 1.0, f"{name} should end below 1"
