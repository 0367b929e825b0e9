"""Fig. 8: cross point of the TestDFSIO write test (~10 GB).

Map-intensive jobs have a near-zero shuffle/input ratio, so they gain
almost nothing from the scale-up cluster's shuffle machinery; their
cross point is the lowest of the measured applications.
"""

from repro.analysis.asciichart import render_chart
from repro.analysis.conclusions import CROSS_CLAIMS
from repro.analysis.figures import fig7_crosspoints, fig8_crosspoint_dfsio
from repro.analysis.report import render_series
from repro.units import GB, format_size

DFSIO_CROSS = CROSS_CLAIMS["testdfsio-write"]


def test_fig8_crosspoint_dfsio(benchmark, artifact, runner):
    figure = benchmark.pedantic(
        fig8_crosspoint_dfsio, kwargs={"runner": runner}, rounds=1,
        iterations=1,
    )
    cross = figure.notes["dfsio_cross_point"]
    text = render_series(figure.sizes, figure.series, title=figure.title)
    text += "\n\n" + render_chart(
        figure.sizes,
        figure.series,
        reference_y=1.0,
        x_formatter=format_size,
    )
    text += (
        f"\n\ndfsio-write cross point: {format_size(cross)} "
        f"(paper: {format_size(DFSIO_CROSS.paper)})"
    )
    artifact("fig8_crosspoint_dfsio", text, data=figure.to_dict())

    assert cross is not None
    # The cross-point claim's band, on the figure's own size grid.
    assert DFSIO_CROSS.in_band(cross), f"dfsio cross {cross / GB:.1f}GB"

    series = figure.series["out-OFS-Write"]
    assert series[0] > 1.0
    assert series[-1] < 1.0


def test_fig8_map_intensive_cross_below_shuffle_intensive(
    benchmark, artifact, runner
):
    """The paper's conclusion: 'the cross point for map-intensive
    applications is smaller than shuffle-intensive applications.'"""

    def both():
        return (fig8_crosspoint_dfsio(runner=runner),
                fig7_crosspoints(runner=runner))

    fig8, fig7 = benchmark.pedantic(both, rounds=1, iterations=1)
    dfsio = fig8.notes["dfsio_cross_point"]
    grep = fig7.notes["grep_cross_point"]
    wordcount = fig7.notes["wordcount_cross_point"]
    artifact(
        "fig8_cross_ordering",
        "cross points ascend with shuffle/input ratio:\n"
        f"  dfsio (ratio ~0):   {format_size(dfsio)}\n"
        f"  grep (ratio 0.4):   {format_size(grep)}\n"
        f"  wordcount (1.6):    {format_size(wordcount)}",
    )
    assert dfsio < grep < wordcount
