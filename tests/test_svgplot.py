import pytest

from quagd import svgplot
from quagd.svgplot import line_plot_svg


def test_no_curves_rejected():
    with pytest.raises(ValueError, match="at least one curve"):
        line_plot_svg([], title="t")


def test_flat_curve_lies_on_the_bottom_edge():
    # every value equal: the y axis spans one decade up from it
    svg = line_plot_svg([("flat", [1.0, 1.0, 1.0])], title="t")
    points = svg.split('points="', 1)[1].split('"', 1)[0].split()
    bottom = svgplot._HEIGHT - svgplot._MARGIN
    assert [float(p.split(",")[1]) for p in points] == [bottom] * 3
