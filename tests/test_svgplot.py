import pytest

from quagd.svgplot import line_plot_svg


def test_no_curves_rejected():
    with pytest.raises(ValueError, match="at least one curve"):
        line_plot_svg([], title="t")
