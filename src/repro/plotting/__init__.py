"""Terminal (ASCII) plotting for figure series."""

from repro._lazy import lazy_exports

__all__ = ["ascii_plot", "plot_figure_series"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.plotting.ascii": ("ascii_plot", "plot_figure_series"),
})
