"""Analysis layer: regenerate the paper's figures and tables."""

from .figures import (Bar, BarGroup, FigureData, contention_slowdown,
                      figure_from_capacity_sweep, figure_from_cluster_sweep,
                      figure_from_contention_sweep,
                      figure_from_protocol_sweep, render_ascii,
                      render_rows, render_scaling,
                      render_shape_comparison, render_slowdown)
from .missclass import (MissBreakdownRow, merge_anatomy, miss_breakdown,
                        render_miss_breakdown)
from .tables import (render_comparison, render_cost_table,
                     render_protocol_comparison, render_table1,
                     render_table4, render_table5)

__all__ = [
    "Bar", "BarGroup", "FigureData",
    "figure_from_cluster_sweep", "figure_from_capacity_sweep",
    "figure_from_contention_sweep", "figure_from_protocol_sweep",
    "contention_slowdown",
    "render_rows", "render_ascii", "render_scaling",
    "render_shape_comparison", "render_slowdown",
    "MissBreakdownRow", "miss_breakdown", "merge_anatomy",
    "render_miss_breakdown",
    "render_table1", "render_table4", "render_table5", "render_cost_table",
    "render_comparison", "render_protocol_comparison",
]
