"""Wave model of finite and 1-D metric spaces.

Constructs metric neighborhoods, lattice-valued functions of a radius,
order limits of decreasing nets, nuclei, atoms and the wave distance, and
checks at desk scale that the resulting atom space is isometric to the
original space on backends satisfying the ball-compactness and two-radii
separation conditions.

The package exports the names in ``__all__``; everything else is reached
through its module, e.g. ``wavemodel.lattice.b_star_lower``.
"""

from .metric import (
    AxiomViolation,
    FiniteMetricSpace,
    MetricError,
    build_discrete,
    build_from_graph,
    build_from_matrix,
    build_from_points,
    build_segment_sample,
    condition2_report,
    wave_distance_matrix,
)
from .lattice import (
    GridError,
    NetError,
    TimeGrid,
    WaveModelResult,
    default_grid,
    make_grid,
    wave_model,
)
from .interval1d import IntervalError
from .formats import ParseError, load_edges, load_matrix_csv, load_points_csv

__all__ = [
    "FiniteMetricSpace",
    "build_discrete",
    "build_from_graph",
    "build_from_matrix",
    "build_from_points",
    "build_segment_sample",
    "load_edges",
    "load_matrix_csv",
    "load_points_csv",
    "TimeGrid",
    "make_grid",
    "default_grid",
    "wave_model",
    "WaveModelResult",
    "condition2_report",
    "wave_distance_matrix",
    "MetricError",
    "AxiomViolation",
    "GridError",
    "NetError",
    "ParseError",
    "IntervalError",
]

__version__ = "0.1.0"
