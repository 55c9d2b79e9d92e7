"""flatpencil: numerical construction and verification of compatible metric pairs.

The package is organized bottom-up:

- :mod:`flatpencil.grid_calculus` -- charts, tensor grids, finite differences
- :mod:`flatpencil.geometry_core` -- metrics, connections, curvature residuals
- :mod:`flatpencil.pencil_checker` -- compatibility notions for metric pairs
- :mod:`flatpencil.lame_system` -- orthogonal frames and rotation coefficients
- :mod:`flatpencil.two_component` -- the closed-form two-component family
- :mod:`flatpencil.zakharov_dressing` -- integral-equation construction of frames
- :mod:`flatpencil.catalog` -- frozen example configurations
- :mod:`flatpencil.cli` -- scenario runner
"""

__version__ = "0.1.0"

from .errors import FlatpencilError
from .grid_calculus import GridChart, TensorField
from .geometry_core import (
    MetricField,
    build_metric,
    connection,
    constant_curvature_residual,
    curvature,
    flatness_residual,
)
from .pencil_checker import (
    PencilSpec,
    check_almost_compatible,
    check_compatible,
    check_diagonal_form,
    combine,
    dubrovin_construct,
    nijenhuis,
    nonsingularity,
    partner_metric,
)
from .lame_system import (
    LameFrame,
    frame_from_metric,
    lame_residuals,
    metric_pair_from_frame,
    reduction_residual,
    tilde_frame,
)

__all__ = [
    "__version__",
    "FlatpencilError",
    "GridChart",
    "TensorField",
    "MetricField",
    "build_metric",
    "connection",
    "curvature",
    "flatness_residual",
    "constant_curvature_residual",
    "PencilSpec",
    "combine",
    "check_almost_compatible",
    "check_compatible",
    "check_diagonal_form",
    "nijenhuis",
    "nonsingularity",
    "dubrovin_construct",
    "partner_metric",
    "LameFrame",
    "frame_from_metric",
    "lame_residuals",
    "reduction_residual",
    "tilde_frame",
    "metric_pair_from_frame",
]
