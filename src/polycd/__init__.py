"""Solvers and benchmarks for smooth convex minimization over
vertex-enumerated polytopes."""

from ._kernels import active_backend, HAVE_NUMBA
from .polytope import (
    ExplicitVertices,
    L1Ball,
    PolytopeError,
    StandardSimplex,
    UnsupportedSizeError,
    VertexPolytope,
    project_l1_ball,
    project_simplex,
)
from .objectives import (
    KdeHuber,
    LeastSquares,
    Logistic,
    Quadratic,
    SegmentQuery,
    bisect_line_min,
    grad_step_alpha,
)
from .solvers import (
    GRAD_1D,
    LINE_SEARCH,
    AwayState,
    ConsistencyError,
    SolveConfig,
    TraceRecord,
    polycd_solve,
    polycdwa_solve,
    start_weights,
    weight_refresh,
)

__version__ = "0.1.0"

__all__ = [
    "AwayState", "ConsistencyError", "ExplicitVertices", "GRAD_1D",
    "HAVE_NUMBA", "KdeHuber", "L1Ball", "LINE_SEARCH", "LeastSquares",
    "Logistic", "PolytopeError", "Quadratic", "SegmentQuery", "SolveConfig",
    "StandardSimplex", "TraceRecord", "UnsupportedSizeError",
    "VertexPolytope", "active_backend", "bisect_line_min", "grad_step_alpha",
    "polycd_solve", "polycdwa_solve", "project_l1_ball", "project_simplex",
    "start_weights", "weight_refresh",
]
