"""Structured-grid finite volume solver for hyperbolic conservation laws
with built-in sampling-based uncertainty quantification."""

__version__ = "0.1.0"

from .grid import (  # noqa: E402
    BoundaryKind,
    Field,
    GridSpec,
    cell_center,
    make_field,
    total_integral,
)
from .parallel import fill_boundary  # noqa: E402
from .equations import EquationModel  # noqa: E402
from .numerics import FluxKind, Reconstruction, ReconstructionKind  # noqa: E402
from .solver import SchemeConfig, run_simulation, stable_dt  # noqa: E402

__all__ = [
    "__version__",
    "BoundaryKind",
    "Field",
    "GridSpec",
    "cell_center",
    "fill_boundary",
    "make_field",
    "total_integral",
    "EquationModel",
    "FluxKind",
    "Reconstruction",
    "ReconstructionKind",
    "SchemeConfig",
    "run_simulation",
    "stable_dt",
]
