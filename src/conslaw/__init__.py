"""Structured-grid finite volume solver for hyperbolic conservation laws
with built-in sampling-based uncertainty quantification."""

__version__ = "0.1.0"

import gc

# A collection during these imports walks the growing module graph, numpy's
# included, and frees nothing; the caller's collector state comes back after.
_collecting = gc.isenabled()
gc.disable()
try:
    from .grid import (
        BoundaryKind,
        Field,
        GridSpec,
        cell_center,
        make_field,
        total_integral,
    )
    from .parallel import fill_boundary
    from .equations import EquationModel
    from .numerics import FluxKind, Reconstruction, ReconstructionKind
    from .solver import SchemeConfig, run_simulation, stable_dt
finally:
    if _collecting:
        gc.enable()
    del _collecting

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
