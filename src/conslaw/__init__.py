"""Structured-grid finite volume solver for hyperbolic conservation laws
with built-in sampling-based uncertainty quantification."""

__version__ = "0.1.0"

import gc
import os
import sys

# A collection during these imports walks the growing module graph, numpy's
# included, and frees nothing; the caller's collector state comes back after.
# numpy's OpenBLAS starts a worker per extra CPU as it loads, which spins on
# the CPU of the kernel's helper; conslaw calls no BLAS routine, so OpenBLAS
# loads with one thread, unless the caller set a thread count or loaded numpy
# first.  It reads the variable once, at load; the environment comes back after.
_collecting = gc.isenabled()
_one_blas_thread = "numpy" not in sys.modules and not any(
    key in os.environ
    for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
)
gc.disable()
if _one_blas_thread:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
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
    if _one_blas_thread:
        del os.environ["OPENBLAS_NUM_THREADS"]
    if _collecting:
        gc.enable()
    del _collecting, _one_blas_thread

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
