"""Cartesian structured grid and cell-averaged field storage with ghost layers.

Memory layout convention (relied upon by the halo exchange and snapshot I/O):
``Field.data`` has shape ``(ncomp, n_last, ..., n_x)`` where the x axis is the
fastest-varying (last) numpy axis.  Spatial axis ``k`` (0 = x) therefore lives
at numpy axis ``1 + (dim - 1 - k)``, and always at ``-1 - k``: the solver's
stack of subdomains puts a rank axis between the components and the spatial
axes, ``(ncomp, R, n_last, ..., n_x)``, and the fills below work on either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError

#: guard against desk-scale misconfiguration blowing up memory
SIZE_CAP = 2 ** 28


class BoundaryKind(Enum):
    PERIODIC = "periodic"
    OUTFLOW = "outflow"


def data_axis(dim: int, axis: int) -> int:
    """Numpy axis in ``Field.data`` holding spatial axis ``axis``."""
    return 1 + (dim - 1 - axis)


def slab(arr: np.ndarray, ax: int, lo: int, hi: int) -> np.ndarray:
    """View of ``arr`` restricted to ``[lo, hi)`` along numpy axis ``ax``
    (negative counts from the end)."""
    idx = [slice(None)] * arr.ndim
    idx[ax] = slice(lo, hi)
    return arr[tuple(idx)]


@dataclass(frozen=True)
class GridSpec:
    """Uniform Cartesian grid over a box, with a ghost layer on every face."""

    dim: int
    cells: tuple
    origin: tuple
    extent: tuple
    ghost_width: int = 2
    # Explicit cell sizes; set by `decompose` so sub-grids inherit the global
    # deltas bitwise instead of recomputing extent/cells with fresh rounding.
    deltas: tuple | None = None

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ConfigError(f"dim must be 1, 2 or 3, got {self.dim}")
        for name in ("cells", "origin", "extent"):
            v = getattr(self, name)
            if len(v) != self.dim:
                raise ConfigError(f"{name} must have {self.dim} entries, got {len(v)}")
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "extent", tuple(float(v) for v in self.extent))
        if any(c < 1 for c in self.cells):
            raise ConfigError(f"all cell counts must be >= 1, got {self.cells}")
        if any(e <= 0 for e in self.extent):
            raise ConfigError(f"extent must be strictly positive, got {self.extent}")
        if self.ghost_width < 1:
            raise ConfigError(f"ghost_width must be >= 1, got {self.ghost_width}")
        if self.deltas is None:
            object.__setattr__(
                self,
                "deltas",
                tuple(e / c for e, c in zip(self.extent, self.cells)),
            )
        else:
            object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))

    @property
    def padded(self) -> tuple:
        return tuple(c + 2 * self.ghost_width for c in self.cells)

    @property
    def data_shape(self) -> tuple:
        """Spatial part of ``Field.data``'s shape (x fastest, i.e. last)."""
        return tuple(reversed(self.padded))

    @property
    def interior_shape(self) -> tuple:
        return tuple(reversed(self.cells))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.deltas)

    def cell_centers(self, axis: int) -> np.ndarray:
        """Interior cell-center coordinates along one axis."""
        return self.origin[axis] + (np.arange(self.cells[axis]) + 0.5) * self.deltas[axis]


def cell_center(grid: GridSpec, i) -> tuple:
    """Physical center of the interior cell with multi-index ``i`` (x first).

    Public API, exported from the package: the solver itself works on whole
    axes (``GridSpec.cell_centers``), but a user locating one cell of a
    snapshot, or the cell an error names (errors give it in (z, y, x)
    order), needs its coordinates.
    """
    i = tuple(i) if hasattr(i, "__len__") else (i,)
    if len(i) != grid.dim:
        raise ConfigError(f"index has {len(i)} entries for a {grid.dim}D grid")
    for k, ik in enumerate(i):
        if not 0 <= ik < grid.cells[k]:
            raise ConfigError(f"index {ik} out of range [0, {grid.cells[k]}) on axis {k}")
    return tuple(
        grid.origin[k] + (i[k] + 0.5) * grid.deltas[k] for k in range(grid.dim)
    )


@dataclass
class Field:
    """Dense cell-averaged state: ``data[c, ..., ix]`` with ghost padding.

    ``data`` may hold a rank axis after the component axis: a stack of
    subdomains that all have the shape and spacing of ``grid``.
    """

    grid: GridSpec
    ncomp: int
    data: np.ndarray

    @property
    def interior(self) -> np.ndarray:
        g = self.grid.ghost_width
        sl = (...,) + tuple(slice(g, g + n) for n in self.grid.interior_shape)
        return self.data[sl]

    def copy(self) -> "Field":
        return Field(self.grid, self.ncomp, self.data.copy())


def make_field(grid: GridSpec, ncomp: int, fill: float = 0.0) -> Field:
    if ncomp < 1:
        raise ConfigError(f"ncomp must be >= 1, got {ncomp}")
    total = ncomp * math.prod(grid.padded)
    if total > SIZE_CAP:
        raise ConfigError(f"field of {total} entries exceeds the size cap {SIZE_CAP}")
    data = np.full((ncomp,) + grid.data_shape, float(fill))
    return Field(grid, ncomp, data)


def field_from_interior(grid: GridSpec, interior: np.ndarray) -> Field:
    """New Field whose interior holds ``interior``; ghosts start at zero."""
    f = make_field(grid, interior.shape[0], 0.0)
    f.interior[...] = interior
    return f


def fill_axis(data: np.ndarray, grid: GridSpec, axis: int, kind: BoundaryKind) -> None:
    """Fill both ghost slabs of one axis in place, full extent in the others."""
    g = grid.ghost_width
    n = grid.cells[axis]
    ax = -1 - axis
    if kind is BoundaryKind.PERIODIC:
        if n < g:
            raise ConfigError(
                f"periodic axis {axis} needs cells >= ghost_width ({n} < {g})"
            )
        slab(data, ax, 0, g)[...] = slab(data, ax, n, n + g)
        slab(data, ax, n + g, n + 2 * g)[...] = slab(data, ax, g, 2 * g)
    else:  # outflow: zero-order extrapolation from the nearest interior cell
        slab(data, ax, 0, g)[...] = slab(data, ax, g, g + 1)
        slab(data, ax, n + g, n + 2 * g)[...] = slab(data, ax, n + g - 1, n + g)


def fill_boundary(field: Field, bc) -> Field:
    """Populate all ghost cells; sequential x, y, z passes so corners are
    filled transitively.  Mutates ``field`` and returns it."""
    bc = tuple(bc)
    if len(bc) != field.grid.dim:
        raise ConfigError(f"need {field.grid.dim} boundary kinds, got {len(bc)}")
    for axis in range(field.grid.dim):
        fill_axis(field.data, field.grid, axis, bc[axis])
    return field


def total_integral(field: Field) -> np.ndarray:
    """Per-component integral over the interior: sum(u) * cell volume."""
    interior = field.interior
    sums = interior.reshape(field.ncomp, -1).sum(axis=1)
    return sums * field.grid.cell_volume
