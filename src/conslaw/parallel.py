"""Cartesian domain decomposition and halo exchange.

A rank layout is a tuple of counts, one per axis (x first), checked by
``local_grid``.  A run on it keeps its equal subdomains ("ranks") as one
stack: a field whose data has the shape ``(ncomp, R, *padded)``, ranks
numbered x fastest, so the rank axis reshapes to the rank grid and the stack
is a view ``(ncomp, Rz, Ry, Rx, *padded)``.  Only this module knows that
order.  ``solver.run_simulation``, the one entry point of every solve,
scatters the initial field into a stack (a serial run is a stack of one),
calls ``exchange_halos`` each stage and stitches the result back; all ranks
advance in lockstep on the calling thread, since on one interpreter rank
threads cost more than they save.

Scatter and stitch are a reshape and a transpose of the interior, ``(c,
Ry*ly, Rx*lx) <-> (c, Ry, Rx, ly, lx)`` in 2D.  A halo pass is basic slicing
of the rank-grid view: along an axis split over r ranks, the low ghosts of
ranks [1, r) take the last interior cells of ranks [0, r-1) and the high
ghosts of ranks [0, r-1) the first interior cells of ranks [1, r); a
periodic axis adds the same two assignments between the last rank and the
first.  Physical ends, and axes with a single rank, use ``grid.fill_axis``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .grid import BoundaryKind, Field, GridSpec, fill_axis, make_field, slab


def local_grid(grid: GridSpec, ranks) -> GridSpec:
    """The grid of each subdomain of ``grid`` on the rank layout ``ranks``,
    placed at rank 0; it inherits the global cell sizes bitwise.

    The one check of a layout: one count per axis, each >= 1, dividing the
    axis' cells, and on a split axis at least ``ghost_width`` cells per rank
    (a halo slab is that many interior cells thick).
    """
    if len(ranks) != grid.dim:
        raise ConfigError(f"rank layout {tuple(ranks)} does not match grid dim {grid.dim}")
    if any(r < 1 for r in ranks):
        raise ConfigError(f"ranks per axis must be >= 1, got {tuple(ranks)}")
    for axis, (n, r) in enumerate(zip(grid.cells, ranks)):
        if n % r != 0:
            raise ConfigError(f"{n} cells on axis {axis} not divisible by {r} ranks")
        if r > 1 and n // r < grid.ghost_width:
            raise ConfigError(
                f"{n // r} cells per rank on axis {axis} is fewer than the "
                f"ghost width {grid.ghost_width}"
            )
    cells = tuple(n // r for n, r in zip(grid.cells, ranks))
    return GridSpec(
        grid.dim, cells, grid.origin, tuple(m * d for m, d in zip(cells, grid.deltas)),
        ghost_width=grid.ghost_width, deltas=grid.deltas,
    )


def _rank_grid(a: np.ndarray, ranks) -> np.ndarray:
    """View of a stack array ``(c, R, ...)`` with the rank axis split into
    the rank grid ``(Rz, Ry, Rx)``, x fastest.  Splitting one axis never
    copies, so writes to the view land in ``a``."""
    return a.reshape(a.shape[:1] + tuple(reversed(ranks)) + a.shape[2:])


def _subdomains(interior: np.ndarray, ranks) -> np.ndarray:
    """View of a global interior ``(c, Rz*lz, Ry*ly, Rx*lx)`` as the blocks
    of its subdomains, ``(c, Rz, Ry, Rx, lz, ly, lx)``."""
    d = len(ranks)
    split = [v for r, n in zip(reversed(ranks), interior.shape[1:]) for v in (r, n // r)]
    order = (0,) + tuple(range(1, 2 * d, 2)) + tuple(range(2, 2 * d + 1, 2))
    return interior.reshape(interior.shape[:1] + tuple(split)).transpose(order)


def exchange_halos(stack: Field, ranks, bc) -> None:
    """One ordered halo pass: fill every ghost slab of every rank of the
    stack from neighbor interiors (or physical boundaries), in place.

    Axes are filled one after the other (x, then y, then z).  A ghost slab
    of one axis reads only cells interior along that axis, and it spans the
    full padded extent of the other axes, so ghosts filled for earlier axes
    propagate into corners exactly as in the serial ``fill_boundary``.
    """
    data, grid = stack.data, stack.grid
    g = grid.ghost_width
    view = _rank_grid(data, ranks)
    for axis, (kind, r) in enumerate(zip(bc, ranks)):
        if kind is BoundaryKind.OUTFLOW or r == 1:
            # every rank: the faces between ranks are overwritten below
            fill_axis(data, grid, axis, kind)
        if r == 1:
            continue
        n, ax, rank_ax = grid.cells[axis], -1 - axis, grid.dim - axis
        low, high = slab(view, ax, 0, g), slab(view, ax, n + g, n + 2 * g)
        first, last = slab(view, ax, g, 2 * g), slab(view, ax, n, n + g)
        # (low, high) rank slices that face each other across this axis
        pairs = [((0, r - 1), (1, r))]
        if kind is BoundaryKind.PERIODIC:
            pairs.append(((r - 1, r), (0, 1)))
        for lo, hi in pairs:
            slab(low, rank_ax, *hi)[...] = slab(last, rank_ax, *lo)
            slab(high, rank_ax, *lo)[...] = slab(first, rank_ax, *hi)


def scatter_field(field: Field, ranks) -> Field:
    """The stack of ``field``'s subdomains on the layout ``ranks`` (checked
    by ``local_grid``), with ghosts zero; its grid is rank 0's."""
    local, c = local_grid(field.grid, ranks), field.ncomp
    stack = Field(local, c, np.zeros((c, math.prod(ranks)) + local.data_shape))
    _rank_grid(stack.interior, ranks)[...] = _subdomains(field.interior, ranks)
    return stack


def stitch_fields(stack: Field, ranks, grid: GridSpec) -> Field:
    """The global field on ``grid`` whose subdomains are the stack's ranks."""
    out = make_field(grid, stack.ncomp, 0.0)
    _subdomains(out.interior, ranks)[...] = _rank_grid(stack.interior, ranks)
    return out
