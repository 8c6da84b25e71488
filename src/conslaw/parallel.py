"""Cartesian domain decomposition and halo exchange.

A rank layout is a tuple of counts, one per axis (x first), checked by
``local_grid``.  A run on it keeps its equal subdomains ("ranks") as one
stack: a field whose data has the shape ``(ncomp, R, *padded)``, ranks
numbered x fastest, so the rank axis reshapes to the rank grid and the stack
is a view ``(ncomp, Rz, Ry, Rx, *padded)``.  Only this module knows that
order.  ``solver.run_simulation``, the one entry point of every solve,
scatters the initial field into a stack (a serial run is a stack of one),
runs its halo pass each stage and stitches the result back; all ranks
advance in lockstep on the calling thread, since on one interpreter rank
threads cost more than they save.

Scatter and stitch are a reshape and a transpose of the interior, ``(c,
Ry*ly, Rx*lx) <-> (c, Ry, Rx, ly, lx)`` in 2D.  A halo pass is a list of
slab copies between views of the rank-grid view (``halo_plan``), built once
when a run binds its stack and run each stage by ``exchange_halos``, or, for
an Euler stack, by the compiled kernel from the views' offsets, shapes and
strides.  A serial run's pass is the plan of the 1x...x1 layout, and so is
``fill_boundary``, which fills the ghosts of a plain field.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .grid import BoundaryKind, Field, GridSpec, make_field, slab


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


def check_boundary(grid: GridSpec, bc, key=None) -> None:
    """The one check of boundary kinds on a grid: one per axis, and a
    periodic axis at least ``ghost_width`` cells long (its wrap copies that
    many interior cells).  ``key`` names the config key at fault."""
    if len(bc) != grid.dim:
        raise ConfigError(f"need {grid.dim} boundary kinds, got {len(bc)}")
    for axis, (n, kind) in enumerate(zip(grid.cells, bc)):
        if kind is BoundaryKind.PERIODIC and n < grid.ghost_width:
            raise ConfigError(f"periodic axis {axis} needs cells >= ghost_width "
                              f"({n} < {grid.ghost_width})", key=key)


def halo_plan(stack: Field, ranks, bc) -> list:
    """The slab copies of one halo pass over ``stack`` on the layout
    ``ranks``, in order: (destination, source) views of the stack's data.

    Axes come one after the other (x, then y, then z).  Along an axis of r
    ranks, the low ghosts of ranks [1, r) take the last interior cells of
    ranks [0, r-1), and the high ghosts of ranks [0, r-1) the first interior
    cells of ranks [1, r).  A periodic end is the same copy between rank r-1
    and rank 0 (with r = 1, the serial wrap); an outflow end repeats the
    nearest interior cell, on the end ranks only (its source is that cell,
    broadcast to the shape of the ghost slab, so every source has the shape
    of its destination).  A slab spans the padded extent of the other axes,
    so corners fill transitively, and no slab is written twice.
    """
    g, view, plan = stack.grid.ghost_width, _rank_grid(stack.data, ranks), []
    for axis, (n, r, kind) in enumerate(zip(stack.grid.cells, ranks, bc)):
        ax, rank_ax = -1 - axis, stack.grid.dim - axis

        def cells(lo, hi, first, last):
            """Cells [lo, hi) along the axis of ranks [first, last)."""
            return slab(slab(view, ax, lo, hi), rank_ax, first, last)

        periodic = kind is BoundaryKind.PERIODIC
        pairs = [  # between neighbour ranks (none when r = 1), then the two ends
            (cells(0, g, 1, r), cells(n, n + g, 0, r - 1)),
            (cells(n + g, n + 2 * g, 0, r - 1), cells(g, 2 * g, 1, r)),
            (cells(0, g, 0, 1), cells(n, n + g, r - 1, r) if periodic else cells(g, g + 1, 0, 1)),
            (cells(n + g, n + 2 * g, r - 1, r),
             cells(g, 2 * g, 0, 1) if periodic else cells(n + g - 1, n + g, r - 1, r)),
        ]
        # an outflow source is one cell thick, broadcast to the ghost slab
        plan += [(dst, np.broadcast_to(src, dst.shape)) for dst, src in pairs if dst.size]
    return plan


def exchange_halos(plan) -> None:
    """One halo pass: the slab copies of a ``halo_plan``, in order."""
    for dst, src in plan:
        dst[...] = src


def fill_boundary(field: Field, bc) -> Field:
    """Fill the ghosts of a plain field in place, and return it: the halo
    pass of one rank per axis.  Public API (``conslaw.__all__``) for a field
    of a user's own; a run builds its stack's halo plan once."""
    bc = tuple(bc)
    check_boundary(field.grid, bc)
    stack = Field(field.grid, field.ncomp, field.data[:, None])
    exchange_halos(halo_plan(stack, (1,) * field.grid.dim, bc))
    return field


def scatter_field(field: Field, ranks, stack: Field | None = None) -> Field:
    """The stack of ``field``'s subdomains on the layout ``ranks`` (checked
    by ``local_grid``), with ghosts zero; its grid is rank 0's.  Given
    ``stack``, a stack of that layout, the interior goes into it instead and
    its ghosts are kept."""
    if stack is None:
        local, c = local_grid(field.grid, ranks), field.ncomp
        stack = Field(local, c, np.zeros((c, math.prod(ranks)) + local.data_shape))
    _rank_grid(stack.interior, ranks)[...] = _subdomains(field.interior, ranks)
    return stack


def stitch_fields(stack: Field, ranks, grid: GridSpec) -> Field:
    """The global field on ``grid`` whose subdomains are the stack's ranks."""
    out = make_field(grid, stack.ncomp, 0.0)
    _subdomains(out.interior, ranks)[...] = _rank_grid(stack.interior, ranks)
    return out
