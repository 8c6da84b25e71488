"""Cartesian domain decomposition and halo exchange.

A decomposed run splits the grid into equal subdomains ("ranks") and keeps
them as one stack: a field whose data has the shape ``(ncomp, R, *padded)``,
with the rank axis right after the components.  The solver's one time loop
(``solver.advance``), which runs a serial run as a stack of one, advances
all ranks in lockstep on the calling thread, with one ``spatial_residual``
call per stage for the whole stack.  There are no rank threads and no
overlap of communication with computation: on one interpreter they cost
more than they save.

Scattering a global field into the stack and stitching it back are a
reshape and a transpose of the interior, ``(c, Ry*ly, Rx*lx) <-> (c, R, ly,
lx)`` in 2D.  A halo pass is slab assignments inside the stack: each ghost
slab that faces another rank is copied from that rank's interior slab, one
fancy-indexed copy per axis and side; physical ends, and axes with a single
rank, use the serial ``grid.fill_axis``.  Passes run axis by axis (x then y
then z) so corner ghosts arrive transitively, as in ``grid.fill_boundary``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import BoundaryKind, Field, GridSpec, fill_axis, make_field, slab
from .solver import SchemeConfig, advance, check_scheme


@dataclass(frozen=True)
class RankTopology:
    """Cartesian layout of ranks; rank 0 is at the origin, x fastest."""

    ranks_per_axis: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "ranks_per_axis", tuple(int(r) for r in self.ranks_per_axis)
        )
        if any(r < 1 for r in self.ranks_per_axis):
            raise ConfigError(f"ranks per axis must be >= 1, got {self.ranks_per_axis}")

    @property
    def dim(self) -> int:
        return len(self.ranks_per_axis)

    @property
    def size(self) -> int:
        return math.prod(self.ranks_per_axis)

    def coords(self, rank: int) -> tuple:
        out = []
        for r in self.ranks_per_axis:
            out.append(rank % r)
            rank //= r
        return tuple(out)

    def rank_of(self, coords) -> int:
        rank = 0
        for c, r in zip(reversed(coords), reversed(self.ranks_per_axis)):
            rank = rank * r + c
        return rank

    def neighbor(self, rank: int, axis: int, side: int, periodic: bool):
        """Rank across the given face (side 0 = low, 1 = high), or None."""
        c = list(self.coords(rank))
        c[axis] += 1 if side else -1
        r = self.ranks_per_axis[axis]
        if 0 <= c[axis] < r:
            return self.rank_of(c)
        if not periodic:
            return None
        c[axis] %= r
        return self.rank_of(c)


@dataclass(frozen=True)
class Subdomain:
    rank: int
    grid: GridSpec
    offset: tuple


def decompose(grid: GridSpec, topo: RankTopology) -> list[Subdomain]:
    """Tile the global grid exactly; local grids inherit the global deltas."""
    if topo.dim != grid.dim:
        raise ConfigError(
            f"topology dim {topo.dim} does not match grid dim {grid.dim}"
        )
    for axis, (n, r) in enumerate(zip(grid.cells, topo.ranks_per_axis)):
        if n % r != 0:
            raise ConfigError(
                f"{n} cells on axis {axis} not divisible by {r} ranks"
            )
        # a halo slab is ghost_width interior cells thick
        if r > 1 and n // r < grid.ghost_width:
            raise ConfigError(
                f"{n // r} cells per rank on axis {axis} is fewer than the "
                f"ghost width {grid.ghost_width}"
            )
    local_cells = tuple(n // r for n, r in zip(grid.cells, topo.ranks_per_axis))
    out = []
    for rank in range(topo.size):
        coords = topo.coords(rank)
        offset = tuple(c * m for c, m in zip(coords, local_cells))
        origin = tuple(
            grid.origin[k] + offset[k] * grid.deltas[k] for k in range(grid.dim)
        )
        extent = tuple(m * d for m, d in zip(local_cells, grid.deltas))
        local = GridSpec(
            grid.dim, local_cells, origin, extent,
            ghost_width=grid.ghost_width, deltas=grid.deltas,
        )
        out.append(Subdomain(rank, local, offset))
    return out


def exchange_halos(stack: Field, topo: RankTopology, bc) -> None:
    """One ordered halo pass: fill every ghost slab of every rank of the
    stack from neighbor interiors (or physical boundaries), in place.

    Axes are filled one after the other (x, then y, then z).  A ghost slab
    of one axis reads only cells interior along that axis, and it spans the
    full padded extent of the other axes, so ghosts filled for earlier axes
    propagate into corners exactly as in the serial ``fill_boundary``.
    """
    data, grid = stack.data, stack.grid
    g = grid.ghost_width
    for axis in range(topo.dim):
        kind = bc[axis]
        if kind is BoundaryKind.OUTFLOW or topo.ranks_per_axis[axis] == 1:
            # every rank: the faces between ranks are overwritten below
            fill_axis(data, grid, axis, kind)
        if topo.ranks_per_axis[axis] == 1:
            continue
        n, ax = grid.cells[axis], -1 - axis
        periodic = kind is BoundaryKind.PERIODIC
        # low ghosts read the low neighbor's last interior cells, high ghosts
        # the high neighbor's first ones
        for side, ghosts, source in (
            (0, (0, g), (n, n + g)),
            (1, (n + g, n + 2 * g), (g, 2 * g)),
        ):
            ranks, sources = _facing(topo, axis, side, periodic)
            slab(data, ax, *ghosts)[:, ranks] = slab(data, ax, *source)[:, sources]


@functools.lru_cache(maxsize=256)
def _facing(topo: RankTopology, axis: int, side: int, periodic: bool) -> tuple:
    """(ranks, neighbors): each rank that has a neighbor across the given
    face, and that neighbor.  Cached: a halo pass runs every stage."""
    def neighbor(rank):
        return topo.neighbor(rank, axis, side, periodic)

    ranks = tuple(rank for rank in range(topo.size) if neighbor(rank) is not None)
    return ranks, tuple(neighbor(rank) for rank in ranks)


def _blocks(topo: RankTopology, local: GridSpec) -> tuple:
    """Shape that splits each spatial axis of a global interior into (ranks,
    local cells), and the axis order that gathers the rank axes after the
    component axis, slowest (z) first, so that they flatten to rank order."""
    pairs = tuple(zip(reversed(topo.ranks_per_axis), local.interior_shape))
    shape = tuple(v for pair in pairs for v in pair)
    d = topo.dim
    order = (0,) + tuple(range(1, 2 * d, 2)) + tuple(range(2, 2 * d + 1, 2))
    return shape, order


def scatter_field(field: Field, topo: RankTopology) -> Field:
    """The stack of ``field``'s subdomains, ranks in ``RankTopology`` order,
    with ghosts zero; its grid is rank 0's."""
    local = decompose(field.grid, topo)[0].grid
    shape, order = _blocks(topo, local)
    c = field.ncomp
    stack = Field(local, c, np.zeros((c, topo.size) + local.data_shape))
    stack.interior[...] = (
        field.interior.reshape((c,) + shape).transpose(order)
        .reshape((c, topo.size) + local.interior_shape)
    )
    return stack


def stitch_fields(stack: Field, topo: RankTopology, grid: GridSpec) -> Field:
    """The global field on ``grid`` whose subdomains are the stack's ranks."""
    _, order = _blocks(topo, stack.grid)
    c = stack.ncomp
    out = make_field(grid, c, 0.0)
    ranks = tuple(reversed(topo.ranks_per_axis))
    out.interior[...] = (
        stack.interior.reshape((c,) + ranks + stack.grid.interior_shape)
        .transpose(np.argsort(order))
        .reshape((c,) + grid.interior_shape)
    )
    return out


def run_parallel(
    init: Field,
    cfg: SchemeConfig,
    ranks_per_axis,
    n_steps: int | None = None,
    observers=(),
):
    """Advance a decomposed run; returns the stitched final field and the
    step records.

    ``n_steps`` fixes the step count (used by benchmarks) and ignores
    ``cfg.t_end``; otherwise the run stops at ``cfg.t_end``.  Observers see
    the stitched field, as in ``run_simulation``.  The result is bitwise
    identical for every rank layout, including the 1-rank serial path.
    """
    check_scheme(init.grid, cfg)
    topo = RankTopology(tuple(ranks_per_axis))
    return advance(
        scatter_field(init, topo), cfg,
        lambda stack: exchange_halos(stack, topo, cfg.bc),
        lambda stack: stitch_fields(stack, topo, init.grid),
        observers, n_steps, None if n_steps is not None else cfg.t_end,
    )
