"""Cartesian domain decomposition and halo exchange.

A decomposed run splits the grid into equal subdomains ("ranks") that are
advanced in lockstep on the calling thread by the solver's one time loop
(``solver.advance``), the same loop that runs a serial run as a single
subdomain.  There are no rank threads and no overlap of communication with
computation: on one interpreter they cost more than they save.

A halo pass copies each ghost slab straight from the neighbor's interior
slab; physical ends, and ranks alone along a periodic axis, use the serial
``grid.fill_axis``.  Passes run axis by axis (x then y then z) so corner
ghosts arrive transitively, as in ``grid.fill_boundary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import (
    BoundaryKind,
    Field,
    GridSpec,
    _sl,
    data_axis,
    field_from_interior,
    fill_axis,
    make_field,
)
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


def _face_slab(data: np.ndarray, grid: GridSpec, axis: int, lo: int, hi: int):
    return data[_sl(data.ndim, data_axis(grid.dim, axis), slice(lo, hi))]


def _fill_rank_axis(fields: list[Field], rank, topo, axis, kind) -> None:
    """Fill both ghost slabs of ``axis`` of one rank's field in place.

    At a physical end, or alone along a periodic axis, the serial
    ``fill_axis`` fills them; a slab that faces another rank is then
    overwritten with a copy of that rank's interior slab.
    """
    field = fields[rank]
    grid = field.grid
    g, n = grid.ghost_width, grid.cells[axis]
    periodic = kind is BoundaryKind.PERIODIC
    low, high = (topo.neighbor(rank, axis, side, periodic) for side in (0, 1))
    if low is None or high is None or low == rank:
        fill_axis(field.data, grid, axis, kind)
    for source, ghosts, slab in (
        (low, (0, g), (n, n + g)),
        (high, (n + g, n + 2 * g), (g, 2 * g)),
    ):
        if source is not None and source != rank:
            _face_slab(field.data, grid, axis, *ghosts)[...] = _face_slab(
                fields[source].data, grid, axis, *slab
            )


def _direct(rank, fn, *args):
    return fn(*args)


def exchange_halos(fields: list[Field], topo: RankTopology, bc, on_rank=_direct) -> None:
    """One ordered halo pass: fill every ghost slab of every rank's field
    from neighbor interiors (or physical boundaries), in place.

    Axes are filled one after the other (x, then y, then z), every rank
    along one axis before the next axis.  A ghost slab of one axis reads
    only cells interior along that axis, and it spans the full padded
    extent of the other axes, so ghosts filled for earlier axes propagate
    into corners exactly as in the serial ``fill_boundary``.  Each rank's
    part runs as ``on_rank(rank, fn, *args)``, which lets the time loop time
    it and name the rank in an error.
    """
    for axis in range(topo.dim):
        for rank in range(len(fields)):
            on_rank(rank, _fill_rank_axis, fields, rank, topo, axis, bc[axis])


def _interior_slice(part: Subdomain) -> tuple:
    """Index of a subdomain's cells in the global interior (x last)."""
    return (slice(None),) + tuple(
        slice(o, o + n) for o, n in zip(reversed(part.offset), reversed(part.grid.cells))
    )


def scatter_field(global_field: Field, parts: list[Subdomain]) -> list[Field]:
    return [
        field_from_interior(part.grid, global_field.interior[_interior_slice(part)])
        for part in parts
    ]


def stitch_fields(global_grid: GridSpec, parts: list[Subdomain], locals_: list[Field]) -> Field:
    out = make_field(global_grid, locals_[0].ncomp, 0.0)
    for part, local in zip(parts, locals_):
        out.interior[_interior_slice(part)] = local.interior
    return out


def run_parallel(
    init: Field,
    cfg: SchemeConfig,
    ranks_per_axis,
    n_steps: int | None = None,
    observers=(),
):
    """Advance a decomposed run; returns the stitched final field and the
    per-rank step records.

    ``n_steps`` fixes the step count (used by benchmarks) and ignores
    ``cfg.t_end``; otherwise the run stops at ``cfg.t_end``.  Observers see
    the stitched field, as in ``run_simulation``.  The result is bitwise
    identical for every rank layout, including the 1-rank serial path.
    """
    check_scheme(init.grid, cfg)
    topo = RankTopology(tuple(ranks_per_axis))
    parts = decompose(init.grid, topo)

    def fill(stages, on_rank):
        exchange_halos(stages, topo, cfg.bc, on_rank)

    return advance(
        scatter_field(init, parts), cfg, fill,
        lambda fields: stitch_fields(init.grid, parts, fields),
        observers, n_steps, None if n_steps is not None else cfg.t_end,
    )
