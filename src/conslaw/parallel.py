"""Cartesian domain decomposition and halo exchange.

A decomposed run splits the grid into equal subdomains ("ranks") that are
advanced in lockstep on the calling thread by the solver's one time loop
(``solver.advance``), the same loop that runs a serial run as a single
subdomain.  There are no rank threads and no overlap of communication with
computation: on one interpreter they cost more than they save.

Ranks communicate only through a message transport honoring the contract an
MPI implementation would: per-pair FIFO delivery, strictly increasing tags,
no loss, no duplication.  Halo passes run axis by axis (x then y then z) so
corner ghosts arrive transitively: 2*dim messages per fill instead of
3^dim - 1.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError
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


@dataclass
class HaloMessage:
    source: int
    dest: int
    axis: int
    side: int  # side of the *destination* being filled: 0 = low ghosts
    tag: int
    payload: np.ndarray


class Transport:
    """Abstract point-to-point message channel with per-pair FIFO delivery."""

    def send(self, msg: HaloMessage) -> None:
        raise NotImplementedError

    def receive(self, source: int, dest: int, axis: int, side: int, tag: int) -> np.ndarray:
        raise NotImplementedError


class InProcessTransport(Transport):
    """In-memory per-pair FIFO channels: the desk-scale stand-in for an MPI wire.

    Ranks run in lockstep on one thread, so a message is sent before it is
    received; an empty channel at a receive is a protocol error, raised at
    once rather than waited on.
    """

    def __init__(self, size: int):
        self.size = size
        self._channels = {
            (s, d): deque() for s in range(size) for d in range(size)
        }
        self._last_tag = {}

    def send(self, msg: HaloMessage) -> None:
        key = (msg.source, msg.dest)
        last = self._last_tag.get(key)
        if last is not None and msg.tag <= last:
            raise ProtocolError(
                f"tag {msg.tag} not increasing on pair {key} (last {last})"
            )
        self._last_tag[key] = msg.tag
        self._channels[key].append(msg)

    def receive(self, source, dest, axis, side, tag) -> np.ndarray:
        channel = self._channels[(source, dest)]
        if not channel:
            raise ProtocolError(
                f"no message {source}->{dest} tag {tag} sent before its receive"
            )
        msg = channel.popleft()
        if (msg.axis, msg.side, msg.tag) != (axis, side, tag):
            raise ProtocolError(
                f"message mismatch on pair ({source}, {dest}): expected "
                f"(axis={axis}, side={side}, tag={tag}), got "
                f"(axis={msg.axis}, side={msg.side}, tag={msg.tag})"
            )
        return msg.payload


def _face_slab(data: np.ndarray, grid: GridSpec, axis: int, lo: int, hi: int):
    return data[_sl(data.ndim, data_axis(grid.dim, axis), slice(lo, hi))]


def _subtag(tag: int, dim: int, axis: int, toward: int) -> int:
    """Tag of the message sent toward side ``toward`` of ``axis`` in pass
    ``tag``: increasing along every channel from pass to pass."""
    return (tag * dim + axis) * 2 + toward


def _send_slabs(field: Field, rank, topo, transport, axis, periodic, tag) -> None:
    """Send both boundary slabs of ``axis`` to the neighbors across them."""
    grid = field.grid
    g, n = grid.ghost_width, grid.cells[axis]
    for side, (lo, hi) in enumerate(((g, 2 * g), (n, n + g))):
        dest = topo.neighbor(rank, axis, side, periodic)
        if dest is None or dest == rank:
            continue
        payload = _face_slab(field.data, grid, axis, lo, hi).copy()
        transport.send(
            HaloMessage(rank, dest, axis, 1 - side, _subtag(tag, grid.dim, axis, side), payload)
        )


def _fill_ghosts(field: Field, rank, topo, transport, axis, periodic, tag) -> None:
    """Fill both ghost slabs of ``axis`` from the messages sent by
    ``_send_slabs`` or, at a physical boundary, by extrapolation."""
    grid = field.grid
    g, n = grid.ghost_width, grid.cells[axis]
    if topo.neighbor(rank, axis, 0, periodic) == rank:
        # alone along a periodic axis: plain wrap
        fill_axis(field.data, grid, axis, BoundaryKind.PERIODIC)
        return
    # high ghosts first: where one channel carries both slabs (2 ranks along
    # a periodic axis), the slab sent toward the low side, which fills the
    # high ghosts, was sent first
    for side, (lo, hi), edge in ((1, (n + g, n + 2 * g), n + g - 1), (0, (0, g), g)):
        source = topo.neighbor(rank, axis, side, periodic)
        ghosts = _face_slab(field.data, grid, axis, lo, hi)
        if source is None:
            # zero-order extrapolation from the nearest interior cell
            ghosts[...] = _face_slab(field.data, grid, axis, edge, edge + 1)
        else:
            ghosts[...] = transport.receive(
                source, rank, axis, side, _subtag(tag, grid.dim, axis, 1 - side)
            )


def _direct(rank, fn, *args):
    return fn(*args)


def exchange_halos(
    fields: list[Field],
    topo: RankTopology,
    transport: Transport,
    bc,
    tag: int,
    on_rank=_direct,
) -> None:
    """One ordered halo pass: fill every ghost slab of every rank's field
    from neighbor interiors (or physical boundaries), in place.

    Along each axis every rank first sends its boundary slabs, then every
    rank fills its ghosts, so a receive never waits.  The slab sent along an
    axis spans the full padded extent of the other axes, so ghosts filled
    for earlier axes propagate into corners.  Each rank's part runs as
    ``on_rank(rank, fn, *args)``, which lets the time loop time it and name
    the rank in an error.
    """
    for axis in range(topo.dim):
        periodic = bc[axis] is BoundaryKind.PERIODIC
        for step in (_send_slabs, _fill_ghosts):
            for rank, field in enumerate(fields):
                on_rank(rank, step, field, rank, topo, transport, axis, periodic, tag)


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
    transport = InProcessTransport(topo.size)
    tags = itertools.count(1)

    def fill(stages, on_rank):
        exchange_halos(stages, topo, transport, cfg.bc, next(tags), on_rank)

    return advance(
        scatter_field(init, parts), cfg, fill,
        lambda fields: stitch_fields(init.grid, parts, fields),
        observers, n_steps, None if n_steps is not None else cfg.t_end,
    )


# ---------------------------------------------------------------------------
# Weak-scaling overhead metric
# ---------------------------------------------------------------------------


@dataclass
class OverheadReport:
    ranks: int
    mean_seconds: float
    baseline_seconds: float
    overhead_fraction: float


def overhead_metric(times_K, times_1, ranks: int) -> OverheadReport:
    """Communication overhead of a weak-scaling run:
    (runtime/step at K ranks - runtime/step at 1 rank) / runtime/step at 1 rank.
    """
    times_K = list(times_K)
    times_1 = list(times_1)
    if not times_K or not times_1:
        raise ConfigError("overhead metric needs non-empty timing series")
    mean_K = sum(times_K) / len(times_K)
    mean_1 = sum(times_1) / len(times_1)
    return OverheadReport(ranks, mean_K, mean_1, (mean_K - mean_1) / mean_1)
