"""Semi-discrete finite volume operator, CFL control and SSP Runge-Kutta.

The residual of cell i is -sum_k (F_{i+1/2 e_k} - F_{i-1/2 e_k}) / delta_k,
with each interface flux computed once and shared by both neighbours.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .equations import (
    EULER,
    EquationModel,
    max_wave_speeds,
    physical_mask,
    require_mask,
)
from .errors import (
    ConfigError,
    ProtocolError,
    SimulationError,
    StaticFieldError,
    UnphysicalStateError,
)
from .grid import (
    BoundaryKind,
    Field,
    GridSpec,
    _sl,
    data_axis,
    field_from_interior,
    fill_boundary,
)
from .numerics import (
    FluxKind,
    Reconstruction,
    ReconstructionKind,
    euler_side,
    numerical_flux,
    reconstruct_axis,
)


@dataclass(frozen=True)
class SchemeConfig:
    model: EquationModel
    flux: FluxKind = FluxKind.RUSANOV
    recon: Reconstruction = Reconstruction()
    rk_order: int = 2
    cfl: float = 0.475
    t_end: float = 1.0
    bc: tuple = ()

    def __post_init__(self):
        if self.rk_order not in (1, 2, 3):
            raise ConfigError(f"rk_order must be 1, 2 or 3, got {self.rk_order}")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.t_end < 0.0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if self.flux is FluxKind.HLLC and self.model.kind != EULER:
            raise ConfigError("HLLC flux requires the Euler equations")
        if not self.bc:
            object.__setattr__(
                self, "bc", (BoundaryKind.PERIODIC,) * self.model.dim
            )
        if len(self.bc) != self.model.dim:
            raise ConfigError(
                f"need {self.model.dim} boundary kinds, got {len(self.bc)}"
            )


@dataclass
class TimeStepRecord:
    step: int
    t: float
    dt: float
    seconds: float


def check_scheme(grid: GridSpec, cfg: SchemeConfig) -> None:
    """Solver-assembly validation: stencil must fit in the ghost layer."""
    if cfg.recon.radius > grid.ghost_width:
        raise ConfigError(
            f"ghost_width {grid.ghost_width} too small for reconstruction "
            f"radius {cfg.recon.radius}"
        )


def spatial_residual(field: Field, cfg: SchemeConfig) -> np.ndarray:
    """Time derivative of the interior cell averages (ghosts must be filled)."""
    grid = field.grid
    model = cfg.model
    check_scheme(grid, cfg)
    g = grid.ghost_width
    nd = field.data.ndim

    mask = physical_mask(model, field.interior)
    if not mask.all():
        idx = tuple(int(i) for i in np.argwhere(~np.atleast_1d(mask))[0])
        raise SimulationError(f"unphysical state in interior cell {idx}")

    out = np.zeros((field.ncomp,) + grid.interior_shape)
    euler = model.kind == EULER
    fallback = euler and cfg.recon.kind is not ReconstructionKind.NONE
    for axis in range(grid.dim):
        ax = data_axis(grid.dim, axis)
        n = grid.cells[axis]
        # crop transverse axes to the interior before reconstructing
        sub = field.data
        for other in range(grid.dim):
            if other != axis:
                oax = data_axis(grid.dim, other)
                sub = sub[_sl(nd, oax, slice(g, g + grid.cells[other]))]
        # a contiguous copy with this axis first: every stencil shift is then
        # a run of whole contiguous blocks, which numpy loops over fastest
        sub = np.ascontiguousarray(sub.swapaxes(ax, 1))
        faces = reconstruct_axis(sub, 1, n, g, cfg.recon)
        if euler:
            # one primitive pass per side feeds the fallback, the check and the flux
            faces = (euler_side(model, faces.uL), euler_side(model, faces.uR))
            if fallback:
                faces = _positivity_fallback(model, sub, n, g, faces)
            for side in faces:
                if not side.ok.all():
                    # in grid layout, so that the error names the face's cell
                    require_mask(side.u.swapaxes(1, ax), side.ok.swapaxes(0, ax - 1))
        F = numerical_flux(model, cfg.flux, faces, axis)
        diff = F[:, 1:] - F[:, :-1]
        diff /= grid.deltas[axis]
        out -= diff.swapaxes(1, ax)
    return out


def _positivity_fallback(model, sub, n, g, faces) -> tuple:
    """Replace faces with an unphysical side by piecewise-constant states.

    ``faces`` is the (left, right) pair of EulerSides reconstructed along
    axis 1 of ``sub``.
    """
    left, right = faces
    ok = left.ok & right.ok
    if ok.all():
        return faces
    pc = reconstruct_axis(sub, 1, n, g, Reconstruction(ReconstructionKind.NONE))
    return (
        euler_side(model, np.where(ok, left.u, pc.uL)),
        euler_side(model, np.where(ok, right.u, pc.uR)),
    )


def wave_speed_maxima(field: Field, cfg: SchemeConfig) -> np.ndarray:
    """Per-axis maximum wave speed over the interior cells."""
    speeds = max_wave_speeds(cfg.model, field.interior)
    return np.array([float(np.max(s)) for s in speeds])


def dt_from_maxima(maxima: np.ndarray, deltas, cfl: float, remaining: float | None = None) -> float:
    """CFL timestep from per-axis speed maxima: cfl / sum_k s_k / delta_k."""
    denom = 0.0
    for k in range(len(deltas)):
        denom += maxima[k] / deltas[k]
    if denom == 0.0:
        raise StaticFieldError("static field: all wave speeds vanish")
    dt = cfl / denom
    if remaining is not None:
        dt = min(dt, remaining)
    return dt


def stable_dt(field: Field, cfg: SchemeConfig, remaining: float | None = None) -> float:
    return dt_from_maxima(
        wave_speed_maxima(field, cfg), field.grid.deltas, cfg.cfl, remaining
    )


def ssp_rk_advance(u, dt: float, L: Callable, order: int):
    """SSP Runge-Kutta step written as convex combinations of Euler steps.

    Works on any array-like state with an arbitrary right-hand side, which
    doubles as a diagnostic mode for scalar stability checks.
    """
    if order == 1:
        return u + dt * L(u)
    if order == 2:
        u1 = u + dt * L(u)
        return 0.5 * u + 0.5 * (u1 + dt * L(u1))
    if order == 3:
        u1 = u + dt * L(u)
        u2 = 0.75 * u + 0.25 * (u1 + dt * L(u1))
        return (1.0 / 3.0) * u + (2.0 / 3.0) * (u2 + dt * L(u2))
    raise ConfigError(f"unsupported rk order {order}")


def ssp_rk_step(
    fields: list[Field],
    dt: float,
    cfg: SchemeConfig,
    residual: Callable[[np.ndarray], np.ndarray],
) -> list[Field]:
    """One SSP-RK step of every subdomain at once.

    The state is the subdomain interiors stacked on a leading rank axis;
    ``residual`` maps such a stack to the stack of its residuals.  The
    arithmetic is elementwise, so each subdomain gets the values a run of it
    alone would get.
    """
    u = np.stack([f.interior for f in fields])
    new = ssp_rk_advance(u, dt, residual, cfg.rk_order)
    return [field_from_interior(f.grid, x) for f, x in zip(fields, new)]


def _checked_maxima(field: Field, cfg: SchemeConfig, when: str) -> np.ndarray:
    """CFL speed maxima of one subdomain, after checking that every interior
    cell is finite; the positivity check shares the speeds' pressure pass."""
    interior = field.interior
    if not np.isfinite(interior).all():
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(interior))[0][1:])
        raise SimulationError(f"non-finite value {when} at cell {bad}")
    try:
        return wave_speed_maxima(field, cfg)
    except UnphysicalStateError as exc:
        raise SimulationError(f"unphysical state {when}: {exc}") from exc


def advance(
    fields: list[Field],
    cfg: SchemeConfig,
    fill: Callable,
    gather: Callable[[list[Field]], Field],
    observers: Sequence[Callable] = (),
    max_steps: int | None = None,
    t_end: float | None = None,
):
    """The time loop of serial and decomposed runs: every subdomain advances
    in lockstep on the calling thread.

    ``fields`` holds one field per subdomain, all of one shape.  Before every
    stage, ``fill(stages, on_rank)`` fills the ghosts of all stage fields,
    running each subdomain's part as ``on_rank(rank, fn, *args)``.
    ``gather`` turns the subdomain fields into the global field handed to
    ``observer(step, t, field)`` (once with the initial state and after every
    step) and returned at the end.  The run stops after ``max_steps`` steps
    or at ``t_end``, whichever comes first; with ``t_end=None`` dt is never
    shortened to land on an end time.

    Returns the final global field and one list of step records per
    subdomain.  A record's ``seconds`` count only that subdomain's own ghost
    fill, residual and CFL work.  An error in one subdomain of several is
    raised at once as a SimulationError naming its rank.
    """
    nranks = len(fields)
    grids = [f.grid for f in fields]
    seconds = [0.0] * nranks

    def on_rank(rank, fn, *args):
        tic = time.perf_counter()
        try:
            return fn(*args)
        except (SimulationError, UnphysicalStateError, ProtocolError) as exc:
            if nranks == 1:
                raise
            raise SimulationError(f"rank {rank} failed: {exc}") from exc
        finally:
            seconds[rank] += time.perf_counter() - tic

    def residual(u: np.ndarray) -> np.ndarray:
        stages = [field_from_interior(grid, x) for grid, x in zip(grids, u)]
        fill(stages, on_rank)
        return np.stack(
            [on_rank(r, spatial_residual, s, cfg) for r, s in enumerate(stages)]
        )

    def speed_maxima(when: str) -> np.ndarray:
        # rank-ordered, as an MPI all-reduce would apply it
        return np.maximum.reduce(
            [on_rank(r, _checked_maxima, f, cfg, when) for r, f in enumerate(fields)]
        )

    def notify(step, t):
        if observers:
            field = gather(fields)
            for obs in observers:
                obs(step, t, field)

    maxima = speed_maxima("in the initial field")
    records: list[list[TimeStepRecord]] = [[] for _ in fields]
    t = 0.0
    step = 0
    notify(step, t)
    while max_steps is None or step < max_steps:
        remaining = None
        if t_end is not None:
            remaining = t_end - t
            if remaining <= 1e-14 * t_end:
                break
        dt = dt_from_maxima(maxima, grids[0].deltas, cfg.cfl, remaining)
        seconds[:] = [0.0] * nranks
        fields = ssp_rk_step(fields, dt, cfg, residual)
        step += 1
        t += dt
        # the post-step check and the next step's CFL speeds
        maxima = speed_maxima(f"after step {step} (t = {t:.6g})")
        for rank, rec in enumerate(records):
            rec.append(TimeStepRecord(step, t, dt, seconds[rank]))
        notify(step, t)
    return gather(fields), records


def run_simulation(
    init: Field,
    cfg: SchemeConfig,
    observers: Sequence[Callable] = (),
    max_steps: int | None = None,
):
    """Advance from t = 0 to t_end; returns the final field and step records.

    Observers are called as ``observer(step, t, field)`` once with the initial
    state and after every accepted step.
    """
    check_scheme(init.grid, cfg)

    def fill(stages, on_rank):
        on_rank(0, fill_boundary, stages[0], cfg.bc)

    final, records = advance(
        [init.copy()], cfg, fill, lambda fields: fields[0],
        observers, max_steps, cfg.t_end,
    )
    return final, records[0]
