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
    is_physical,
    max_wave_speeds,
    physical_mask,
    require_mask,
)
from .errors import ConfigError, SimulationError, StaticFieldError, UnphysicalStateError
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
    field: Field,
    dt: float,
    cfg: SchemeConfig,
    fill_ghosts: Callable[[Field], None] | None = None,
    residual: Callable[[Field, SchemeConfig], np.ndarray] | None = None,
) -> Field:
    """One SSP-RK step; ghosts are refilled before every stage evaluation."""
    grid = field.grid
    if fill_ghosts is None:
        fill_ghosts = lambda f: fill_boundary(f, cfg.bc)
    if residual is None:
        residual = spatial_residual

    def L(interior: np.ndarray) -> np.ndarray:
        stage = field_from_interior(grid, interior)
        fill_ghosts(stage)
        return residual(stage, cfg)

    new_interior = ssp_rk_advance(field.interior.copy(), dt, L, cfg.rk_order)
    return field_from_interior(grid, new_interior)


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
    if not is_physical(cfg.model, init.interior):
        raise SimulationError("initial field contains unphysical states")
    field = init.copy()
    maxima = wave_speed_maxima(field, cfg)
    records: list[TimeStepRecord] = []
    t = 0.0
    step = 0
    for obs in observers:
        obs(step, t, field)
    while t < cfg.t_end:
        remaining = cfg.t_end - t
        if remaining <= 1e-14 * cfg.t_end:
            break
        if max_steps is not None and step >= max_steps:
            break
        dt = dt_from_maxima(maxima, field.grid.deltas, cfg.cfl, remaining)
        tic = time.perf_counter()
        field = ssp_rk_step(field, dt, cfg)
        seconds = time.perf_counter() - tic
        step += 1
        t += dt
        interior = field.interior
        if not np.isfinite(interior).all():
            bad = tuple(
                int(i) for i in np.argwhere(~np.isfinite(interior))[0][1:]
            )
            raise SimulationError(
                f"non-finite value after step {step} (t = {t:.6g}) at cell {bad}"
            )
        # the positivity check of the new state and the next step's CFL
        # speeds come from one pressure pass
        try:
            maxima = wave_speed_maxima(field, cfg)
        except UnphysicalStateError as exc:
            raise SimulationError(
                f"unphysical state after step {step} (t = {t:.6g})"
            ) from exc
        records.append(TimeStepRecord(step, t, dt, seconds))
        for obs in observers:
            obs(step, t, field)
    return field, records
