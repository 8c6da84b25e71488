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
    SimulationError,
    StaticFieldError,
    UnphysicalStateError,
)
from .grid import (
    BoundaryKind,
    Field,
    GridSpec,
    field_from_interior,
    fill_boundary,
    slab,
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
    """One accepted step; ``seconds`` is its wall time, all ranks together."""

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
    """Time derivative of the interior cell averages (ghosts must be filled).

    ``field`` may be a stack of subdomains, with a rank axis after the
    component axis; the residual then has that axis too.
    """
    grid = field.grid
    model = cfg.model
    check_scheme(grid, cfg)
    g = grid.ghost_width
    # the component axis, and the rank axis of a stack
    lead = field.data.ndim - grid.dim

    mask = physical_mask(model, field.interior)
    if not mask.all():
        idx = tuple(int(i) for i in np.argwhere(~np.atleast_1d(mask))[0])
        raise SimulationError(f"unphysical state in interior cell {idx}")

    out = np.zeros(field.interior.shape)
    euler = model.kind == EULER
    fallback = euler and cfg.recon.kind is not ReconstructionKind.NONE
    for axis in range(grid.dim):
        ax = -1 - axis
        n = grid.cells[axis]
        # crop transverse axes to the interior before reconstructing
        sub = field.data
        for other in range(grid.dim):
            if other != axis:
                sub = slab(sub, -1 - other, g, g + grid.cells[other])
        # a contiguous copy with this axis right after the component and rank
        # axes: every stencil shift is then a run of whole contiguous blocks,
        # which numpy loops over fastest
        sub = np.ascontiguousarray(sub.swapaxes(ax, lead))
        faces = reconstruct_axis(sub, lead, n, g, cfg.recon)
        if euler:
            # one primitive pass per side feeds the fallback, the check and the flux
            faces = (euler_side(model, faces.uL), euler_side(model, faces.uR))
            if fallback:
                faces = _positivity_fallback(model, sub, lead, n, g, faces)
            for side in faces:
                if not side.ok.all():
                    # in grid layout, so that the error names the face's cell
                    require_mask(
                        side.u.swapaxes(lead, ax), side.ok.swapaxes(lead - 1, ax)
                    )
        F = numerical_flux(model, cfg.flux, faces, axis)
        diff = slab(F, lead, 1, n + 1) - slab(F, lead, 0, n)
        diff /= grid.deltas[axis]
        out -= diff.swapaxes(lead, ax)
    return out


def _positivity_fallback(model, sub, np_ax, n, g, faces) -> tuple:
    """Replace faces with an unphysical side by piecewise-constant states.

    ``faces`` is the (left, right) pair of EulerSides reconstructed along
    axis ``np_ax`` of ``sub``.
    """
    left, right = faces
    ok = left.ok & right.ok
    if ok.all():
        return faces
    pc = reconstruct_axis(sub, np_ax, n, g, Reconstruction(ReconstructionKind.NONE))
    return (
        euler_side(model, np.where(ok, left.u, pc.uL)),
        euler_side(model, np.where(ok, right.u, pc.uR)),
    )


def wave_speed_maxima(field: Field, cfg: SchemeConfig) -> np.ndarray:
    """Per-axis maximum wave speed over the interior cells (of every rank of
    a stack: the maximum is exact, so it equals the rank-ordered reduction
    of per-rank maxima)."""
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


#: (a, b) of each stage after the first: u <- a u0 + b (u + dt L(u)), where
#: u0 is the state at the start of the step
SSP_STAGES = {1: (), 2: ((0.5, 0.5),), 3: ((0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0))}


def ssp_rk_advance(u: np.ndarray, dt: float, L: Callable, order: int, start=None):
    """SSP Runge-Kutta step written as convex combinations of Euler steps.

    Updates ``u`` in place and returns it.  ``L(u)`` must return a new array,
    which is used as scratch; ``start`` (shaped like ``u``) receives the state
    at the start of the step and is allocated when not given.  Every value
    rounds as in ``a * u0 + b * (u + dt * L(u))``.  Works on any array state
    with an arbitrary right-hand side, which doubles as a diagnostic mode for
    scalar stability checks.
    """
    if order not in SSP_STAGES:
        raise ConfigError(f"unsupported rk order {order}")
    stages = SSP_STAGES[order]
    if stages:
        if start is None:
            start = np.empty_like(u)
        start[...] = u
    k = L(u)
    k *= dt
    u += k
    for a, b in stages:
        k = L(u)
        k *= dt
        k += u
        k *= b
        np.multiply(start, a, out=u)
        u += k
    return u


def ssp_rk_step(
    state: Field, dt: float, cfg: SchemeConfig, residual: Callable, start: np.ndarray
) -> None:
    """One SSP-RK step of every subdomain of a stack at once, in place.

    ``residual`` maps the stack's interior to its residual; ``start`` is the
    buffer for the state at the start of the step.  The arithmetic is
    elementwise, so each subdomain gets the values a run of it alone would
    get.
    """
    ssp_rk_advance(state.interior, dt, residual, cfg.rk_order, start)


def _checked_maxima(field: Field, cfg: SchemeConfig, when: str) -> np.ndarray:
    """CFL speed maxima of a field or stack, after checking that every
    interior cell is finite; the positivity check shares the speeds'
    pressure pass."""
    bad = ~np.isfinite(field.interior).all(axis=0)
    if bad.any():
        cell = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SimulationError(f"non-finite value {when} at cell {cell}")
    try:
        return wave_speed_maxima(field, cfg)
    except UnphysicalStateError as exc:
        raise SimulationError(f"unphysical state {when}: {exc}") from exc


def advance(
    state: Field,
    cfg: SchemeConfig,
    fill: Callable[[Field], object],
    gather: Callable[[Field], Field],
    observers: Sequence[Callable] = (),
    max_steps: int | None = None,
    t_end: float | None = None,
):
    """The time loop of serial and decomposed runs: every subdomain advances
    in lockstep on the calling thread.

    ``state`` is the stack of subdomains: its data has the shape
    ``(ncomp, R, *padded)``, with the rank axis right after the components,
    and ``state.grid`` is the grid of each subdomain.  It is advanced in
    place.  Each stage calls ``fill(state)``, which fills every ghost of the
    stack, and then one ``spatial_residual`` over the whole stack.
    ``gather(state)`` turns the stack into a new global field, which is
    handed to ``observer(step, t, field)`` (once with the initial state and
    after every step) and returned at the end.  The run stops after
    ``max_steps`` steps or at ``t_end``, whichever comes first; with
    ``t_end=None`` dt is never shortened to land on an end time.

    Returns the final global field and one step record per step, whose
    ``seconds`` is the wall time of the step.  A failed check is located by
    repeating it rank by rank: with several ranks, the first failing rank is
    raised as a SimulationError ``rank N failed: ...``.
    """
    nranks = state.data.shape[1]
    grid = state.grid

    def checked(fn, *args):
        """``fn(state, *args)``; when it fails, ``fn`` on each rank's field
        in turn names the first failing rank and its local cell."""
        try:
            return fn(state, *args)
        except (SimulationError, UnphysicalStateError):
            for rank in range(nranks):
                try:
                    fn(Field(grid, state.ncomp, state.data[:, rank]), *args)
                except (SimulationError, UnphysicalStateError) as rank_exc:
                    if nranks == 1:
                        raise
                    raise SimulationError(f"rank {rank} failed: {rank_exc}") from rank_exc
            raise

    def residual(u: np.ndarray) -> np.ndarray:
        # ``u`` is the stack's interior, so the stage is already in place
        fill(state)
        return checked(spatial_residual, cfg)

    def notify(step, t):
        if observers:
            field = gather(state)
            for obs in observers:
                obs(step, t, field)

    maxima = checked(_checked_maxima, cfg, "in the initial field")
    start = np.empty_like(state.interior)
    records: list[TimeStepRecord] = []
    t = 0.0
    step = 0
    notify(step, t)
    while max_steps is None or step < max_steps:
        tic = time.perf_counter()
        remaining = None
        if t_end is not None:
            remaining = t_end - t
            if remaining <= 1e-14 * t_end:
                break
        dt = dt_from_maxima(maxima, grid.deltas, cfg.cfl, remaining)
        ssp_rk_step(state, dt, cfg, residual, start)
        step += 1
        t += dt
        # the post-step check and the next step's CFL speeds
        maxima = checked(_checked_maxima, cfg, f"after step {step} (t = {t:.6g})")
        records.append(TimeStepRecord(step, t, dt, time.perf_counter() - tic))
        notify(step, t)
    return gather(state), records


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
    state = Field(init.grid, init.ncomp, init.data[:, None].copy())
    return advance(
        state, cfg,
        lambda stack: fill_boundary(stack, cfg.bc),
        lambda stack: field_from_interior(init.grid, stack.interior[:, 0]),
        observers, max_steps, cfg.t_end,
    )
