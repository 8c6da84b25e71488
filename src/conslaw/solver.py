"""Semi-discrete finite volume operator, CFL control and SSP Runge-Kutta.

The residual of cell i is -sum_k (F_{i+1/2 e_k} - F_{i-1/2 e_k}) / delta_k,
with each interface flux computed once and shared by both neighbours.  An
Euler step runs in the compiled kernel of ``_faces.c`` alone, so an Euler run
needs a C compiler; ``check_scheme`` builds the kernel before any step.  A
run binds its stack to the kernel once (``numerics.EulerStack``); each stage
is then one kernel call for the residual of every axis (``spatial_residual``)
and one for the SSP-RK combination (``ssp_rk_step``), and each step ends with
one kernel pass that checks the state and takes the CFL maxima
(``wave_speed_maxima``).  The numpy checks run only when the kernel reports a
failure, to name the rank and the cell or face.  The scalar models take the
numpy path of ``conslaw.numerics`` and ``ssp_rk_advance``.
``run_simulation`` is the one entry point of a solve: it runs serial and
decomposed runs through the same time loop, a serial run being the layout
with one rank per axis (see ``conslaw.parallel``).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .equations import (
    EULER,
    EquationModel,
    first_false,
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
from .grid import BoundaryKind, Field, GridSpec, slab
from .numerics import (
    SWEEP_DEGENERATE,
    SWEEP_NOMEM,
    EulerStack,
    FacePair,
    FluxKind,
    Reconstruction,
    ReconstructionKind,
    face_kernel,
    reconstruct_axis,
    rusanov_flux,
)
from .parallel import exchange_halos, scatter_field, stitch_fields


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
            raise ConfigError(
                f"rk_order must be 1, 2 or 3, got {self.rk_order}", key="rk_order"
            )
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}", key="cfl")
        # nan would never reach the end time, inf would end before the start
        if not 0.0 <= self.t_end < math.inf:
            raise ConfigError(
                f"t_end must be finite and >= 0, got {self.t_end}", key="t_end"
            )
        if self.flux is FluxKind.HLLC and self.model.kind != EULER:
            raise ConfigError("flux incompatible with equation: hllc needs euler", key="flux")
        if not self.bc:
            object.__setattr__(
                self, "bc", (BoundaryKind.PERIODIC,) * self.model.dim
            )
        if len(self.bc) != self.model.dim:
            raise ConfigError(
                f"boundary needs {self.model.dim} kinds, got {len(self.bc)}", key="boundary"
            )


@dataclass
class TimeStepRecord:
    """One accepted step; ``seconds`` is its wall time, all ranks together."""

    step: int
    t: float
    dt: float
    seconds: float


def check_scheme(grid: GridSpec, cfg: SchemeConfig) -> None:
    """Solver-assembly validation: the stencil must fit in the ghost layer,
    and Euler runs need the compiled face sweep (``numerics.face_kernel``
    raises ConfigError naming the missing compiler or the failed build)."""
    if cfg.recon.radius > grid.ghost_width:
        raise ConfigError(
            f"ghost_width {grid.ghost_width} too small for reconstruction "
            f"radius {cfg.recon.radius}"
        )
    if cfg.model.kind == EULER:
        face_kernel()


def _axis_faces(field: Field, axis: int, recon: Reconstruction) -> FacePair:
    """Face states of spatial axis ``axis`` over the interior of the other
    axes, in grid layout."""
    grid, g = field.grid, field.grid.ghost_width
    sub = field.data
    for other in range(grid.dim):
        if other != axis:
            sub = slab(sub, -1 - other, g, g + grid.cells[other])
    return reconstruct_axis(sub, -1 - axis, grid.cells[axis], g, recon)


def _require_physical_faces(field: Field, cfg: SchemeConfig, axis: int) -> None:
    """Raise UnphysicalStateError naming the first face of ``axis``, in grid
    order, whose left state is unphysical after the first-order fallback,
    else the first such right state, as the compiled sweep judges them."""
    faces = _axis_faces(field, axis, cfg.recon)
    ok = [physical_mask(cfg.model, side) for side in faces]
    if cfg.recon.kind is not ReconstructionKind.NONE:
        # both sides of a face with an unphysical side take their cells
        both = ok[0] & ok[1]
        cells = _axis_faces(field, axis, Reconstruction(ReconstructionKind.NONE))
        faces = [np.where(both, side, cell) for side, cell in zip(faces, cells)]
        ok = [physical_mask(cfg.model, side) for side in faces]
    for side, mask in zip(faces, ok):
        require_mask(side, mask, cfg.model.dim)


def _euler_stack(field: Field, cfg: SchemeConfig) -> EulerStack:
    """``field`` itself when it is a run's stack made for ``cfg``, else the
    field bound to the kernel for this call."""
    if isinstance(field, EulerStack) and field.cfg is cfg:
        return field
    check_scheme(field.grid, cfg)
    return EulerStack(field, cfg)


def spatial_residual(field: Field, cfg: SchemeConfig) -> np.ndarray:
    """Time derivative of the interior cell averages (ghosts must be filled).

    ``field`` may be a stack of subdomains, with a rank axis after the
    component axis; the residual then has that axis too.  For Euler it is
    one call of the compiled kernel for all axes
    (``numerics.EulerStack.compute_residual``), which also checks that every
    interior cell is physical; a run's stack returns its own residual buffer,
    refilled by every call.  When the kernel stops, the failing cell or face
    is located here and named in the error.
    """
    grid = field.grid
    model = cfg.model
    if model.kind == EULER:
        stack = _euler_stack(field, cfg)
        status = stack.compute_residual()
        if status:
            _residual_failure(stack, cfg, status)
        return stack.residual

    out = np.zeros(field.interior.shape)
    for axis in range(grid.dim):
        F = rusanov_flux(model, _axis_faces(field, axis, cfg.recon), axis)
        ax = -1 - axis
        diff = slab(F, ax, 1, grid.cells[axis] + 1) - slab(F, ax, 0, grid.cells[axis])
        diff /= grid.deltas[axis]
        out -= diff
    return out


def _residual_failure(stack: EulerStack, cfg: SchemeConfig, status: int) -> None:
    """Raise the error of a residual that stopped with ``status``: the first
    unphysical interior cell, else the kernel's own failure on the axis and
    rank where it stopped."""
    mask = physical_mask(cfg.model, stack.interior)
    if not mask.all():
        rank, cell = first_false(mask, stack.grid.dim)
        raise SimulationError(f"unphysical state in interior cell {cell}", rank=rank)
    axis, rank = stack.stop
    if status == SWEEP_NOMEM:
        raise MemoryError(
            f"the compiled face sweep on axis {axis} could not allocate its line buffers"
        )
    _require_physical_faces(stack, cfg, axis)
    if status == SWEEP_DEGENERATE:
        raise UnphysicalStateError("degenerate HLLC wave fan (sL >= sR)", rank=rank)
    raise SimulationError(
        f"the compiled face sweep on axis {axis} stopped with status "
        f"{status} on physical face states", rank=rank,
    )


def wave_speed_maxima(field: Field, cfg: SchemeConfig) -> np.ndarray:
    """Per-axis maximum wave speed over the interior cells (of every rank of
    a stack: the maximum is exact, so it equals the rank-ordered reduction
    of per-rank maxima).

    For Euler one compiled pass (``numerics.EulerStack.cell_pass``) computes
    them and checks that every cell is finite and physical; when it fails,
    UnphysicalStateError names the first cell that is not.
    """
    model = cfg.model
    if model.kind == EULER:
        stack = _euler_stack(field, cfg)
        if not stack.cell_pass():
            return stack.maxima.copy()
        u = field.interior
        require_mask(u, physical_mask(model, u) & np.isfinite(u).all(axis=0), model.dim)
    speeds = max_wave_speeds(model, field.interior)
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
    return float(dt)


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
    get.  A run's Euler stack combines each stage in one compiled pass
    (``numerics.EulerStack.stage``), rounded as ``ssp_rk_advance``, which
    steps every other state.
    """
    if not isinstance(state, EulerStack):
        ssp_rk_advance(state.interior, dt, residual, cfg.rk_order, start)
        return
    u, stages = state.interior, SSP_STAGES[cfg.rk_order]
    state.stage(residual(u), start, dt, save=bool(stages))
    for a, b in stages:
        state.stage(residual(u), start, dt, a, b)


def _require_finite(field: Field, when: str) -> None:
    """Raise SimulationError naming the first rank and cell, if any, with a
    value that is not finite."""
    finite = np.isfinite(field.interior).all(axis=0)
    if not finite.all():
        rank, cell = first_false(finite, field.grid.dim)
        raise SimulationError(f"non-finite value {when} at cell {cell}", rank=rank)


def _checked_maxima(field: Field, cfg: SchemeConfig, when: str) -> np.ndarray:
    """CFL speed maxima of a field or stack, after checking that every
    interior cell is finite, then that every cell is physical.  For Euler
    ``wave_speed_maxima`` makes both checks in its compiled pass, and the
    numpy checks run only to name a cell it rejects."""
    if cfg.model.kind != EULER:
        _require_finite(field, when)
    try:
        return wave_speed_maxima(field, cfg)
    except UnphysicalStateError as exc:
        _require_finite(field, when)
        raise SimulationError(f"unphysical state {when}: {exc}", rank=exc.rank) from exc


def run_simulation(
    init: Field,
    cfg: SchemeConfig,
    ranks=None,
    observers: Sequence[Callable] = (),
    steps: int | None = None,
):
    """Run a solve: the one entry point of serial and decomposed runs.

    ``init`` is split into the subdomains of the rank layout ``ranks``, a
    tuple of counts, one per axis (``None`` is one rank per axis, a serial
    run; ``parallel.local_grid`` checks it and raises ConfigError), and kept
    as one stack whose data has the shape ``(ncomp, R, *padded)``, with the
    rank axis right after the components; the rank order is
    ``conslaw.parallel``'s.  Every subdomain advances in lockstep on the
    calling thread: each stage is one ``parallel.exchange_halos`` pass over
    the stack and one ``spatial_residual`` call for all of it.  With one rank
    per axis the halo pass makes the same ``grid.fill_axis`` calls as
    ``grid.fill_boundary``, and the result is bitwise the same for every rank
    layout.  An Euler stack is a ``numerics.EulerStack``, bound to the
    compiled kernel once: each stage is then one kernel call for the
    residual and one for the combination (``ssp_rk_step``), and each step
    ends with one compiled pass of checks and CFL maxima
    (``wave_speed_maxima``).

    With ``steps=None`` the run stops at ``cfg.t_end``, its last step
    shortened to land on it; ``steps=n`` runs exactly n steps, and ``t_end``
    neither stops the run nor shortens a step.  Observers are called as
    ``observer(step, t, field)``, once with the initial state and after every
    step; ``field()`` stitches the global field (once per call of the
    observers) and is valid only during that call.

    Returns the final global field and one step record per step, whose
    ``seconds`` is the wall time of the step.  A check runs once, on the
    whole stack, and no check is repeated rank by rank: a failure names the
    check a serial run fails, the first rank (in rank order) failing it and
    that rank's first failing cell, as ``rank N failed: ...`` with several ranks.
    """
    check_scheme(init.grid, cfg)
    ranks = tuple(ranks) if ranks is not None else (1,) * init.grid.dim
    state = scatter_field(init, ranks)
    if cfg.model.kind == EULER:
        state = EulerStack(state, cfg)

    def residual(u: np.ndarray) -> np.ndarray:
        # ``u`` is the stack's interior, so the stage is already in place
        exchange_halos(state, ranks, cfg.bc)
        return spatial_residual(state, cfg)

    def notify(step, t):
        if observers:
            field = functools.cache(functools.partial(stitch_fields, state, ranks, init.grid))
            for obs in observers:
                obs(step, t, field)

    start = np.empty_like(state.interior)
    records: list[TimeStepRecord] = []
    t = 0.0
    step = 0
    try:
        maxima = _checked_maxima(state, cfg, "in the initial field")
        notify(step, t)
        while steps is None or step < steps:
            tic = time.perf_counter()
            remaining = None
            if steps is None:
                remaining = cfg.t_end - t
                if remaining <= 1e-14 * cfg.t_end:
                    break
            dt = dt_from_maxima(maxima, state.grid.deltas, cfg.cfl, remaining)
            ssp_rk_step(state, dt, cfg, residual, start)
            step += 1
            t += dt
            # the post-step check and the next step's CFL speeds
            maxima = _checked_maxima(state, cfg, f"after step {step} (t = {t:.6g})")
            records.append(TimeStepRecord(step, t, dt, time.perf_counter() - tic))
            notify(step, t)
    except (SimulationError, UnphysicalStateError) as exc:
        if exc.rank is None or state.data.shape[1] == 1:
            raise
        raise SimulationError(f"rank {exc.rank} failed: {exc}") from exc
    return stitch_fields(state, ranks, init.grid), records
