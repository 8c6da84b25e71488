"""Semi-discrete finite volume operator, CFL control and SSP Runge-Kutta.

The residual of cell i is -sum_k (F_{i+1/2 e_k} - F_{i-1/2 e_k}) / delta_k,
with each interface flux computed once and shared by both neighbours.  A run
binds its state to one ``numerics.Stack`` (``bind_stack``), with the slab
copies of its halo pass (``parallel.halo_plan``, built once): a
``ScalarStack`` for Burgers and advection, an ``EulerStack`` for Euler, which
runs in the compiled kernel of ``_faces.c`` alone, so an Euler run needs a C
compiler (``check_scheme`` builds the kernel before any step).  The stack
owns the buffers of a step, the residual, the state at the start of the step
and the CFL maxima, and the time loop talks to it alone.  ``ssp_rk_step`` is
one step of every model, the stack's ``step``: per stage one halo pass, one
residual (what ``spatial_residual`` computes) and one combination, then the
cell pass, which checks the state and takes the CFL maxima (as
``wave_speed_maxima`` does); for Euler that is one kernel call, whose
per-stage reference is built in ``tests/oracles.py``.  The kernel
shares the lines of each phase of a large step with one helper thread of
its own (from 32x32 cells on; see ``conslaw.numerics``), on the CPUs other
than the caller's and only where the process may use two; the output bits
and every failure are those of one thread.  The numpy checks run only when
a stack reports a failure, to name the rank and the cell or face.
``run_simulation`` is the one entry point of a solve: it runs serial and
decomposed runs through the same time loop, a serial run being the layout
with one rank per axis (see ``conslaw.parallel``).  It binds the run's stack
(``bind_run``) or takes one already bound, so the solves of many initial
fields on one grid, the samples of a UQ level, bind once.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .equations import EULER, EquationModel, first_false, physical_mask, require_mask
from .errors import (
    ConfigError,
    SimulationError,
    StaticFieldError,
    UnphysicalStateError,
)
from .grid import BoundaryKind, Field, GridSpec
from .numerics import (
    STEP_CELLS,
    SWEEP_DEGENERATE,
    EulerStack,
    FluxKind,
    Reconstruction,
    ReconstructionKind,
    ScalarStack,
    Stack,
    axis_faces,
    face_kernel,
)
from .parallel import check_boundary, halo_plan, scatter_field, stitch_fields


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
    a periodic axis must be at least as long (``parallel.check_boundary``),
    and Euler runs need the compiled face sweep (``numerics.face_kernel``
    raises ConfigError naming the missing compiler or the failed build)."""
    if cfg.recon.radius > grid.ghost_width:
        raise ConfigError(
            f"ghost_width {grid.ghost_width} too small for reconstruction "
            f"radius {cfg.recon.radius}"
        )
    check_boundary(grid, cfg.bc)
    if cfg.model.kind == EULER:
        face_kernel()


def _require_physical_faces(field: Field, cfg: SchemeConfig, axis: int) -> None:
    """Raise UnphysicalStateError naming the first face of ``axis``, in grid
    order, whose left state is unphysical after the first-order fallback,
    else the first such right state, as the compiled sweep judges them."""
    faces = axis_faces(field, axis, cfg.recon)
    ok = [physical_mask(cfg.model, side) for side in faces]
    if cfg.recon.kind is not ReconstructionKind.NONE:
        # both sides of a face with an unphysical side take their cells
        both = ok[0] & ok[1]
        cells = axis_faces(field, axis, Reconstruction(ReconstructionKind.NONE))
        faces = [np.where(both, side, cell) for side, cell in zip(faces, cells)]
        ok = [physical_mask(cfg.model, side) for side in faces]
    for side, mask in zip(faces, ok):
        require_mask(side, mask, cfg.model.dim)


def bind_stack(field: Field, cfg: SchemeConfig, halo=()) -> Stack:
    """``field`` itself when it is a run's stack made for ``cfg``, else the
    field bound to the stack of its model, with the halo plan ``halo``
    (none: a field whose ghosts its caller fills)."""
    if isinstance(field, Stack) and field.cfg is cfg:
        return field
    check_scheme(field.grid, cfg)
    return (EulerStack if cfg.model.kind == EULER else ScalarStack)(field, cfg, halo)


def bind_run(init: Field, cfg: SchemeConfig, ranks=None) -> Stack:
    """The stack of a run of ``init`` on the rank layout ``ranks`` (see
    ``run_simulation``): ``init`` split into subdomains, bound to the stack
    of its model with its halo plan, and its ``layout`` the layout and
    ``init``'s grid.  ``run_simulation`` runs it as it stands, and its
    ``load`` puts another initial field on that grid into it, so the solves
    of many fields on one grid bind once."""
    # before the layout check of scatter_field, in parse_config's order
    check_scheme(init.grid, cfg)
    ranks = tuple(ranks) if ranks is not None else (1,) * init.grid.dim
    stack = scatter_field(init, ranks)
    state = bind_stack(stack, cfg, halo_plan(stack, ranks, cfg.bc))
    state.layout = ranks, init.grid
    return state


def spatial_residual(field: Field, cfg: SchemeConfig) -> np.ndarray:
    """Time derivative of the interior cell averages (ghosts must be filled).

    ``field`` may be a stack of subdomains, with a rank axis after the
    component axis; the residual then has that axis too.  It is the stack's
    ``compute_residual``: for Euler one call of the compiled kernel for all
    axes, which also checks that every interior cell is physical.  A run's
    stack returns its own residual buffer, refilled by every call.  When the
    kernel stops, the failing cell or face is located here and named in the
    error.
    """
    stack = bind_stack(field, cfg)
    status = stack.compute_residual()
    if status:
        _residual_failure(stack, cfg, status)
    return stack.residual


def _residual_failure(stack: EulerStack, cfg: SchemeConfig, status: int) -> None:
    """Raise the error of a residual that stopped with ``status``: the first
    unphysical interior cell, else the kernel's own failure on the axis and
    rank where it stopped."""
    mask = physical_mask(cfg.model, stack.interior)
    if not mask.all():
        rank, cell = first_false(mask, stack.grid.dim)
        raise SimulationError(f"unphysical state in interior cell {cell}", rank=rank)
    axis, rank = stack.stop
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

    One pass of the stack (``cell_pass``) computes them and checks that
    every cell is finite and physical; when it fails, UnphysicalStateError
    names the first cell that is not.
    """
    stack = bind_stack(field, cfg)
    if stack.cell_pass():
        _require_cells(stack, cfg)
    return stack.maxima.copy()


def _require_cells(stack: Stack, cfg: SchemeConfig) -> None:
    """Raise UnphysicalStateError naming the first cell of a stack whose
    cell pass failed that is not finite and physical."""
    u = stack.interior
    require_mask(u, physical_mask(cfg.model, u) & np.isfinite(u).all(axis=0), cfg.model.dim)


def dt_from_maxima(maxima: np.ndarray, deltas, cfl: float, remaining: float | None = None) -> float:
    """CFL timestep from per-axis speed maxima: cfl / sum_k s_k / delta_k,
    summed in Python floats, so that a quotient that overflows gives inf and
    a timestep of 0 without a numpy warning."""
    denom = 0.0
    for s, delta in zip(maxima.tolist(), deltas):
        denom += s / delta
    if denom == 0.0:
        raise StaticFieldError("static field: all wave speeds vanish")
    dt = cfl / denom
    if remaining is not None:
        dt = min(dt, remaining)
    return float(dt)


def stable_dt(field: Field, cfg: SchemeConfig, remaining: float | None = None) -> float:
    """CFL timestep of a plain field.  Public API (``conslaw.__all__``): a
    run takes its steps from its stack's maxima, but a user checking the
    timestep of a field of their own needs this call."""
    return dt_from_maxima(
        wave_speed_maxima(field, cfg), field.grid.deltas, cfg.cfl, remaining
    )


def ssp_rk_step(state: Stack, dt: float, cfg: SchemeConfig) -> int:
    """One SSP-RK step of a run's stack, every subdomain at once, in place,
    then its cell pass: the stack's ``step``, one kernel call for Euler (per
    stage the halo pass, the residual and the combination; the SSP-RK
    coefficients are ``numerics.SSP_STAGES``).  The arithmetic is
    elementwise, so each subdomain gets the values a run of it alone would
    get.  Returns the cell pass's 0 or 1 (the stack's ``maxima`` are the
    next step's CFL speeds); a residual that fails raises here, as
    ``spatial_residual`` names it, from the state of the stage before it
    (``run_simulation`` adds the step and the stage)."""
    status = state.step(dt)
    if status == STEP_CELLS:
        return 1
    if status:
        _residual_failure(state, cfg, status)
    return 0


def _require_finite(field: Field, when: str) -> None:
    """Raise SimulationError naming the first rank and cell, if any, with a
    value that is not finite."""
    finite = np.isfinite(field.interior).all(axis=0)
    if not finite.all():
        rank, cell = first_false(finite, field.grid.dim)
        raise SimulationError(f"non-finite value {when} at cell {cell}", rank=rank)


def _checked_maxima(stack: Stack, cfg: SchemeConfig, when: str, bad: int) -> np.ndarray:
    """CFL speed maxima of a run's stack after a cell pass that returned
    ``bad``.  When it failed, the numpy checks name a cell: a non-finite one
    first, else an unphysical one."""
    if bad:
        _require_finite(stack, when)
        try:
            _require_cells(stack, cfg)
        except UnphysicalStateError as exc:
            raise SimulationError(f"unphysical state {when}: {exc}", rank=exc.rank) from exc
    return stack.maxima


def _notify(observers: Sequence[Callable], step: int, t: float, field) -> None:
    """Call the observers with ``field``, the run's cached stitch of the
    global field, emptied first so that it stitches at most once per call."""
    if observers:
        field.cache_clear()
        for obs in observers:
            obs(step, t, field)


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
    ``conslaw.parallel``'s.  The stack is bound once (``bind_stack``) and
    owns every buffer of a step; its halo plan (``parallel.halo_plan``) is
    built once too.  Every subdomain advances in lockstep (``ssp_rk_step``,
    one call of the stack per step: for Euler one kernel call, which shares
    its lines with the kernel's helper thread on large stacks): each stage is
    one halo pass over the stack, one residual and one combination for all of
    it, and each step ends with one cell pass of checks and CFL maxima.  With
    one rank per axis the halo pass is ``parallel.fill_boundary``'s, and the
    result is bitwise the same for every rank layout.

    With ``steps=None`` the run stops at ``cfg.t_end``, its last step
    shortened to land on it; ``steps=n`` runs exactly n steps, and ``t_end``
    neither stops the run nor shortens a step.  Observers are called as
    ``observer(step, t, field)``, once with the initial state and after every
    step; ``field()`` stitches the global field (once per call of the
    observers) and is valid only during that call.

    ``init`` may also be a run's stack bound for ``cfg`` (``bind_run``, the
    rule of ``bind_stack``): its state is then the initial state, it runs on
    its own layout (``ranks`` must be None or that layout), and nothing is
    bound again.  Its solve changes it in place; load the next initial field
    into it (``Stack.load``) and every bit of the next solve is that of a
    solve of that field.

    Returns the final global field and one step record per step, whose
    ``seconds`` is the wall time of the step.  The final field is the stitch
    that the observers' last call made, when one of them asked for it, else
    one fresh stitch: a run holds one global field beside its stack.  A
    check runs once, on the whole stack, and no check is repeated rank by
    rank: a failure names the check a serial run fails, the first rank (in
    rank order) failing it and that rank's first failing cell, as ``rank N
    failed: ...`` with several ranks, and its step: ``after step N (t =
    T)`` for the cell pass, ``in step N (t = T), stage S`` for a residual (T
    the step's start, S from 1).  A timestep too small to advance t raises
    SimulationError before its step, naming the step and t.
    """
    if isinstance(init, Stack) and init.cfg is cfg and init.layout is not None:
        if ranks is not None and tuple(ranks) != init.layout[0]:
            raise ConfigError(f"a stack bound on the rank layout {init.layout[0]} "
                              f"cannot run on {tuple(ranks)}")
        state = init
    else:
        state = bind_run(init, cfg, ranks)
    ranks, grid = state.layout
    field = functools.cache(functools.partial(stitch_fields, state, ranks, grid))
    records: list[TimeStepRecord] = []
    t = 0.0
    step = 0
    try:
        maxima = _checked_maxima(state, cfg, "in the initial field", state.cell_pass())
        _notify(observers, step, t, field)
        while steps is None or step < steps:
            tic = time.perf_counter()
            remaining = None
            if steps is None:
                remaining = cfg.t_end - t
                if remaining <= 1e-14 * cfg.t_end:
                    break
            dt = dt_from_maxima(maxima, state.grid.deltas, cfg.cfl, remaining)
            if t + dt == t:
                raise SimulationError(
                    f"time step {dt:.6g} does not advance t in step {step + 1} (t = {t:.6g})"
                )
            try:
                bad = ssp_rk_step(state, dt, cfg)
            except (SimulationError, UnphysicalStateError) as exc:
                where = f"in step {step + 1} (t = {t:.6g}), stage {state.stop_stage + 1}"
                raise type(exc)(f"{exc} {where}", rank=exc.rank) from exc
            step += 1
            t += dt
            # the post-step check and the next step's CFL speeds
            maxima = _checked_maxima(state, cfg, f"after step {step} (t = {t:.6g})", bad)
            records.append(TimeStepRecord(step, t, dt, time.perf_counter() - tic))
            _notify(observers, step, t, field)
    except (SimulationError, UnphysicalStateError) as exc:
        if exc.rank is None or state.data.shape[1] == 1:
            raise
        raise SimulationError(f"rank {exc.rank} failed: {exc}") from exc
    return field(), records
