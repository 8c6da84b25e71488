"""The one-call Euler step of ``_faces.c`` (``EulerStack.step``).

Its exact shortcuts (WENO3's second weight doubled from the first, WENO2's
taken from it, and a product for a division by a power of two) and its
branch-free HLLC flux against the face-by-face reference of ``oracles``; its
halo pass against ``parallel.exchange_halos``; and its failures against
``oracles.per_stage_step``, which makes the halo pass, the residual and the
combination of each stage separate calls.
"""

import re

import numpy as np
import pytest

from conslaw import solver
from conslaw.equations import EquationModel, primitive_to_conserved
from conslaw.errors import SimulationError, UnphysicalStateError
from conslaw.grid import BoundaryKind, Field, GridSpec, field_from_interior
from conslaw.numerics import (
    SWEEP_DEGENERATE, STEP_CELLS, EulerStack, FluxKind, ReconstructionKind,
)
from conslaw.parallel import exchange_halos, fill_boundary, halo_plan, scatter_field
from conslaw.solver import run_simulation, spatial_residual
from test_face_kernel import make_case, random_prim, reference, reference_step
from test_parallel import euler_scheme
from test_shared_sweep import DENSE, _setup


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


# ---------------------------------------------------------------------------
# The exact shortcuts of the sweep
# ---------------------------------------------------------------------------


def _huge_energy_line(n=24):
    """A 1D gas at rest whose energies, from 3e77, jump by 7e76 to 1.15e77
    from cell to cell: the WENO smoothness q = (eps + d^2)^2 of the energy
    lies between 2^1000 and the largest double, so d0 / q is subnormal."""
    rng = np.random.default_rng(77)
    jumps = np.arange(n) % 2 * (0.7 + 0.45 * rng.random(n))
    return np.stack([np.ones(n), np.zeros(n), 0.4e77 * (3.0 + jumps)])


@pytest.mark.parametrize("recon", [ReconstructionKind.WENO3, ReconstructionKind.WENO2])
@pytest.mark.parametrize("flux", [FluxKind.HLLC, FluxKind.RUSANOV])
def test_weno_weights_of_huge_differences_match_the_reference(recon, flux):
    field, cfg = make_case(_huge_energy_line(), flux, recon)
    d = np.diff(field.data[2])
    q = (cfg.recon.epsilon + d * d) ** 2
    assert (q >= 2.0**1000).all() and np.isfinite(q).all()
    # the weights where doubling the first does not give WENO3's second
    assert (2.0 * ((1.0 / 3.0) / q) != (2.0 / 3.0) / q).any()
    got = spatial_residual(field, cfg)
    assert np.isfinite(got).all()
    assert np.array_equal(_bits(got), _bits(reference(field, cfg)))


@pytest.mark.parametrize("n,extent", [(64, 1.0), (48, 1.0), (48, 11.0)],
                         ids=["dyadic-1/64", "1/48", "11/48"])
def test_residual_of_any_cell_size_matches_the_reference(n, extent):
    # a cell size of 1/64 multiplies by 64, the others divide (x / (1/48)
    # and x * 48 differ for a third of random x, x / (11/48) and
    # x * (48/11) for more than half)
    model = EquationModel(kind="euler", dim=2)
    grid = GridSpec(2, (n, n), (0.0, 0.0), (extent, extent))
    prim = random_prim(np.random.default_rng(n), (n, n))
    field = field_from_interior(grid, primitive_to_conserved(model, prim))
    cfg = euler_scheme(model)
    fill_boundary(field, cfg.bc)
    assert field.grid.deltas == (extent / n,) * 2
    assert np.array_equal(_bits(spatial_residual(field, cfg)), _bits(reference(field, cfg)))


#: (rho, v, p) of a 1D line whose faces take every HLLC branch
BRANCH_STATES = [
    (1.0, 0.2, 1.0), (1.0, 0.2, 1.0),      # equal states
    (1.0, 5.0, 1.0), (1.3, 5.0, 1.1),      # supersonic to the right: the left flux
    (1.0, 0.3, 1.0), (0.8, 0.3, 0.9),      # subsonic, sM >= 0: the left star state
    (1.0, -0.3, 1.0), (0.7, -0.3, 1.2),    # subsonic, sM < 0: the right star state
    (1.0, -5.0, 1.0), (1.2, -5.0, 0.9),    # supersonic to the left: the right flux
]


def _hllc_branches(prim, gamma=1.4):
    """The branch each face between neighbouring cells of a periodic 1D
    line takes, as ``oracles._ref_hllc`` picks it."""
    rho, v, p = prim
    c = np.sqrt(gamma * p / rho)
    nxt = lambda a: np.roll(a, -1)
    sL = np.minimum(v - c, nxt(v) - nxt(c))
    sR = np.maximum(v + c, nxt(v) + nxt(c))
    mL, mR = rho * (sL - v), nxt(rho) * (sR - nxt(v))
    sM = (nxt(p) - p + mL * v - mR * nxt(v)) / (mL - mR)
    same = (prim == np.roll(prim, -1, axis=1)).all(axis=0)
    return np.select(
        [same, sL >= 0, sM >= 0, sR > 0],
        ["equal", "upwind left", "star left", "star right"], "upwind right",
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hllc_faces_of_every_branch_match_the_reference(dim):
    prim = np.array(BRANCH_STATES).T
    assert set(_hllc_branches(prim)) == {
        "equal", "upwind left", "star left", "star right", "upwind right",
    }
    # in 2D and 3D the line runs along x, with transverse velocities
    n = prim.shape[1]
    line = np.concatenate([prim[:2], 0.1 * np.arange(1, dim)[:, None] * prim[1:2], prim[2:]])
    shape = (dim + 2,) + (2,) * (dim - 1) + (n,)
    prim = np.broadcast_to(line.reshape((dim + 2,) + (1,) * (dim - 1) + (n,)), shape).copy()
    field, cfg = make_case(prim, FluxKind.HLLC, ReconstructionKind.NONE)
    assert np.array_equal(_bits(spatial_residual(field, cfg)), _bits(reference(field, cfg)))


# ---------------------------------------------------------------------------
# The halo pass of a step
# ---------------------------------------------------------------------------

PERIODIC, OUTFLOW = BoundaryKind.PERIODIC, BoundaryKind.OUTFLOW

#: rank layouts of 1, 2 and 3 dimensions
HALO_LAYOUTS = [(1,), (2,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 2)]


def _euler_stack_with_nan_ghosts(ranks, bc, g=2, physical=False):
    """A random Euler-shaped stack on ``ranks`` (4 cells per rank and axis)
    whose ghosts hold NaN, its RK1 scheme and halo plan.  Its values are
    drawn from [0, 1) (no negative zero), which leaves most cells
    unphysical; ``physical`` raises densities and energies so that none is."""
    dim = len(ranks)
    cells = tuple(4 * r for r in ranks)
    grid = GridSpec(dim, cells, (0.0,) * dim, (1.0,) * dim, ghost_width=g)
    rng = np.random.default_rng(sum(ranks) + 10 * dim)
    interior = rng.random((dim + 2,) + grid.interior_shape)
    if physical:
        interior[0] += 1.0
        interior[-1] += 10.0
    stack = scatter_field(field_from_interior(grid, interior), ranks)
    interior = stack.interior.copy()
    stack.data[...] = np.nan
    stack.interior[...] = interior
    cfg = euler_scheme(EquationModel(kind="euler", dim=dim))
    cfg = solver.SchemeConfig(cfg.model, cfg.flux, cfg.recon, rk_order=1, bc=bc)
    return stack, cfg, halo_plan(stack, ranks, bc)


@pytest.mark.parametrize("physical", [True, False], ids=["step", "failing-residual"])
@pytest.mark.parametrize("kind", [PERIODIC, OUTFLOW], ids=["periodic", "outflow"])
@pytest.mark.parametrize("ranks", HALO_LAYOUTS, ids=lambda r: "x".join(map(str, r)))
def test_the_halo_pass_of_a_step_equals_exchange_halos(ranks, kind, physical):
    bc = (kind,) * len(ranks)
    stack, cfg, plan = _euler_stack_with_nan_ghosts(ranks, bc, physical=physical)
    want = stack.data.copy()
    exchange_halos(halo_plan(Field(stack.grid, stack.ncomp, want), ranks, bc))
    assert not np.isnan(want).any()
    # an RK1 step of dt = 0: its one halo pass, then a residual that fails on
    # an unphysical cell (status 4) and leaves the state as it was, or an
    # update u + 0 k that keeps every interior value (u + 0 k would turn a
    # -0.0 into +0.0, but none is drawn)
    with np.errstate(all="ignore"):
        assert EulerStack(stack, cfg, plan).step(0.0) == (0 if physical else 4)
    assert np.array_equal(_bits(stack.data), _bits(want))


def test_a_halo_plan_of_another_array_is_refused():
    stack, cfg, plan = _euler_stack_with_nan_ghosts((2, 1), (PERIODIC, PERIODIC))
    other = Field(stack.grid, stack.ncomp, stack.data.copy())
    with pytest.raises(ValueError, match="within the stack's state"):
        EulerStack(stack, cfg, halo_plan(other, (2, 1), cfg.bc))


# ---------------------------------------------------------------------------
# Failures: the state, status and error of the per-stage reference
# ---------------------------------------------------------------------------


def _random_line(seed, n=16):
    """(rho, v, p) of a rough 1D gas: densities over 1.6 decades, pressures
    over 6, velocities of a few sound speeds; some fail within a few steps."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.uniform(0.05, 2, n), rng.normal(0, 3, n), 10 ** rng.uniform(-6, 0, n)])


def _bound(field, cfg, ranks):
    stack = scatter_field(field, ranks)
    return EulerStack(stack, cfg, halo_plan(stack, ranks, cfg.bc))


def _step_until_failure(stack, cfg, step):
    """CFL steps of ``step(stack, dt)`` until one fails: its number, status
    and the state it left."""
    assert stack.cell_pass() == 0
    for k in range(1, 20):
        status = step(stack, solver.dt_from_maxima(stack.maxima, stack.grid.deltas, cfg.cfl))
        if status:
            return k, status, stack.data.copy()
    raise AssertionError("no step failed")


def _run_error(field, cfg, ranks=None):
    with np.errstate(all="ignore"):
        with pytest.raises((SimulationError, UnphysicalStateError)) as err:
            run_simulation(field.copy(), cfg, ranks)
    return type(err.value), str(err.value), err.value.rank


def _reference_euler_step(stack, dt):
    """``reference_step`` in place of ``EulerStack.step``: its status, with
    the stage of a residual that stopped it where the kernel leaves it."""
    status, stage = reference_step(stack, dt)
    if stage is not None:
        stack._args.stop_stage = stage
    return status


#: (seed of _random_line, step, status, stage) of natural failures: the
#: residual of the second stage, and the cell pass
FAILURES = {
    "residual-of-stage-2": (3, 2, 4, 1),
    "cell-pass": (150, 2, STEP_CELLS, None),
}


@pytest.mark.parametrize("ranks", [(1,), (2,)], ids=["serial", "2-ranks"])
@pytest.mark.parametrize("failure", FAILURES)
def test_a_failing_step_leaves_the_state_and_error_of_the_per_stage_reference(
    failure, ranks, monkeypatch
):
    seed, k, status, stage = FAILURES[failure]
    field, cfg = make_case(_random_line(seed), FluxKind.HLLC, ReconstructionKind.WENO3)
    stages = []

    def per_stage(stack, dt):
        # the reference's status, recording the stage it stopped at
        result = reference_step(stack, dt)
        stages.append(result[1])
        return result[0]

    with np.errstate(all="ignore"):
        compiled = _bound(field, cfg, ranks)
        got = _step_until_failure(compiled, cfg, EulerStack.step)
        want = _step_until_failure(_bound(field, cfg, ranks), cfg, per_stage)
    assert got[:2] == want[:2] == (k, status)
    assert stages[-1] == stage
    if stage is not None:
        assert compiled.stop_stage == stage
    # the state of the stage before the failing one, ghosts filled
    assert np.array_equal(_bits(got[2]), _bits(want[2]))
    error, serial = _run_error(field, cfg, ranks), _run_error(field, cfg)
    monkeypatch.setattr(EulerStack, "step", _reference_euler_step)
    assert error == _run_error(field, cfg, ranks)
    if failure == "cell-pass":
        assert f"after step {k} " in error[1]
    else:
        # the step, its start time and the stage, as the serial run names them
        named = re.search(r" in step \d+ \(t = [^)]*\), stage \d+$", serial[1]).group()
        assert named.startswith(f" in step {k} (t = ") and named.endswith(f", stage {stage + 1}")
        assert error[1].endswith(named)


@pytest.mark.parametrize("where", ["rows", "column"])
@pytest.mark.parametrize("ranks", [(1, 1), (2, 1)], ids=["serial", "2x1"])
def test_a_degenerate_wave_fan_on_a_shared_64x64_step(ranks, where):
    # infinitely dense gas at rest in the last rank: rows 40 .. 63 stop the x
    # sweep of the first stage at row 40, in a chunk that either thread may
    # take; column 13 stops the y sweep at the sixth of a block of 8 lines
    # swept together
    def marked():
        stack, cfg, _ = _setup("kh2d-64", ranks)
        g, R = stack.grid.ghost_width, stack.data.shape[1]
        if where == "rows":
            stack.data[:, R - 1, g + 40:-g, g:-g] = np.reshape(DENSE, (-1, 1, 1))
        else:
            stack.data[:, R - 1, g:-g, g + 13] = np.reshape(DENSE, (-1, 1))
        return stack, cfg

    stack, cfg = marked()
    compiled = EulerStack(stack, cfg, halo_plan(stack, ranks, cfg.bc))
    reference_stack, _ = marked()
    per_stage = EulerStack(reference_stack, cfg, halo_plan(reference_stack, ranks, cfg.bc))
    axis = 0 if where == "rows" else 1
    with np.errstate(all="ignore"):
        for _ in range(20):
            assert compiled.step(1e-4) == SWEEP_DEGENERATE
            assert reference_step(per_stage, 1e-4) == (SWEEP_DEGENERATE, 0)
            assert compiled.stop == per_stage.stop == (axis, stack.data.shape[1] - 1)
            assert compiled.stop_stage == 0
            assert np.array_equal(_bits(compiled.data), _bits(per_stage.data))
        with pytest.raises(UnphysicalStateError, match="^degenerate HLLC wave fan") as err:
            solver.ssp_rk_step(compiled, 1e-4, cfg)
    assert err.value.rank == stack.data.shape[1] - 1
