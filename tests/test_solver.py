import numpy as np
import pytest

import conslaw.solver
from conslaw.equations import EquationModel, primitive_to_conserved
from conslaw.errors import ConfigError, SimulationError, StaticFieldError
from conslaw.grid import BoundaryKind, GridSpec, field_from_interior, make_field, total_integral
from conslaw.numerics import FluxKind, Reconstruction, ReconstructionKind
from conslaw.solver import (
    SchemeConfig,
    bind_run,
    dt_from_maxima,
    run_simulation,
    spatial_residual,
    stable_dt,
)
from oracles import ssp_rk_advance

BURGERS = EquationModel(kind="burgers", dim=1)


def burgers_cfg(t_end=0.1, recon=ReconstructionKind.NONE, rk_order=1, bc=None):
    return SchemeConfig(
        model=BURGERS,
        flux=FluxKind.RUSANOV,
        recon=Reconstruction(recon),
        rk_order=rk_order,
        t_end=t_end,
        bc=bc or (BoundaryKind.PERIODIC,),
    )


def euler_cfg(dim, t_end=0.1, rk_order=3, recon=ReconstructionKind.WENO3):
    return SchemeConfig(
        model=EquationModel(kind="euler", dim=dim),
        flux=FluxKind.HLLC,
        recon=Reconstruction(recon),
        rk_order=rk_order,
        t_end=t_end,
        bc=(BoundaryKind.PERIODIC,) * dim,
    )


# ---------------------------------------------------------------------------
# Time integrator, exercised on scalar ODEs where the answer is a polynomial
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "order,poly",
    [
        (1, lambda z: 1 + z),
        (2, lambda z: 1 + z + z**2 / 2),
        (3, lambda z: 1 + z + z**2 / 2 + z**3 / 6),
    ],
)
def test_rk_stability_polynomial(order, poly):
    # u' = lam u for one step: amplification must equal the truncated exponential
    for lam in (-0.5, 0.25, -1.5):
        u = np.array([1.0])
        out = ssp_rk_advance(u, 1.0, lambda v: lam * v, order)
        assert out[0] == pytest.approx(poly(lam), rel=1e-14)


def test_rk3_third_order_on_nonlinear_ode():
    # u' = u^2, u(0) = 1: exact solution 1/(1-t); halving dt must cut the
    # error by about 2^3
    def rhs(v):
        return v * v

    errors = []
    for steps in (20, 40):
        dt = 0.5 / steps
        v = np.array([1.0])
        for _ in range(steps):
            v = ssp_rk_advance(v, dt, rhs, 3)
        errors.append(abs(v[0] - 2.0))
    ratio = errors[0] / errors[1]
    assert 6.0 < ratio < 10.0


def test_rk_rejects_unknown_order():
    # the scheme is the one place an order is checked; a run's stack steps
    # with the stages of a checked order
    with pytest.raises(ConfigError, match="rk_order must be 1, 2 or 3, got 4"):
        burgers_cfg(rk_order=4)


# ---------------------------------------------------------------------------
# Spatial residual and timestep
# ---------------------------------------------------------------------------


def _burgers_field(values, ghost=2):
    n = len(values)
    g = GridSpec(1, (n,), (0.0,), (1.0,), ghost_width=ghost)
    f = field_from_interior(g, np.asarray(values, dtype=float)[None])
    return f


def test_residual_telescopes_to_zero_sum():
    # periodic flux differences cancel: the residual integrates to zero
    rng = np.random.default_rng(6)
    f = _burgers_field(rng.normal(0.0, 1.0, 32))
    from conslaw.parallel import fill_boundary

    fill_boundary(f, (BoundaryKind.PERIODIC,))
    res = spatial_residual(f, burgers_cfg(recon=ReconstructionKind.WENO3))
    assert abs(res.sum()) < 1e-13


def test_residual_zero_on_constant_field():
    f = _burgers_field(np.full(16, 0.7))
    from conslaw.parallel import fill_boundary

    fill_boundary(f, (BoundaryKind.PERIODIC,))
    res = spatial_residual(f, burgers_cfg(recon=ReconstructionKind.WENO2))
    np.testing.assert_array_equal(res, 0.0)


def test_dt_respects_cfl_and_remaining_time():
    maxima = np.array([4.0])
    dt = dt_from_maxima(maxima, (0.1,), 0.5, None)
    assert dt == pytest.approx(0.5 * 0.1 / 4.0)
    assert dt_from_maxima(maxima, (0.1,), 0.5, 0.001) == pytest.approx(0.001)


def test_dt_multidim_sums_per_axis_speeds():
    dt = dt_from_maxima(np.array([2.0, 3.0]), (0.5, 0.25), 1.0, None)
    assert dt == pytest.approx(1.0 / (2.0 / 0.5 + 3.0 / 0.25))


def test_static_field_raises():
    g = GridSpec(1, (8,), (0.0,), (1.0,))
    f = make_field(g, 1, 0.0)  # zero Burgers field: no waves at all
    with pytest.raises(StaticFieldError):
        stable_dt(f, burgers_cfg())


def test_a_cfl_quotient_that_overflows_gives_dt_0_without_a_warning():
    assert dt_from_maxima(np.array([1e11]), (1e-300,), 0.475) == 0.0


def test_a_time_step_that_does_not_advance_t_raises():
    # normal cell widths of 1e-300 and a sound speed of about 1e11; a run to
    # t_end is tested in a process of its own (test_cli.py), where a loop
    # that never ends fails the test rather than hanging the suite
    g = GridSpec(1, (16,), (0.0,), (1.6e-299,))
    cfg = euler_cfg(1, t_end=0.02)
    w = np.stack([np.ones(16), np.zeros(16), np.full(16, 1e22)])
    f = field_from_interior(g, primitive_to_conserved(cfg.model, w))
    with pytest.raises(SimulationError, match=r"^time step 0 does not advance t in step 1 \(t = 0\)$"):
        run_simulation(f, cfg, steps=3)


def test_a_cell_width_that_is_not_a_normal_double_is_rejected():
    GridSpec(1, (16,), (0.0,), (16 * 2.0 ** -1022,))
    with pytest.raises(ConfigError, match="cell width extent / cells must be a normal double"):
        GridSpec(1, (16,), (0.0,), (16 * 2.0 ** -1023,))


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------


def test_conserved_totals_preserved_on_periodic_grid():
    g = GridSpec(1, (64,), (0.0,), (1.0,))
    x = g.cell_centers(0)
    w = np.stack([1.0 + 0.3 * np.sin(2 * np.pi * x), 0.4 * np.ones_like(x), np.ones_like(x)])
    f = field_from_interior(g, primitive_to_conserved(euler_cfg(1).model, w))
    q0 = total_integral(f)
    final, records = run_simulation(f, euler_cfg(1, t_end=0.2))
    q1 = total_integral(final)
    np.testing.assert_allclose(q1, q0, rtol=1e-13, atol=1e-13)
    assert records[-1].t == pytest.approx(0.2)


def test_first_order_burgers_preserves_monotonicity():
    g = GridSpec(1, (100,), (0.0,), (1.0,), ghost_width=1)
    x = g.cell_centers(0)
    u0 = 2.0 + np.tanh(10.0 * (0.5 - x))  # decreasing, steepens into a shock
    f = field_from_interior(g, u0[None])
    cfg = burgers_cfg(
        t_end=0.1, recon=ReconstructionKind.NONE, rk_order=1,
        bc=(BoundaryKind.OUTFLOW,),
    )
    final, _ = run_simulation(f, cfg)
    diffs = np.diff(final.interior[0])
    assert (diffs <= 1e-12).all()  # monotone data stays monotone


def test_runs_are_deterministic():
    g = GridSpec(2, (16, 16), (0.0, 0.0), (1.0, 1.0))
    x, y = g.cell_centers(0), g.cell_centers(1)
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * x)[None, :] * np.cos(2 * np.pi * y)[:, None]
    w = np.stack([rho, 0.5 * np.ones_like(rho), np.zeros_like(rho), np.ones_like(rho)])
    cfg = euler_cfg(2, t_end=0.05)
    f = field_from_interior(g, primitive_to_conserved(cfg.model, w))
    a, _ = run_simulation(f.copy(), cfg)
    b, _ = run_simulation(f.copy(), cfg)
    np.testing.assert_array_equal(a.interior, b.interior)


def test_observer_sees_initial_state_and_every_step():
    g = GridSpec(1, (32,), (0.0,), (1.0,))
    x = g.cell_centers(0)
    f = field_from_interior(g, (1.5 + np.sin(2 * np.pi * x))[None])
    seen = []
    run_simulation(
        f, burgers_cfg(t_end=0.05, recon=ReconstructionKind.WENO2, rk_order=2),
        observers=[lambda step, t, fld: seen.append((step, t))],
        steps=5,
    )
    assert seen[0][0] == 0 and seen[0][1] == 0.0
    assert [s for s, _ in seen] == list(range(len(seen)))


@pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
def test_scheme_rejects_a_t_end_that_is_not_finite(t_end):
    # nan never reaches the end time, inf ends the run before its first step
    with pytest.raises(ConfigError, match="t_end must be finite"):
        burgers_cfg(t_end=t_end)


def test_scheme_validation():
    with pytest.raises(ConfigError):
        burgers_cfg(t_end=-1.0)
    with pytest.raises(ConfigError):
        SchemeConfig(
            model=BURGERS, flux=FluxKind.HLLC,
            recon=Reconstruction(ReconstructionKind.NONE),
            rk_order=1, t_end=1.0, bc=(BoundaryKind.PERIODIC,),
        )  # contact-restoring flux needs the full Euler system


def _kh_field(grid, shift):
    model = EquationModel(kind="euler", dim=2)
    x, y = np.meshgrid(grid.cell_centers(0), grid.cell_centers(1))
    w = np.stack([1.0 + 0.5 * np.sin(2 * np.pi * (x + y + shift)), 0.5 + 0 * x,
                  np.cos(2 * np.pi * x) * 0.2, 1.0 + 0 * x])
    return field_from_interior(grid, primitive_to_conserved(model, w))


@pytest.mark.parametrize("ranks", [None, (2, 1), (2, 2)])
def test_a_bound_stack_runs_each_loaded_field_as_a_fresh_solve(ranks):
    grid = GridSpec(2, (8, 8), (0.0, 0.0), (1.0, 1.0))
    cfg = euler_cfg(2, t_end=0.05)
    stack = bind_run(_kh_field(grid, 0.0), cfg, ranks)
    for shift in (0.0, 0.3, 0.7):
        stack.load(_kh_field(grid, shift))
        final, records = run_simulation(stack, cfg, ranks)
        fresh, fresh_records = run_simulation(_kh_field(grid, shift), cfg, ranks)
        assert final.grid == grid
        assert final.data.tobytes() == fresh.data.tobytes()
        assert [r.dt for r in records] == [r.dt for r in fresh_records]


def test_a_bound_stack_runs_on_its_own_layout_and_grid_only():
    grid = GridSpec(2, (8, 8), (0.0, 0.0), (1.0, 1.0))
    cfg = euler_cfg(2, t_end=0.05)
    stack = bind_run(_kh_field(grid, 0.0), cfg, (2, 1))
    with pytest.raises(ConfigError, match=r"rank layout \(2, 1\) cannot run on \(1, 2\)"):
        run_simulation(stack, cfg, (1, 2))
    with pytest.raises(ValueError, match="cannot load"):
        stack.load(_kh_field(GridSpec(2, (8, 8), (0.0, 0.0), (2.0, 1.0)), 0.0))


@pytest.mark.parametrize("ranks", [None, (2, 1)])
@pytest.mark.parametrize("stitch_at", [None, "final", "every"])
def test_a_run_stitches_its_final_field_once(monkeypatch, ranks, stitch_at):
    # an observer that stitches the final state hands the run its result
    stitches = []
    stitch = conslaw.solver.stitch_fields

    def counting(*args):
        stitches.append(args)
        return stitch(*args)

    def observer(step, t, field):
        if stitch_at == "every" or stitch_at == "final" and step == 3:
            seen.append(field())

    seen = []
    grid = GridSpec(2, (8, 8), (0.0, 0.0), (1.0, 1.0))
    cfg = euler_cfg(2)
    stack = bind_run(_kh_field(grid, 0.3), cfg, ranks)
    monkeypatch.setattr(conslaw.solver, "stitch_fields", counting)
    final, _ = run_simulation(stack, cfg, ranks, [observer], steps=3)
    assert len(stitches) == len(seen) + (stitch_at is None)
    if seen:
        assert final is seen[-1]
    fresh = stitch(stack, *stack.layout)
    assert final.data.tobytes() == fresh.data.tobytes()
