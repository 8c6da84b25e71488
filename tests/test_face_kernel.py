"""The solver's Euler face path against a face-by-face reference, and its
failure paths.

The compiled face sweep (``_faces.c``) shares one set of WENO differences
between both face sides and one pressure pass per side between the
positivity fallback, the checks and the flux.  It must give the same values
as evaluating every face on its own (``oracles.reference_euler_residual``).
When it stops, ``spatial_residual`` names the face in the error: the first
bad left state of the axis in grid order, else the first bad right state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslaw.equations import EquationModel, physical_mask, primitive_to_conserved
from conslaw.errors import SimulationError, UnphysicalStateError
from conslaw.grid import (
    BoundaryKind,
    Field,
    GridSpec,
    data_axis,
    field_from_interior,
    fill_boundary,
)
from conslaw.numerics import (
    EulerStack, FluxKind, Reconstruction, ReconstructionKind, reconstruct_axis,
)
from conslaw.parallel import exchange_halos, local_grid, scatter_field
from conslaw import numerics, solver
from conslaw.solver import SchemeConfig, run_simulation, spatial_residual, wave_speed_maxima
from oracles import rank_offsets, reference_euler_residual

SCHEMES = [
    (flux, recon)
    for flux in (FluxKind.HLLC, FluxKind.RUSANOV)
    for recon in (
        ReconstructionKind.NONE,
        ReconstructionKind.WENO2,
        ReconstructionKind.WENO3,
    )
]


def make_case(prim, flux, recon, bc=None, ghost=2):
    """Ghost-filled Euler field from primitive interior data (numpy layout)."""
    dim = prim.ndim - 1
    model = EquationModel(kind="euler", dim=dim)
    cells = tuple(reversed(prim.shape[1:]))
    grid = GridSpec(
        dim, cells, (0.0,) * dim, tuple(0.1 * c for c in cells), ghost_width=ghost
    )
    cfg = SchemeConfig(
        model=model,
        flux=flux,
        recon=Reconstruction(recon),
        rk_order=3,
        bc=tuple(bc or (BoundaryKind.PERIODIC,) * dim),
    )
    field = field_from_interior(grid, primitive_to_conserved(model, prim))
    fill_boundary(field, cfg.bc)
    return field, cfg


def reference(field, cfg):
    return reference_euler_residual(
        field.data,
        field.grid.ghost_width,
        field.grid.deltas,
        cfg.model.gamma,
        cfg.flux.value,
        cfg.recon.kind.value,
        cfg.recon.epsilon,
    )


def random_prim(rng, shape, palette=0):
    """Primitive states; with a palette of k states, cells repeat states so
    that many faces see equal neighbours."""
    dim = len(shape)
    count = palette or int(np.prod(shape))
    states = np.empty((dim + 2, count))
    states[0] = rng.uniform(0.2, 3.0, count)
    states[1 : 1 + dim] = rng.normal(0.0, 1.5, (dim, count))
    states[1 + dim] = rng.uniform(0.2, 4.0, count)
    pick = rng.integers(0, count, shape) if palette else np.arange(count).reshape(shape)
    return states[:, pick]


def fallback_faces(field, cfg):
    """Number of faces whose WENO states are unphysical on either side."""
    grid = field.grid
    g = grid.ghost_width
    total = 0
    for axis in range(grid.dim):
        ax = data_axis(grid.dim, axis)
        sub = field.data
        for other in range(grid.dim):
            if other != axis:
                oax = data_axis(grid.dim, other)
                idx = [slice(None)] * sub.ndim
                idx[oax] = slice(g, g + grid.cells[other])
                sub = sub[tuple(idx)]
        pair = reconstruct_axis(sub, ax, grid.cells[axis], g, cfg.recon)
        ok = physical_mask(cfg.model, pair.uL) & physical_mask(cfg.model, pair.uR)
        total += int((~ok).sum())
    return total


@st.composite
def euler_inputs(draw):
    dim = draw(st.integers(1, 3))
    n_max = {1: 10, 2: 6, 3: 4}[dim]
    shape = tuple(draw(st.integers(2, n_max)) for _ in range(dim))
    bc = tuple(
        draw(st.sampled_from([BoundaryKind.PERIODIC, BoundaryKind.OUTFLOW]))
        for _ in range(dim)
    )
    seed = draw(st.integers(0, 2**32 - 1))
    palette = draw(st.sampled_from([0, 2, 3]))
    return shape, bc, seed, palette


@pytest.mark.parametrize("flux,recon", SCHEMES)
@given(case=euler_inputs())
@settings(max_examples=30, deadline=None)
def test_residual_equals_face_by_face_reference(flux, recon, case):
    shape, bc, seed, palette = case
    prim = random_prim(np.random.default_rng(seed), shape, palette)
    field, cfg = make_case(prim, flux, recon, bc)
    assert np.array_equal(spatial_residual(field, cfg), reference(field, cfg))


@pytest.mark.parametrize("flux,recon", SCHEMES)
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_equal_face_states_match_reference(flux, recon, axis):
    # two states in blocks along ``axis``: most faces of that axis see
    # uL == uR, a few see a jump
    prim = np.empty((4, 6, 8))
    prim[:, :, :4] = np.array([1.0, 0.3, -0.2, 1.5])[:, None, None]
    prim[:, :, 4:] = np.array([0.5, -0.1, 0.4, 0.8])[:, None, None]
    if axis == 1:
        # the same blocks with x and y swapped, velocities included
        prim = prim[[0, 2, 1, 3]].transpose(0, 2, 1)
    field, cfg = make_case(prim, flux, recon)
    crop = (slice(None), slice(2, -2)) if axis == 0 else (slice(None), slice(None), slice(2, -2))
    pair = reconstruct_axis(field.data[crop], 2 - axis, 8, 2, cfg.recon)
    assert np.all(pair.uL == pair.uR, axis=0).sum() > 0
    assert np.array_equal(spatial_residual(field, cfg), reference(field, cfg))


def near_vacuum_prim(dim=1):
    # a fast light jet next to slow dense gas at low pressure: WENO faces
    # overshoot the kinetic energy and need the first-order fallback.  In 2D
    # and 3D the jet runs along the last axis, 3 cells wide on the others.
    rho = np.array([1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3, 1.0, 1.0])
    v = np.array([0.0, 0.0, 0.0, 30.0, 30.0, -30.0, 0.0, 0.0])
    p = np.full(8, 1e-4)
    prim = np.zeros((dim + 2, 8) + (3,) * (dim - 1))
    along = (slice(None),) + (None,) * (dim - 1)
    prim[0], prim[dim], prim[dim + 1] = rho[along], v[along], p[along]
    return prim


@pytest.mark.parametrize("flux", [FluxKind.HLLC, FluxKind.RUSANOV])
@pytest.mark.parametrize("recon", [ReconstructionKind.WENO2, ReconstructionKind.WENO3])
@pytest.mark.parametrize("dim", [1, 2, 3], ids=["1d-x", "2d-y", "3d-z"])
def test_positivity_fallback_matches_reference(flux, recon, dim):
    field, cfg = make_case(near_vacuum_prim(dim), flux, recon)
    assert fallback_faces(field, cfg) > 0
    assert np.array_equal(spatial_residual(field, cfg), reference(field, cfg))


@pytest.mark.parametrize("flux,recon", SCHEMES)
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_residual_is_mirror_symmetric(flux, recon, axis):
    # reflecting the gas across a plane normal to ``axis`` reflects its
    # residual: the sweep treats the two sides of a face alike
    prim = _states((6, 8))
    ax = 2 - axis  # the data axis of ``axis`` in (component, y, x) layout
    mirrored = np.flip(prim, ax).copy()
    mirrored[1 + axis] *= -1
    field, cfg = make_case(prim, flux, recon)
    want = np.flip(spatial_residual(field, cfg), ax).copy()
    want[1 + axis] *= -1
    got = spatial_residual(make_case(mirrored, flux, recon)[0], cfg)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("recon", list(ReconstructionKind))
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_hllc_keeps_a_stationary_contact(recon, axis):
    # gas at rest at one pressure with density jumps along ``axis``: HLLC
    # resolves the contacts, so nothing changes; Rusanov diffuses them
    rho = np.array([1.0, 1.0, 0.4, 0.4, 2.0, 2.0, 0.7, 1.0])
    prim = np.zeros((4, 8, 8))
    prim[0] = rho[:, None] if axis == 1 else rho[None, :]
    prim[3] = 1.0
    field, cfg = make_case(prim, FluxKind.HLLC, recon)
    np.testing.assert_allclose(spatial_residual(field, cfg), 0.0, atol=1e-12)
    field, cfg = make_case(prim, FluxKind.RUSANOV, recon)
    assert np.abs(spatial_residual(field, cfg)[0]).max() > 1e-2


# (cells, rank layouts, boundary kinds) of the stacked residual checks
STACK_CASES = [
    ((8,), [(2,), (4,)], (BoundaryKind.OUTFLOW,)),
    (
        (8, 6),
        [(1, 1), (2, 1), (1, 2), (2, 2)],
        (BoundaryKind.OUTFLOW, BoundaryKind.PERIODIC),
    ),
    (
        (4, 4, 4),
        [(2, 1, 2), (2, 2, 2)],
        (BoundaryKind.PERIODIC, BoundaryKind.OUTFLOW, BoundaryKind.PERIODIC),
    ),
]


@pytest.mark.parametrize("flux,recon", SCHEMES)
@pytest.mark.parametrize("cells,layouts,bc", STACK_CASES, ids=["1d", "2d", "3d"])
def test_cropped_region_matches_reference(flux, recon, cells, layouts, bc):
    # one residual call over the stack of all ranks, with ghosts as wide as
    # the stencil radius filled by one halo pass, gives each rank the same
    # cells of the global residual
    prim = random_prim(np.random.default_rng(11), tuple(reversed(cells)))
    ghost = Reconstruction(recon).radius
    field, cfg = make_case(prim, flux, recon, bc, ghost=ghost)
    want = reference(field, cfg)
    for ranks in layouts:
        stack = scatter_field(field, ranks)
        exchange_halos(stack, ranks, cfg.bc)
        got = spatial_residual(stack, cfg)
        for rank, offset in enumerate(rank_offsets(field.grid.cells, ranks)):
            crop = tuple(
                slice(o, o + n)
                for o, n in zip(reversed(offset), reversed(stack.grid.cells))
            )
            assert np.array_equal(got[:, rank], want[(slice(None),) + crop])


def test_fallback_in_one_rank_only_matches_serial():
    # the near-vacuum jet lies in rank 0 (cells 0..7); rank 1 is quiet gas
    quiet = np.array([1.0, 0.0, 1e-4])[:, None]
    jet = near_vacuum_prim()[:, 2:]
    prim = np.concatenate([quiet, quiet, jet, np.repeat(quiet, 8, axis=1)], axis=1)
    field, cfg = make_case(prim, FluxKind.HLLC, ReconstructionKind.WENO3)
    stack = scatter_field(field, (2,))
    exchange_halos(stack, (2,), cfg.bc)
    ranks = [Field(stack.grid, stack.ncomp, stack.data[:, r]) for r in range(2)]
    assert fallback_faces(ranks[0], cfg) > 0
    assert fallback_faces(ranks[1], cfg) == 0
    assert np.array_equal(
        spatial_residual(stack, cfg).reshape(field.ncomp, -1),
        spatial_residual(field, cfg),
    )
    serial, serial_records = run_simulation(field.copy(), cfg, steps=3)
    par, records = run_simulation(field.copy(), cfg, (2,), steps=3)
    assert np.array_equal(par.interior, serial.interior)
    assert [r.dt for r in records] == [r.dt for r in serial_records]


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------


def _states(shape):
    return random_prim(np.random.default_rng(5), shape)


# (padded index, face that reads it, total energy) of an unphysical ghost of
# an axis of n cells: the one next to the first interior cell is read by
# face 0, the one next to the last by face n.  At the high end the WENO
# states of a ghost with energy -1 are physical on these states, so that
# ghost is made unphysical enough to stay so in each reconstruction.
SIDES = {"low": lambda n: (1, 0, -1.0), "high": lambda n: (n + 2, n, -1e3)}


@pytest.mark.parametrize("flux,recon", SCHEMES)
@pytest.mark.parametrize("side", SIDES)
def test_unphysical_ghost_names_the_face_cell(flux, recon, side):
    field, cfg = make_case(_states((6,)), flux, recon)
    ghost, face, energy = SIDES[side](6)
    field.data[:, ghost] = [1.0, 0.0, energy]
    with pytest.raises(UnphysicalStateError, match=rf"unphysical state at cell \({face},\)"):
        spatial_residual(field, cfg)


@pytest.mark.parametrize("flux,recon", SCHEMES)
@pytest.mark.parametrize("side", SIDES)
def test_unphysical_ghost_names_the_face_cell_in_2d(flux, recon, side):
    field, cfg = make_case(_states((4, 6)), flux, recon)
    # an x ghost in row 2 is read by x face (2, face) in (y, x) order
    ghost, face, energy = SIDES[side](6)
    field.data[:, 2 + 2, ghost] = [1.0, 0.0, 0.0, energy]
    with pytest.raises(UnphysicalStateError, match=rf"unphysical state at cell \(2, {face}\)"):
        spatial_residual(field, cfg)
    # a y ghost of column 3 is read by y face (face, 3)
    fill_boundary(field, cfg.bc)
    ghost, face, energy = SIDES[side](4)
    field.data[:, ghost, 2 + 3] = [1.0, 0.0, 0.0, energy]
    with pytest.raises(UnphysicalStateError, match=rf"unphysical state at cell \({face}, 3\)"):
        spatial_residual(field, cfg)


@pytest.mark.parametrize("flux,recon", SCHEMES)
def test_the_first_bad_left_face_of_the_axis_is_named(flux, recon):
    # y ghosts read by y faces: the left state of face (0, 4) and the right
    # state of face (4, 1).  The kernel meets column 1 first; the error
    # names the left side of the whole axis first.
    field, cfg = make_case(_states((4, 6)), flux, recon)
    g = field.grid.ghost_width
    field.data[:, g - 1, g + 4] = [1.0, 0.0, 0.0, -1.0]
    field.data[:, g + 4, g + 1] = [1.0, 0.0, 0.0, -1.0]
    with pytest.raises(UnphysicalStateError, match=r"unphysical state at cell \(0, 4\)"):
        spatial_residual(field, cfg)


@pytest.mark.parametrize("recon", list(ReconstructionKind))
def test_an_unphysical_face_is_named_before_an_earlier_degenerate_line(recon):
    # x faces: row 0 is infinitely dense gas at rest, whose HLLC wave fan is
    # degenerate; row 2 has an unphysical x ghost, read by face (2, 0)
    field, cfg = make_case(_states((4, 6)), FluxKind.HLLC, recon)
    g = field.grid.ghost_width
    field.data[0, g] = np.inf
    field.data[1:3, g] = 0.0
    field.data[:, g + 2, g - 1] = [1.0, 0.0, 0.0, -1.0]
    with np.errstate(invalid="ignore"):
        with pytest.raises(UnphysicalStateError, match=r"unphysical state at cell \(2, 0\)"):
            spatial_residual(field, cfg)


@pytest.mark.parametrize("recon", [ReconstructionKind.NONE, ReconstructionKind.WENO3])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d-x", "2d-y"])
def test_degenerate_wave_fan_raises_in_residual(recon, dim):
    # infinitely dense gas at rest passes the positivity check but has no
    # sound speed; in 2D only column 2 is, so only its y faces degenerate
    field, cfg = make_case(_states((6,) * dim), FluxKind.HLLC, recon)
    column = (slice(None),) * dim if dim == 1 else (slice(None), field.grid.ghost_width + 2)
    field.data[(0,) + column] = np.inf
    field.data[(slice(1, 1 + dim),) + column] = 0.0
    with np.errstate(invalid="ignore"):
        # in 2D the x sweep passes and the y sweep stops
        stack = EulerStack(field, cfg)
        assert stack.compute_residual() == numerics.SWEEP_DEGENERATE
        assert stack.stop == (dim - 1, 0)
        with pytest.raises(UnphysicalStateError, match="degenerate"):
            spatial_residual(field, cfg)


def _field_with_bad_cell(cell):
    field, cfg = make_case(_states((4, 8)), FluxKind.HLLC, ReconstructionKind.WENO3)
    g = field.grid.ghost_width
    field.data[(3, g + cell[0], g + cell[1])] = -1.0  # negative energy
    return field, cfg


def test_interior_check_names_the_cell_serial():
    field, cfg = _field_with_bad_cell((1, 6))
    with pytest.raises(SimulationError, match=r"interior cell \(1, 6\)"):
        spatial_residual(field, cfg)


def test_interior_check_names_the_cell_on_2x1_ranks(monkeypatch):
    field, cfg = make_case(_states((4, 8)), FluxKind.HLLC, ReconstructionKind.WENO3)
    g = field.grid.ghost_width
    assert rank_offsets(field.grid.cells, (2, 1)) == [(0, 0), (4, 0)]
    assert local_grid(field.grid, (2, 1)).cells == (4, 4)
    real_residual = solver.spatial_residual

    def corrupting_residual(stage, c):
        # rank 1 owns x in [4, 8): global cell (1, 6) is (1, 2) in its
        # local numbering; rank 0's stages stay physical.  The stack of both
        # ranks has a rank axis after the components.
        if stage.data.ndim == 4:
            stage.data[(3, 1, g + 1, g + 2)] = -1.0
        return real_residual(stage, c)

    monkeypatch.setattr(solver, "spatial_residual", corrupting_residual)
    with pytest.raises(
        SimulationError, match=r"^rank 1 failed: unphysical state in interior cell \(1, 2\)"
    ):
        run_simulation(field, cfg, (2, 1), steps=1)


def test_cfl_check_names_the_cell_serial_and_on_2x1_ranks():
    field, cfg = _field_with_bad_cell((1, 6))
    with pytest.raises(UnphysicalStateError, match=r"at cell \(1, 6\)"):
        wave_speed_maxima(field, cfg)
    # a bad cell on each rank: rank 0 is checked first
    g = field.grid.ghost_width
    field.data[(3, g + 2, g + 1)] = -1.0
    with pytest.raises(SimulationError, match=r"rank 0 failed: .*at cell \(2, 1\)"):
        run_simulation(field, cfg, (2, 1), steps=1)


def test_non_finite_values_name_the_first_rank_and_its_first_cell():
    field, cfg = make_case(_states((16, 16)), FluxKind.HLLC, ReconstructionKind.WENO3)
    g = field.grid.ghost_width
    # (y, x) cells: rank 1 owns x >= 8, so (3, 12) is its local (3, 4)
    field.data[(0, g + 3, g + 12)] = np.nan
    # rank 0: component 3 at (9, 5) comes before component 0 at (12, 1) in
    # cell order, which is what counts, not component order
    field.data[(3, g + 9, g + 5)] = np.inf
    field.data[(0, g + 12, g + 1)] = np.nan
    with pytest.raises(
        SimulationError,
        match=r"^rank 0 failed: non-finite value in the initial field at cell \(9, 5\)$",
    ):
        run_simulation(field, cfg, (2, 1))


def _corrupt_after_step_2(monkeypatch, rank, index):
    """Make ``solver.ssp_rk_step`` write an unphysical value into one rank's
    state after the second step; returns the list of steps taken."""
    real_step = solver.ssp_rk_step
    steps = []

    def corrupting_step(state, *args):
        real_step(state, *args)
        steps.append(args[0])
        if len(steps) == 2:
            # the state is the stack of ranks: component axis, then rank axis
            state.interior[(index[0], rank) + index[1:]] = -1.0

    monkeypatch.setattr(solver, "ssp_rk_step", corrupting_step)
    return steps


def test_unphysical_state_after_a_step_names_the_step(monkeypatch):
    # the post-step positivity check shares its pressure pass with the CFL
    field, cfg = make_case(_states((8,)), FluxKind.HLLC, ReconstructionKind.WENO3)
    steps = _corrupt_after_step_2(monkeypatch, 0, (2, 3))
    with pytest.raises(SimulationError, match=r"unphysical state after step 2 "):
        run_simulation(field, cfg)
    assert len(steps) == 2


def test_unphysical_state_after_a_step_names_the_step_on_2x1_ranks(monkeypatch):
    field, cfg = make_case(_states((4, 8)), FluxKind.HLLC, ReconstructionKind.WENO3)
    steps = _corrupt_after_step_2(monkeypatch, 1, (3, 1, 2))
    with pytest.raises(
        SimulationError,
        match=r"^rank 1 failed: unphysical state after step 2 .*at cell \(1, 2\)",
    ):
        run_simulation(field, cfg, (2, 1))
    assert len(steps) == 2


# ---------------------------------------------------------------------------
# Decomposed runs fail like serial runs
# ---------------------------------------------------------------------------


def test_a_decomposed_run_fails_the_serial_runs_check():
    # the NaN at (2, 6) fails the finite check, which comes before the
    # positivity check that the negative energy at (1, 1) fails, on every
    # layout; on 2x1 ranks the NaN is rank 1's local cell (2, 2)
    field, cfg = make_case(_states((8, 8)), FluxKind.HLLC, ReconstructionKind.WENO3)
    g = field.grid.ghost_width
    field.data[(0, g + 2, g + 6)] = np.nan
    field.data[(3, g + 1, g + 1)] = -1.0
    with pytest.raises(
        SimulationError, match=r"^non-finite value in the initial field at cell \(2, 6\)$"
    ):
        run_simulation(field.copy(), cfg)
    with pytest.raises(
        SimulationError,
        match=r"^rank 1 failed: non-finite value in the initial field at cell \(2, 2\)$",
    ):
        run_simulation(field, cfg, (2, 1))


#: the two initial-field checks, in the order a run makes them, as the
#: error names them
INITIAL_CHECKS = (
    "non-finite value in the initial field",
    "unphysical state in the initial field: unphysical state",
)


@settings(max_examples=100, deadline=None)
@given(
    bad=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-1, 3)),
        min_size=1, max_size=3,
    ),
    ranks=st.sampled_from([(2, 1), (1, 2), (2, 2)]),
)
def test_decomposed_runs_name_the_serial_check_then_the_first_rank(bad, ranks):
    # bad cells (y, x, c): a NaN in component c, or a negative energy for
    # c = -1.  The check is the serial run's; the rank is the first, in rank
    # order, with a cell failing that check, and the cell that rank's first.
    field, cfg = make_case(_states((8, 8)), FluxKind.HLLC, ReconstructionKind.WENO3)
    g = field.grid.ghost_width
    for y, x, c in bad:
        if c < 0:
            field.data[(3, g + y, g + x)] = -1.0
        else:
            field.data[(c, g + y, g + x)] = np.nan
    # a later write to a cell may replace a NaN by the negative energy
    finite = np.isfinite(field.interior).all(axis=0)
    check, failing = (
        (INITIAL_CHECKS[0], ~finite) if not finite.all()
        else (INITIAL_CHECKS[1], field.interior[3] < 0)
    )
    cells = {(int(y), int(x)) for y, x in np.argwhere(failing)}
    ly, lx = 8 // ranks[1], 8 // ranks[0]
    owned = [
        sorted((y - y0, x - x0) for y, x in cells if y0 <= y < y0 + ly and x0 <= x < x0 + lx)
        for x0, y0 in rank_offsets((8, 8), ranks)
    ]
    rank = next(r for r, local in enumerate(owned) if local)
    with pytest.raises(SimulationError) as serial:
        run_simulation(field.copy(), cfg)
    assert str(serial.value).startswith(f"{check} at cell {min(cells)}")
    with pytest.raises(SimulationError) as decomposed:
        run_simulation(field, cfg, ranks)
    assert str(decomposed.value).startswith(f"rank {rank} failed: {check} at cell {owned[rank][0]}")


@pytest.mark.parametrize("ranks", [(2, 1), (2, 2)])
def test_a_failing_decomposed_stage_computes_one_residual(monkeypatch, ranks):
    # the stage's one residual over the stack names the rank: no rank's
    # residual is computed again to find it
    field, cfg = make_case(_states((4, 8)), FluxKind.HLLC, ReconstructionKind.WENO3)
    g = field.grid.ghost_width
    real_residual = solver.spatial_residual
    calls = []

    def corrupting_residual(stage, c):
        calls.append(stage.data.shape)
        if stage.data.ndim == 4:
            stage.data[(3, 1, g + 1, g + 2)] = -1.0
        return real_residual(stage, c)

    monkeypatch.setattr(solver, "spatial_residual", corrupting_residual)
    with pytest.raises(SimulationError, match=r"^rank 1 failed: unphysical state in interior"):
        run_simulation(field, cfg, ranks, steps=1)
    assert len(calls) == 1


def test_a_degenerate_wave_fan_names_its_rank(monkeypatch):
    # the whole interior of rank 1 becomes infinitely dense gas at rest: its
    # faces stay physical, and those between two such cells have no wave fan
    field, cfg = make_case(_states((4, 8)), FluxKind.HLLC, ReconstructionKind.WENO3)
    g = field.grid.ghost_width
    real_residual = solver.spatial_residual

    def corrupting_residual(stage, c):
        if stage.data.ndim == 4:
            stage.data[0, 1, g:-g, g:-g] = np.inf
            stage.data[1:3, 1, g:-g, g:-g] = 0.0
        return real_residual(stage, c)

    monkeypatch.setattr(solver, "spatial_residual", corrupting_residual)
    with np.errstate(invalid="ignore"):
        with pytest.raises(SimulationError, match=r"^rank 1 failed: degenerate HLLC wave fan"):
            run_simulation(field, cfg, (2, 1), steps=1)
