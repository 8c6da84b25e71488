"""The solver's Euler face path against a face-by-face reference, and its
failure paths.

``spatial_residual`` shares one set of WENO differences between both face
sides and one pressure pass per side between the positivity fallback, the
checks and the flux.  It must give the same values as evaluating every face
on its own (``oracles.reference_euler_residual``).
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
    FacePair,
    FluxKind,
    Reconstruction,
    ReconstructionKind,
    hllc_flux,
    numerical_flux,
    reconstruct_axis,
    rusanov_flux,
)
from conslaw.parallel import (
    RankTopology,
    decompose,
    exchange_halos,
    run_parallel,
    scatter_field,
)
from conslaw import solver
from conslaw.solver import SchemeConfig, run_simulation, spatial_residual, wave_speed_maxima
from oracles import reference_euler_residual

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
def test_equal_face_states_match_reference(flux, recon):
    # two states in blocks: most faces see uL == uR, a few see a jump
    prim = np.empty((4, 6, 8))
    prim[:, :, :4] = np.array([1.0, 0.3, -0.2, 1.5])[:, None, None]
    prim[:, :, 4:] = np.array([0.5, -0.1, 0.4, 0.8])[:, None, None]
    field, cfg = make_case(prim, flux, recon)
    pair = reconstruct_axis(field.data[:, 2:-2], 2, 8, 2, cfg.recon)
    assert np.all(pair.uL == pair.uR, axis=0).sum() > 0
    assert np.array_equal(spatial_residual(field, cfg), reference(field, cfg))


def near_vacuum_prim():
    # a fast light jet next to slow dense gas at low pressure: WENO faces
    # overshoot the kinetic energy and need the first-order fallback
    rho = np.array([1.0, 1.0, 1.0, 1e-3, 1e-3, 1e-3, 1.0, 1.0])
    v = np.array([0.0, 0.0, 0.0, 30.0, 30.0, -30.0, 0.0, 0.0])
    p = np.full(8, 1e-4)
    return np.stack([rho, v, p])


@pytest.mark.parametrize("flux", [FluxKind.HLLC, FluxKind.RUSANOV])
@pytest.mark.parametrize("recon", [ReconstructionKind.WENO2, ReconstructionKind.WENO3])
def test_positivity_fallback_matches_reference(flux, recon):
    field, cfg = make_case(near_vacuum_prim(), flux, recon)
    assert fallback_faces(field, cfg) > 0
    assert np.array_equal(spatial_residual(field, cfg), reference(field, cfg))


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
        topo = RankTopology(ranks)
        stack = scatter_field(field, topo)
        exchange_halos(stack, topo, cfg.bc)
        got = spatial_residual(stack, cfg)
        for part in decompose(field.grid, topo):
            crop = tuple(
                slice(o, o + n)
                for o, n in zip(reversed(part.offset), reversed(part.grid.cells))
            )
            assert np.array_equal(got[:, part.rank], want[(slice(None),) + crop])


def test_fallback_in_one_rank_only_matches_serial():
    # the near-vacuum jet lies in rank 0 (cells 0..7); rank 1 is quiet gas
    quiet = np.array([1.0, 0.0, 1e-4])[:, None]
    jet = near_vacuum_prim()[:, 2:]
    prim = np.concatenate([quiet, quiet, jet, np.repeat(quiet, 8, axis=1)], axis=1)
    field, cfg = make_case(prim, FluxKind.HLLC, ReconstructionKind.WENO3)
    topo = RankTopology((2,))
    stack = scatter_field(field, topo)
    exchange_halos(stack, topo, cfg.bc)
    ranks = [Field(stack.grid, stack.ncomp, stack.data[:, r]) for r in range(2)]
    assert fallback_faces(ranks[0], cfg) > 0
    assert fallback_faces(ranks[1], cfg) == 0
    assert np.array_equal(
        spatial_residual(stack, cfg).reshape(field.ncomp, -1),
        spatial_residual(field, cfg),
    )
    serial, serial_records = run_simulation(field.copy(), cfg, max_steps=3)
    par, records = run_parallel(field.copy(), cfg, (2,), n_steps=3)
    assert np.array_equal(par.interior, serial.interior)
    assert [r.dt for r in records] == [r.dt for r in serial_records]


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------


def _states(shape):
    return random_prim(np.random.default_rng(5), shape)


@pytest.mark.parametrize("flux,recon", SCHEMES)
def test_unphysical_ghost_names_the_face_cell(flux, recon):
    field, cfg = make_case(_states((6,)), flux, recon)
    # the ghost next to the first interior cell: negative total energy
    field.data[:, 1] = [1.0, 0.0, -1.0]
    with pytest.raises(UnphysicalStateError, match=r"unphysical state at cell \(0,\)"):
        spatial_residual(field, cfg)


@pytest.mark.parametrize("flux,recon", SCHEMES)
def test_unphysical_ghost_names_the_face_cell_in_2d(flux, recon):
    field, cfg = make_case(_states((4, 6)), flux, recon)
    # an x ghost in row 2 is read by x face (2, 0) in (y, x) order
    field.data[:, 2 + 2, 1] = [1.0, 0.0, 0.0, -1.0]
    with pytest.raises(UnphysicalStateError, match=r"unphysical state at cell \(2, 0\)"):
        spatial_residual(field, cfg)
    # a y ghost above column 3 is read by y face (0, 3)
    fill_boundary(field, cfg.bc)
    field.data[:, 1, 2 + 3] = [1.0, 0.0, 0.0, -1.0]
    with pytest.raises(UnphysicalStateError, match=r"unphysical state at cell \(0, 3\)"):
        spatial_residual(field, cfg)


@pytest.mark.parametrize("flux", [hllc_flux, rusanov_flux])
def test_unphysical_face_state_names_the_cell(flux):
    model = EquationModel(kind="euler", dim=2)
    u = primitive_to_conserved(model, random_prim(np.random.default_rng(3), (3, 4)))
    bad = u.copy()
    bad[3, 2, 1] = -0.5
    with pytest.raises(UnphysicalStateError, match=r"at cell \(2, 1\)"):
        flux(model, FacePair(u, bad), 0)
    with pytest.raises(UnphysicalStateError, match=r"at cell \(2, 1\)"):
        flux(model, FacePair(bad, u), 1)


def test_degenerate_wave_fan_raises():
    # infinite density passes the positivity check but has no sound speed
    model = EquationModel(kind="euler", dim=1)
    u = np.array([[np.inf, 1.0], [0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(UnphysicalStateError, match="degenerate"):
        hllc_flux(model, FacePair(u, u.copy()), 0)
    with pytest.raises(UnphysicalStateError, match="degenerate"):
        numerical_flux(model, FluxKind.HLLC, FacePair(u, u.copy()), 0)


@pytest.mark.parametrize("recon", [ReconstructionKind.NONE, ReconstructionKind.WENO3])
def test_degenerate_wave_fan_raises_in_residual(recon):
    field, cfg = make_case(_states((6,)), FluxKind.HLLC, recon)
    field.data[0] = np.inf
    field.data[1] = 0.0
    with np.errstate(invalid="ignore"):
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
    parts = decompose(field.grid, RankTopology((2, 1)))
    assert [p.offset for p in parts] == [(0, 0), (4, 0)]
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
        run_parallel(field, cfg, (2, 1), n_steps=1)


def test_cfl_check_names_the_cell_serial_and_on_2x1_ranks():
    field, cfg = _field_with_bad_cell((1, 6))
    with pytest.raises(UnphysicalStateError, match=r"at cell \(1, 6\)"):
        wave_speed_maxima(field, cfg)
    # a bad cell on each rank: rank 0 is checked first
    g = field.grid.ghost_width
    field.data[(3, g + 2, g + 1)] = -1.0
    with pytest.raises(SimulationError, match=r"rank 0 failed: .*at cell \(2, 1\)"):
        run_parallel(field, cfg, (2, 1), n_steps=1)


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
        run_parallel(field, cfg, (2, 1))


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
        run_parallel(field, cfg, (2, 1))
    assert len(steps) == 2
