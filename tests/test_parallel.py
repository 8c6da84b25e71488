import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslaw.equations import EquationModel, primitive_to_conserved
from conslaw.errors import ConfigError, SimulationError
from conslaw.grid import BoundaryKind, Field, GridSpec, field_from_interior
from conslaw.numerics import EulerStack, FluxKind, Reconstruction, ReconstructionKind
from conslaw.parallel import exchange_halos, halo_plan, local_grid, scatter_field, stitch_fields
from conslaw.solver import SchemeConfig, run_simulation
from oracles import rank_offsets


def kh_like_field(n=32, dim=2, seed=8):
    """A smooth shear-band Euler state on a periodic unit box."""
    grid = GridSpec(dim, (n,) * dim, (0.0,) * dim, (1.0,) * dim)
    model = EquationModel(kind="euler", dim=dim)
    rng = np.random.default_rng(seed)
    coords = np.meshgrid(
        *[grid.cell_centers(k) for k in reversed(range(dim))], indexing="ij"
    )
    y = coords[-2] if dim > 1 else coords[-1]
    x = coords[-1]
    band = np.where((y > 0.25) & (y < 0.75), 2.0, 1.0)
    rho = band + 0.01 * np.sin(2 * np.pi * x)
    vx = np.where((y > 0.25) & (y < 0.75), 0.5, -0.5)
    w = [rho, vx] + [np.zeros_like(rho)] * (dim - 1) + [np.full_like(rho, 2.5)]
    u = primitive_to_conserved(model, np.stack(w))
    return field_from_interior(grid, u), model


def euler_scheme(model, t_end=0.1, bc=BoundaryKind.PERIODIC):
    return SchemeConfig(
        model=model,
        flux=FluxKind.HLLC,
        recon=Reconstruction(ReconstructionKind.WENO3),
        rk_order=3,
        t_end=t_end,
        bc=(bc,) * model.dim,
    )


# ---------------------------------------------------------------------------
# Layout and decomposition
# ---------------------------------------------------------------------------


def test_local_grid_of_64_squared_on_2x2():
    grid = GridSpec(2, (64, 64), (0.0, 0.0), (1.0, 1.0))
    local = local_grid(grid, (2, 2))
    offsets = rank_offsets(grid.cells, (2, 2))
    assert offsets == [(0, 0), (32, 0), (0, 32), (32, 32)]
    assert local.cells == (32, 32)
    assert local.origin == grid.origin
    rank1_origin = [o + k * d for o, k, d in zip(local.origin, offsets[1], local.deltas)]
    assert rank1_origin == pytest.approx((0.5, 0.0))
    # locals share the global spacing bitwise
    assert local.deltas == grid.deltas


def test_local_grid_rejects_indivisible_grid():
    grid = GridSpec(1, (64,), (0.0,), (1.0,))
    with pytest.raises(ConfigError, match="divisible"):
        local_grid(grid, (3,))


def test_local_grid_rejects_ranks_thinner_than_the_ghost_layer():
    grid = GridSpec(1, (8,), (0.0,), (1.0,))  # ghost width 2
    assert local_grid(grid, (4,)).cells == (2,)
    # one cell per rank: the slab sent to a neighbor would include a ghost
    with pytest.raises(ConfigError, match="ghost width"):
        local_grid(grid, (8,))


@pytest.mark.parametrize(
    "n,ranks,shape",
    [(16, (2, 2), (4, 4, 12, 12)), (24, (3, 2), (4, 6, 16, 12))],
    ids=["2x2", "3x2"],
)
def test_scatter_stitch_round_trip(n, ranks, shape):
    field, _ = kh_like_field(n)
    stack = scatter_field(field, ranks)
    assert stack.data.shape == shape
    assert stack.grid == local_grid(field.grid, ranks)
    nx, ny = stack.grid.cells
    # every rank's block sits at the oracle's offset, ranks x fastest
    for rank, (x0, y0) in enumerate(rank_offsets(field.grid.cells, ranks)):
        np.testing.assert_array_equal(
            stack.interior[:, rank], field.interior[:, y0 : y0 + ny, x0 : x0 + nx]
        )
    back = stitch_fields(stack, ranks, field.grid)
    np.testing.assert_array_equal(back.interior, field.interior)


# ---------------------------------------------------------------------------
# Halo exchange
# ---------------------------------------------------------------------------


PERIODIC, OUTFLOW = BoundaryKind.PERIODIC, BoundaryKind.OUTFLOW

EXCHANGE_CASES = [
    (ranks, bc)
    for ranks in [(1, 1), (2, 1), (1, 2), (2, 2), (4, 1), (2, 2, 2)]
    for bc in itertools.product((PERIODIC, OUTFLOW), repeat=len(ranks))
]
EXCHANGE_IDS = [
    "x".join(map(str, ranks)) + "-" + "-".join(kind.value for kind in bc)
    for ranks, bc in EXCHANGE_CASES
]


def _global_padded_index(offset, local, global_grid, axis, kind):
    """Global padded index of every padded index along ``axis`` of the rank
    at ``offset``: the same cell, wrapped across a periodic boundary;
    outflow ghosts at a physical end land on the global outflow ghosts."""
    g, n = global_grid.ghost_width, global_grid.cells[axis]
    index = offset[axis] + np.arange(local.padded[axis])
    return (index - g) % n + g if kind is PERIODIC else index


def _padded_reference(field, bc):
    """The global field's data with its ghosts filled by ``np.pad``, one
    axis at a time (x, then y, then z): ``wrap`` for periodic, ``edge`` for
    outflow.  Independent of the halo plan."""
    g, data = field.grid.ghost_width, field.interior
    for axis, kind in enumerate(bc):
        width = [(0, 0)] * data.ndim
        width[data.ndim - 1 - axis] = (g, g)
        data = np.pad(data, width, mode="wrap" if kind is PERIODIC else "edge")
    return data


def _assert_ghosts_match_reference(field, ranks, bc):
    """One halo pass over the stack of ``field`` on ``ranks``, with garbage
    in every ghost before it, leaves every padded cell of every rank, corners
    included, equal to the same cell of the padded global field."""
    stack = scatter_field(field, ranks)
    interior = stack.interior.copy()
    stack.data[...] = np.nan
    stack.interior[...] = interior
    exchange_halos(halo_plan(stack, ranks, bc))
    reference = _padded_reference(field, bc)
    for rank, offset in enumerate(rank_offsets(field.grid.cells, ranks)):
        index = [
            _global_padded_index(offset, stack.grid, field.grid, axis, bc[axis])
            for axis in reversed(range(field.grid.dim))
        ]
        want = reference[np.ix_(range(field.ncomp), *index)]
        np.testing.assert_array_equal(stack.data[:, rank], want)


@pytest.mark.parametrize("ranks,bc", EXCHANGE_CASES, ids=EXCHANGE_IDS)
def test_exchanged_ghosts_match_the_padded_global_field(ranks, bc):
    dim = len(ranks)
    field, _ = kh_like_field(16 if dim == 2 else 8, dim=dim)
    _assert_ghosts_match_reference(field, ranks, bc)


@st.composite
def halo_cases(draw):
    """A random field of 1 to 3 dimensions, ghost width 1 or 2, with a
    rank layout whose ranks are at least a ghost layer thick, and boundary
    kinds."""
    dim = draw(st.integers(1, 3))
    g = draw(st.sampled_from((1, 2)))
    ranks = tuple(draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim)))
    cells = tuple(r * draw(st.integers(g, g + 2)) for r in ranks)
    bc = tuple(draw(st.lists(st.sampled_from((PERIODIC, OUTFLOW)), min_size=dim,
                             max_size=dim)))
    grid = GridSpec(dim, cells, (0.0,) * dim, (1.0,) * dim, ghost_width=g)
    interior = np.random.default_rng(draw(st.integers(0, 99))).random(
        (2,) + grid.interior_shape)
    return field_from_interior(grid, interior), ranks, bc


@settings(max_examples=150, deadline=None)
@given(case=halo_cases())
def test_a_halo_pass_writes_each_ghost_once_per_axis_and_no_interior_cell(case):
    field, ranks, bc = case
    stack = scatter_field(field, ranks)
    local, dim = stack.grid, field.grid.dim
    # a stack whose every entry holds its own flat index names the cells a
    # plan writes
    cells = Field(local, stack.ncomp, np.arange(stack.data.size, dtype=float)
                  .reshape(stack.data.shape))
    writes = np.zeros(stack.data.size, dtype=int)
    for dst, _src in halo_plan(cells, ranks, bc):
        np.add.at(writes, dst.ravel().astype(int), 1)
    # the number of axes along which each padded cell is a ghost
    g = local.ghost_width
    ghost_axes = sum(
        np.meshgrid(*[(np.arange(n + 2 * g) < g) | (np.arange(n + 2 * g) >= n + g)
                      for n in reversed(local.cells)], indexing="ij")
    )
    want = np.broadcast_to(ghost_axes, stack.data.shape)
    np.testing.assert_array_equal(writes.reshape(stack.data.shape), want)
    _assert_ghosts_match_reference(field, ranks, bc)


@settings(max_examples=100, deadline=None)
@given(case=halo_cases())
def test_the_compiled_halo_pass_of_an_euler_stack_is_the_numpy_pass(case):
    # the kernel runs the same plan, from the views' offsets, shapes and
    # strides: every ghost as exchange_halos writes it, no interior cell.
    # It runs first in an RK1 step of dt = 0, whose residual either fails
    # and leaves the state, or adds 0 k to every interior value, which keeps
    # it (the values are drawn from [0, 1): no -0.0 turns into +0.0)
    field, ranks, bc = case
    dim = field.grid.dim
    interior = np.concatenate([field.interior] * 3)[: dim + 2]
    stack = scatter_field(field_from_interior(field.grid, interior), ranks)
    cells = stack.interior.copy()
    stack.data[...] = np.nan
    stack.interior[...] = cells
    want = Field(stack.grid, stack.ncomp, stack.data.copy())
    exchange_halos(halo_plan(want, ranks, bc))
    cfg = SchemeConfig(EquationModel(kind="euler", dim=dim), rk_order=1, bc=bc)
    with np.errstate(all="ignore"):
        EulerStack(stack, cfg, halo_plan(stack, ranks, bc)).step(0.0)
    np.testing.assert_array_equal(stack.data.view(np.int64), want.data.view(np.int64))


def test_lone_rank_on_a_periodic_axis_thinner_than_the_ghosts_is_rejected():
    # one cell along y with ghost width 2: the wrap would copy ghosts from
    # the rank's own ghosts instead of its interior
    grid = GridSpec(2, (8, 1), (0.0, 0.0), (1.0, 1.0))
    model = EquationModel(kind="euler", dim=2)
    prim = np.ones((4, 1, 8))
    prim[1:3] = 0.0  # at rest
    u = primitive_to_conserved(model, prim)
    cfg = euler_scheme(model, t_end=0.01)
    with pytest.raises(ConfigError, match="ghost_width"):
        run_simulation(field_from_interior(grid, u), cfg, (2, 1))


# ---------------------------------------------------------------------------
# Whole-run equivalence and failures
# ---------------------------------------------------------------------------


def scalar_case(kind, recon, bc, n=16):
    """A smooth, unsymmetric 2D Burgers or advection field and its RK3
    scheme: the numpy path of ``numerics.ScalarStack``."""
    grid = GridSpec(2, (n, n), (0.0, 0.0), (1.0, 1.0))
    speed = (1.0, -0.6) if kind == "advection" else ()
    model = EquationModel(kind=kind, dim=2, advection_speed=speed)
    y, x = np.meshgrid(grid.cell_centers(1), grid.cell_centers(0), indexing="ij")
    u = 0.5 + np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y) + 0.3 * np.sin(2 * np.pi * y)
    cfg = SchemeConfig(
        model=model, flux=FluxKind.RUSANOV, recon=Reconstruction(recon), rk_order=3,
        t_end=0.1, bc=(bc,) * 2,
    )
    return field_from_interior(grid, u[None]), cfg


#: the models of the whole-run comparison: Euler, and each scalar model
#: with every reconstruction
MODELS = ["euler"] + [
    f"{kind}-{recon.value}" for kind in ("burgers", "advection") for recon in ReconstructionKind
]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("ranks", [(2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.OUTFLOW])
def test_decomposed_run_bitwise_matches_serial(ranks, bc, model):
    if model == "euler":
        field, euler = kh_like_field(16)
        cfg = euler_scheme(euler, t_end=0.05, bc=bc)
    else:
        kind, recon = model.split("-")
        field, cfg = scalar_case(kind, ReconstructionKind(recon), bc)
    serial, serial_records = run_simulation(field.copy(), cfg)
    par, records = run_simulation(field.copy(), cfg, ranks)
    np.testing.assert_array_equal(par.interior, serial.interior)
    # the same timesteps as the serial run
    assert [r.dt for r in records] == [r.dt for r in serial_records]


def test_unphysical_cell_in_one_rank_fails_at_once_naming_it():
    field, model = kh_like_field(16)
    cfg = euler_scheme(model)
    g = field.grid.ghost_width
    # global cell (x, y) = (10, 13) is (2, 5) in rank 3 of a 2x2 layout,
    # named in (y, x) order like every cell index
    field.data[(3, g + 13, g + 10)] = -1.0  # negative energy
    tic = time.perf_counter()
    with pytest.raises(SimulationError, match=r"^rank 3 failed: .*at cell \(5, 2\)"):
        run_simulation(field, cfg, (2, 2))
    assert time.perf_counter() - tic < 1.0


def test_three_dimensional_run_with_degenerate_inner_box():
    # local grids of 4^3 cells: every cell's stencil reaches a ghost
    field, model = kh_like_field(8, dim=3)
    cfg = euler_scheme(model, t_end=0.02)
    serial, _ = run_simulation(field.copy(), cfg)
    par, _ = run_simulation(field.copy(), cfg, (2, 2, 2))
    np.testing.assert_array_equal(par.interior, serial.interior)


def test_step_capped_run(n=4):
    field, model = kh_like_field(16)
    cfg = euler_scheme(model, t_end=10.0)
    _, records = run_simulation(field.copy(), cfg, (2, 1), steps=n)
    assert len(records) == n
