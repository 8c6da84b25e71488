import itertools
import time

import numpy as np
import pytest

from conslaw.equations import EquationModel, primitive_to_conserved
from conslaw.errors import ConfigError, SimulationError
from conslaw.grid import BoundaryKind, GridSpec, field_from_interior, fill_boundary
from conslaw.numerics import FluxKind, Reconstruction, ReconstructionKind
from conslaw.parallel import (
    RankTopology,
    decompose,
    exchange_halos,
    run_parallel,
    scatter_field,
    stitch_fields,
)
from conslaw.solver import SchemeConfig, run_simulation


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
# Topology and decomposition
# ---------------------------------------------------------------------------


def test_topology_coords_round_trip():
    topo = RankTopology((3, 2))
    assert topo.size == 6
    for rank in range(6):
        assert topo.rank_of(topo.coords(rank)) == rank
    assert topo.coords(0) == (0, 0)
    assert topo.coords(1) == (1, 0)  # x fastest
    assert topo.coords(3) == (0, 1)


def test_periodic_neighbors_wrap():
    topo = RankTopology((4,))
    assert topo.neighbor(0, 0, 0, periodic=True) == 3
    assert topo.neighbor(3, 0, 1, periodic=True) == 0
    assert topo.neighbor(0, 0, 0, periodic=False) is None


def test_decompose_64_squared_into_2x2():
    grid = GridSpec(2, (64, 64), (0.0, 0.0), (1.0, 1.0))
    parts = decompose(grid, RankTopology((2, 2)))
    assert [p.offset for p in parts] == [(0, 0), (32, 0), (0, 32), (32, 32)]
    assert all(p.grid.cells == (32, 32) for p in parts)
    assert parts[1].grid.origin == pytest.approx((0.5, 0.0))
    # locals share the global spacing bitwise
    assert all(p.grid.deltas == grid.deltas for p in parts)


def test_decompose_rejects_indivisible_grid():
    grid = GridSpec(1, (64,), (0.0,), (1.0,))
    with pytest.raises(ConfigError, match="divisible"):
        decompose(grid, RankTopology((3,)))


def test_decompose_rejects_ranks_thinner_than_the_ghost_layer():
    grid = GridSpec(1, (8,), (0.0,), (1.0,))  # ghost width 2
    assert len(decompose(grid, RankTopology((4,)))) == 4
    # one cell per rank: the slab sent to a neighbor would include a ghost
    with pytest.raises(ConfigError, match="ghost width"):
        decompose(grid, RankTopology((8,)))


def test_scatter_stitch_round_trip():
    field, _ = kh_like_field(16)
    topo = RankTopology((2, 2))
    stack = scatter_field(field, topo)
    assert stack.data.shape == (4, 4, 12, 12)
    for part in decompose(field.grid, topo):
        (x0, y0), (nx, ny) = part.offset, part.grid.cells
        np.testing.assert_array_equal(
            stack.interior[:, part.rank], field.interior[:, y0 : y0 + ny, x0 : x0 + nx]
        )
    back = stitch_fields(stack, topo, field.grid)
    np.testing.assert_array_equal(back.interior, field.interior)


# ---------------------------------------------------------------------------
# Halo exchange
# ---------------------------------------------------------------------------


PERIODIC, OUTFLOW = BoundaryKind.PERIODIC, BoundaryKind.OUTFLOW

EXCHANGE_CASES = [
    (ranks, bc)
    for ranks in [(2, 1), (1, 2), (2, 2), (4, 1), (2, 2, 2)]
    for bc in itertools.product((PERIODIC, OUTFLOW), repeat=len(ranks))
]
EXCHANGE_IDS = [
    "x".join(map(str, ranks)) + "-" + "-".join(kind.value for kind in bc)
    for ranks, bc in EXCHANGE_CASES
]


def _global_padded_index(part, global_grid, axis, kind):
    """Global padded index of every local padded index along ``axis``: the
    same cell, wrapped across a periodic boundary; outflow ghosts at a
    physical end land on the global outflow ghosts."""
    g, n = global_grid.ghost_width, global_grid.cells[axis]
    index = part.offset[axis] + np.arange(part.grid.padded[axis])
    return (index - g) % n + g if kind is PERIODIC else index


@pytest.mark.parametrize("ranks,bc", EXCHANGE_CASES, ids=EXCHANGE_IDS)
def test_exchanged_ghosts_match_serial_fill(ranks, bc):
    dim = len(ranks)
    field, _ = kh_like_field(16 if dim == 2 else 8, dim=dim)
    reference = fill_boundary(field.copy(), bc)
    topo = RankTopology(ranks)
    stack = scatter_field(field, topo)
    exchange_halos(stack, topo, bc)
    for part in decompose(field.grid, topo):
        # every padded cell, corners included, equals the same cell of the
        # serially filled global field
        index = [
            _global_padded_index(part, field.grid, axis, bc[axis])
            for axis in reversed(range(dim))
        ]
        want = reference.data[np.ix_(range(field.ncomp), *index)]
        np.testing.assert_array_equal(stack.data[:, part.rank], want)


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
        run_parallel(field_from_interior(grid, u), cfg, (2, 1))


# ---------------------------------------------------------------------------
# Whole-run equivalence and failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ranks", [(2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.OUTFLOW])
def test_decomposed_run_bitwise_matches_serial(ranks, bc):
    field, model = kh_like_field(16)
    cfg = euler_scheme(model, t_end=0.05, bc=bc)
    serial, serial_records = run_simulation(field.copy(), cfg)
    par, records = run_parallel(field.copy(), cfg, ranks)
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
        run_parallel(field, cfg, (2, 2))
    assert time.perf_counter() - tic < 1.0


def test_three_dimensional_run_with_degenerate_inner_box():
    # local grids of 4^3 cells: every cell's stencil reaches a ghost
    field, model = kh_like_field(8, dim=3)
    cfg = euler_scheme(model, t_end=0.02)
    serial, _ = run_simulation(field.copy(), cfg)
    par, _ = run_parallel(field.copy(), cfg, (2, 2, 2))
    np.testing.assert_array_equal(par.interior, serial.interior)


def test_step_capped_run(n=4):
    field, model = kh_like_field(16)
    cfg = euler_scheme(model, t_end=10.0)
    _, records = run_parallel(field.copy(), cfg, (2, 1), n_steps=n)
    assert len(records) == n
