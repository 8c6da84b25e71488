import time

import numpy as np
import pytest

from conslaw.equations import EquationModel, primitive_to_conserved
from conslaw.errors import ConfigError, ProtocolError, SimulationError
from conslaw.grid import BoundaryKind, GridSpec, field_from_interior, fill_boundary
from conslaw.numerics import FluxKind, Reconstruction, ReconstructionKind
from conslaw.parallel import (
    HaloMessage,
    InProcessTransport,
    RankTopology,
    decompose,
    exchange_halos,
    overhead_metric,
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
    parts = decompose(field.grid, RankTopology((2, 2)))
    locals_ = scatter_field(field, parts)
    back = stitch_fields(field.grid, parts, locals_)
    np.testing.assert_array_equal(back.interior, field.interior)


# ---------------------------------------------------------------------------
# Halo exchange
# ---------------------------------------------------------------------------


def _exchange_all(global_field, topo, bc, tag=1):
    parts = decompose(global_field.grid, topo)
    locals_ = scatter_field(global_field, parts)
    exchange_halos(locals_, topo, InProcessTransport(topo.size), bc, tag)
    return parts, locals_


@pytest.mark.parametrize("ranks", [(2, 1), (1, 2), (2, 2), (4, 1)])
def test_exchanged_ghosts_match_serial_fill(ranks):
    field, _ = kh_like_field(16)
    bc = (BoundaryKind.PERIODIC, BoundaryKind.PERIODIC)
    reference = field.copy()
    fill_boundary(reference, bc)
    parts, locals_ = _exchange_all(field, RankTopology(ranks), bc)
    g = field.grid.ghost_width
    for part, local in zip(parts, locals_):
        # every padded cell of the local field must equal the corresponding
        # (wrapped) cell of the serially filled global field
        for jy in range(local.grid.padded[1]):
            gy = (part.offset[1] + jy - g) % field.grid.cells[1] + g
            got = local.data[:, jy, :]
            lo = part.offset[0]
            want_cols = [
                (lo + jx - g) % field.grid.cells[0] + g
                for jx in range(local.grid.padded[0])
            ]
            np.testing.assert_array_equal(got, reference.data[:, gy, want_cols])


def test_exchange_with_outflow_boundary():
    field, model = kh_like_field(16)
    bc = (BoundaryKind.OUTFLOW, BoundaryKind.OUTFLOW)
    reference = field.copy()
    fill_boundary(reference, bc)
    parts, locals_ = _exchange_all(field, RankTopology((2, 2)), bc)
    back = stitch_fields(field.grid, parts, locals_)
    np.testing.assert_array_equal(back.interior, reference.interior)
    # edge rank ghost slabs replicate the boundary cells
    g = field.grid.ghost_width
    np.testing.assert_array_equal(
        locals_[0].data[:, g, 0], reference.data[:, g, 0]
    )


def test_transport_rejects_stale_tags():
    tr = InProcessTransport(2)
    tr.send(HaloMessage(0, 1, 0, 0, 5, np.zeros(1)))
    with pytest.raises(ProtocolError, match="tag"):
        tr.send(HaloMessage(0, 1, 0, 0, 5, np.zeros(1)))
    with pytest.raises(ProtocolError):
        tr.send(HaloMessage(0, 1, 0, 1, 4, np.zeros(1)))
    tr.send(HaloMessage(0, 1, 0, 1, 6, np.zeros(1)))  # increasing again: fine


def test_receive_validates_metadata():
    tr = InProcessTransport(2)
    tr.send(HaloMessage(0, 1, axis=0, side=0, tag=1, payload=np.zeros(1)))
    with pytest.raises(ProtocolError, match="mismatch"):
        tr.receive(0, 1, axis=1, side=0, tag=1)


# ---------------------------------------------------------------------------
# Whole-run equivalence and failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ranks", [(2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.OUTFLOW])
def test_decomposed_run_bitwise_matches_serial(ranks, bc):
    field, model = kh_like_field(16)
    cfg = euler_scheme(model, t_end=0.05, bc=bc)
    serial, _ = run_simulation(field.copy(), cfg)
    par, records = run_parallel(field.copy(), cfg, ranks)
    np.testing.assert_array_equal(par.interior, serial.interior)
    assert len(records) == ranks[0] * ranks[1]
    # all ranks agreed on every timestep
    dts = {tuple(r.dt for r in rec) for rec in records}
    assert len(dts) == 1


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
    assert all(len(rec) == n for rec in records)


# ---------------------------------------------------------------------------
# Overhead metric
# ---------------------------------------------------------------------------


def test_overhead_zero_for_identical_series():
    rep = overhead_metric([0.105, 0.095], [0.105, 0.095], 1)
    assert rep.overhead_fraction == 0.0


def test_overhead_matches_hand_computed_fractions():
    # 30% slower than the single-rank baseline
    rep = overhead_metric([0.13], [0.10], 512)
    assert rep.overhead_fraction == pytest.approx(0.30)
    rep = overhead_metric([0.11], [0.10], 512)
    assert rep.overhead_fraction == pytest.approx(0.10)


def test_overhead_requires_data():
    with pytest.raises(ConfigError):
        overhead_metric([], [0.1], 2)
