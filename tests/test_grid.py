import numpy as np
import pytest

from conslaw.errors import ConfigError
from conslaw.grid import (
    BoundaryKind,
    GridSpec,
    cell_center,
    field_from_interior,
    make_field,
    total_integral,
)
from conslaw.parallel import fill_boundary, scatter_field


def test_axis_to_array_axis_mapping():
    # x is the fastest (last) numpy axis: spatial axis k is numpy axis -1 - k
    for dim in (1, 2, 3):
        grid = GridSpec(dim, (3, 5, 7)[:dim], (0.0,) * dim, (1.0,) * dim)
        data = make_field(grid, 2).data
        for k in range(dim):
            assert data.shape[-1 - k] == grid.padded[k]


def test_grid_shapes_and_centers():
    g = GridSpec(2, (8, 4), (0.0, -1.0), (2.0, 1.0))
    assert g.deltas == (0.25, 0.25)
    assert g.interior_shape == (4, 8)  # numpy order: (ny, nx)
    assert g.padded == (12, 8)
    assert g.cell_volume == pytest.approx(0.0625)
    assert cell_center(g, (0, 0)) == pytest.approx((0.125, -0.875))
    assert cell_center(g, (7, 3)) == pytest.approx((1.875, -0.125))
    with pytest.raises(ConfigError):
        cell_center(g, (8, 0))


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec(2, (8,), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ConfigError):
        GridSpec(1, (0,), (0.0,), (1.0,))
    with pytest.raises(ConfigError):
        GridSpec(1, (8,), (0.0,), (-1.0,))
    with pytest.raises(ConfigError):
        GridSpec(4, (2, 2, 2, 2), (0,) * 4, (1,) * 4)


def test_field_size_cap():
    g = GridSpec(3, (1024, 1024, 1024), (0, 0, 0), (1, 1, 1))
    with pytest.raises(ConfigError, match="cap"):
        make_field(g, 5, 0.0)


def test_periodic_fill_wraps():
    g = GridSpec(1, (8,), (0.0,), (1.0,), ghost_width=2)
    f = make_field(g, 1, 0.0)
    f.interior[0] = np.arange(8.0)
    fill_boundary(f, (BoundaryKind.PERIODIC,))
    assert list(f.data[0, :2]) == [6.0, 7.0]
    assert list(f.data[0, -2:]) == [0.0, 1.0]


def test_outflow_fill_extrapolates():
    g = GridSpec(1, (4,), (0.0,), (1.0,), ghost_width=2)
    f = make_field(g, 1, 0.0)
    f.interior[0] = [3.0, 5.0, 7.0, 9.0]
    fill_boundary(f, (BoundaryKind.OUTFLOW,))
    assert list(f.data[0]) == [3.0, 3.0, 3.0, 5.0, 7.0, 9.0, 9.0, 9.0]


def test_periodic_fill_requires_enough_cells():
    g = GridSpec(1, (1,), (0.0,), (1.0,), ghost_width=2)
    f = make_field(g, 1, 1.0)
    with pytest.raises(ConfigError, match=r"periodic axis 0 needs cells >= ghost_width \(1 < 2\)"):
        fill_boundary(f, (BoundaryKind.PERIODIC,))


def test_corner_ghosts_filled_transitively():
    g = GridSpec(2, (4, 4), (0.0, 0.0), (1.0, 1.0), ghost_width=2)
    f = make_field(g, 1, 0.0)
    f.interior[0] = np.arange(16.0).reshape(4, 4)
    fill_boundary(f, (BoundaryKind.PERIODIC, BoundaryKind.PERIODIC))
    # low-x low-y corner ghost equals the opposite interior corner
    assert f.data[0, 1, 1] == f.interior[0, 3, 3]
    assert f.data[0, 0, 0] == f.interior[0, 2, 2]


def test_total_integral_is_cell_sum_times_volume():
    g = GridSpec(2, (8, 4), (0.0, 0.0), (2.0, 1.0))
    f = make_field(g, 2, 0.0)
    f.interior[0] = 1.0
    f.interior[1] = 3.0
    q = total_integral(f)
    assert q == pytest.approx([2.0, 6.0])


def test_field_from_interior_copies_shape():
    g = GridSpec(1, (6,), (0.0,), (1.0,))
    vals = np.arange(6.0)[None]
    f = field_from_interior(g, vals)
    assert f.interior.shape == (1, 6)
    assert np.array_equal(f.interior[0], vals[0])


def test_deltas_override_is_exact():
    # a subdomain grid built with inherited deltas reproduces them bitwise
    g = GridSpec(1, (3,), (0.0,), (0.3,))
    sub = GridSpec(1, (1,), (0.1,), (0.1,), deltas=g.deltas)
    assert sub.deltas[0] == g.deltas[0]


@pytest.mark.parametrize("cells,ranks", [
    ((9, 7), (1, 1)),
    ((40, 24, 20), (1, 1, 1)),  # more cells than one numpy buffer holds
    ((40, 24, 20), (2, 1, 1)),
    ((96, 100), (2, 2)),
])
def test_total_integral_sums_each_component_as_the_flattened_interior(cells, ranks):
    dim = len(cells)
    grid = GridSpec(dim, cells, (0.0,) * dim, (0.7, 1.3, 2.1)[:dim])
    field = make_field(grid, 3)
    field.interior[...] = np.random.default_rng(len(cells)).normal(
        1.0, 2.0, field.interior.shape)
    # a padded field, and the stack of its subdomains on the rank layout
    for f in (field, scatter_field(field, ranks)):
        expected = f.interior.reshape(f.ncomp, -1).sum(axis=1) * f.grid.cell_volume
        assert total_integral(f).tobytes() == expected.tobytes()
