import numpy as np
import pytest

from conslaw.equations import (
    EquationModel,
    conserve_in_place,
    is_physical,
    max_wave_speed,
    max_wave_speeds,
    physical_flux,
    pressure,
    primitive_to_conserved,
)
from conslaw.errors import ConfigError, UnphysicalStateError
from oracles import _ref_flux, conserved_to_primitive, sound_speed

EULER1 = EquationModel(kind="euler", dim=1)
EULER2 = EquationModel(kind="euler", dim=2)


def _state(rho, v, p, model):
    w = np.array([rho, *v, p], dtype=float).reshape(-1, 1)
    return primitive_to_conserved(model, w)


def test_component_layout():
    assert EULER2.ncomp == 4
    assert EULER2.component_names == ("rho", "mx", "my", "E")
    m3 = EquationModel(kind="euler", dim=3)
    assert m3.component_names == ("rho", "mx", "my", "mz", "E")


def test_pressure_from_hand_computed_state():
    # rho=2, v=3, p=5: E = p/(gamma-1) + rho v^2 / 2 = 12.5 + 9 = 21.5
    u = np.array([[2.0], [6.0], [21.5]])
    assert pressure(EULER1, u)[0] == pytest.approx(5.0)
    assert sound_speed(EULER1, u)[0] == pytest.approx(np.sqrt(1.4 * 5.0 / 2.0))


def test_primitive_round_trip():
    rng = np.random.default_rng(1)
    w = np.empty((4, 50))
    w[0] = rng.uniform(0.1, 3.0, 50)      # rho
    w[1:3] = rng.normal(0.0, 2.0, (2, 50))  # velocities
    w[3] = rng.uniform(0.1, 5.0, 50)      # p
    u = primitive_to_conserved(EULER2, w)
    back = conserved_to_primitive(EULER2, u)
    np.testing.assert_allclose(back, w, rtol=1e-13, atol=1e-13)


def _euler_flux(model, u, axis):
    """The oracle's Euler flux of one state (a column of ``u``)."""
    return _ref_flux(list(u[:, 0]), axis, model.dim, model.gamma)[0]


def test_euler_flux_against_hand_expansion():
    u = _state(2.0, [3.0], 5.0, EULER1)
    f = _euler_flux(EULER1, u, 0)
    # [rho v, rho v^2 + p, v (E + p)]
    E = 5.0 / 0.4 + 0.5 * 2.0 * 9.0
    np.testing.assert_allclose(f, [6.0, 23.0, 3.0 * (E + 5.0)], rtol=1e-14)


def test_euler_flux_2d_transverse_momentum():
    u = _state(1.5, [2.0, -1.0], 2.0, EULER2)
    fx = _euler_flux(EULER2, u, 0)
    fy = _euler_flux(EULER2, u, 1)
    # x-flux of my is rho*vx*vy (no pressure term off-diagonal)
    assert fx[2] == pytest.approx(1.5 * 2.0 * -1.0)
    assert fy[1] == pytest.approx(1.5 * 2.0 * -1.0)
    assert fy[2] == pytest.approx(1.5 * 1.0 + 2.0)


def test_wave_speed_is_velocity_plus_sound():
    u = _state(1.0, [0.5], 1.0, EULER1)
    (s,) = max_wave_speeds(EULER1, u)
    assert s[0] == pytest.approx(0.5 + np.sqrt(1.4))


def test_unphysical_states_rejected():
    u = np.array([[1.0], [0.0], [-1.0]])  # negative energy
    assert not is_physical(EULER1, u)
    with pytest.raises(UnphysicalStateError):
        max_wave_speeds(EULER1, u)
    u2 = np.array([[-1.0], [0.0], [1.0]])
    assert not is_physical(EULER1, u2)


def test_burgers_flux_and_speed():
    m = EquationModel(kind="burgers", dim=1)
    u = np.array([[3.0, -2.0]])
    np.testing.assert_allclose(physical_flux(m, u, 0)[0], [4.5, 2.0])
    np.testing.assert_allclose(max_wave_speed(m, u, 0), [3.0, 2.0])


def test_advection_flux_and_speed():
    m = EquationModel(kind="advection", dim=2, advection_speed=(2.0, -0.5))
    u = np.array([[1.0, 4.0]])
    np.testing.assert_allclose(physical_flux(m, u, 0)[0], [2.0, 8.0])
    np.testing.assert_allclose(physical_flux(m, u, 1)[0], [-0.5, -2.0])
    np.testing.assert_allclose(max_wave_speed(m, u, 1), [0.5, 0.5])


def test_model_validation():
    with pytest.raises(ConfigError):
        EquationModel(kind="euler", dim=1, gamma=1.0)
    with pytest.raises(ConfigError):
        EquationModel(kind="advection", dim=2)  # needs a speed
    with pytest.raises(ConfigError):
        EquationModel(kind="mhd", dim=2)


def _conserved_out_of_place(model, w):
    """The conversion written out into a new array, term by term."""
    rho, p = w[0], w[1 + model.dim]
    u = np.empty_like(w)
    u[0] = rho
    kinetic = np.zeros_like(rho)
    for k in range(model.dim):
        u[1 + k] = rho * w[1 + k]
        kinetic = kinetic + w[1 + k] ** 2
    u[1 + model.dim] = p / (model.gamma - 1.0) + 0.5 * rho * kinetic
    return u


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0])
def test_in_place_conversion_rounds_as_the_out_of_place_formula(dim, gamma):
    model = EquationModel(kind="euler", dim=dim, gamma=gamma)
    rng = np.random.default_rng(dim)
    cells = (11, 7, 5)[:dim]
    w = np.concatenate([
        rng.uniform(1e-3, 5.0, (1, *cells)),
        rng.normal(0.0, 3.0, (dim, *cells)),
        rng.uniform(1e-3, 5.0, (1, *cells)),
    ])
    # signed zeros and velocities whose squares are subnormal
    w[1].flat[:4] = (0.0, -0.0, 3e-160, -7e-162)
    expected = _conserved_out_of_place(model, w).tobytes()
    assert conserve_in_place(model, w.copy()).tobytes() == expected
    assert primitive_to_conserved(model, w).tobytes() == expected
    # the strided interior of a padded field, whose ghosts stay as they were
    data = np.full((dim + 2, *(n + 4 for n in cells)), np.nan)
    interior = data[(slice(None),) + (slice(2, -2),) * dim]
    interior[...] = w
    conserve_in_place(model, interior)
    assert np.ascontiguousarray(interior).tobytes() == expected
    assert np.isnan(data).sum() == data.size - interior.size


def test_in_place_conversion_rejects_a_non_positive_state_untouched():
    w = np.array([[1.0, 0.0], [2.0, 1.0], [1.0, 1.0]])
    before = w.copy()
    with pytest.raises(UnphysicalStateError, match="non-positive density or pressure"):
        conserve_in_place(EULER1, w)
    np.testing.assert_array_equal(w, before)
