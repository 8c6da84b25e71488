import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslaw.equations import EquationModel, primitive_to_conserved
from conslaw.grid import GridSpec, make_field, BoundaryKind
from conslaw.parallel import fill_boundary
from conslaw.numerics import FacePair, Reconstruction, ReconstructionKind, rusanov_flux
from oracles import (
    _ref_flux,
    _ref_hllc,
    _ref_rusanov,
    reconstruct,
    scalar_rusanov,
    weno_face_value,
    weno_weights,
)

EULER1 = EquationModel(kind="euler", dim=1)
BURGERS = EquationModel(kind="burgers", dim=1)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_weight_properties_large_random_sweep():
    rng = np.random.default_rng(2024)
    um, uc, up = rng.normal(0.0, 10.0, (3, 100_000))
    for kind in (ReconstructionKind.WENO2, ReconstructionKind.WENO3):
        w0, w1 = weno_weights(um, uc, up, kind)
        assert (w0 >= 0).all() and (w1 >= 0).all()
        np.testing.assert_allclose(w0 + w1, 1.0, rtol=4 * np.finfo(float).eps)


@given(um=finite, uc=finite, up=finite)
@settings(max_examples=300)
def test_weights_partition_of_unity(um, uc, up):
    for kind in (ReconstructionKind.WENO2, ReconstructionKind.WENO3):
        w0, w1 = weno_weights(
            np.array([um]), np.array([uc]), np.array([up]), kind
        )
        assert w0[0] >= 0 and w1[0] >= 0
        assert abs(w0[0] + w1[0] - 1.0) <= 4 * np.finfo(float).eps


@given(c=st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=200)
def test_constant_states_reconstruct_bitwise(c):
    u = np.full(5, c)
    for kind in (ReconstructionKind.WENO2, ReconstructionKind.WENO3):
        v = weno_face_value(u[:-2], u[1:-1], u[2:], kind, 1e-6)
        assert (v == c).all()


def test_linear_data_reconstructed_exactly_by_weno3():
    # both substencils agree on a line, so any convex blend is exact
    x = np.arange(10.0)
    u = 3.0 + 0.5 * x
    v = weno_face_value(u[:-2], u[1:-1], u[2:], ReconstructionKind.WENO3, 1e-6)
    np.testing.assert_allclose(v, u[1:-1] + 0.25, rtol=1e-13)


def test_smooth_weights_approach_ideal():
    # on smooth data with epsilon dominating, weights tend to the ideal pair
    u = np.sin(np.linspace(0, 0.1, 5))
    w0, w1 = weno_weights(u[:-2], u[1:-1], u[2:], ReconstructionKind.WENO3, 1e-2)
    np.testing.assert_allclose(w0, 1.0 / 3.0, atol=1e-3)
    np.testing.assert_allclose(w1, 2.0 / 3.0, atol=1e-3)


def test_reconstruction_radius():
    assert Reconstruction(ReconstructionKind.NONE).radius == 1
    assert Reconstruction(ReconstructionKind.WENO2).radius == 2
    assert Reconstruction(ReconstructionKind.WENO3).radius == 2


def test_piecewise_constant_reconstruction_copies_cells():
    g = GridSpec(1, (6,), (0.0,), (1.0,), ghost_width=1)
    f = make_field(g, 1, 0.0)
    f.interior[0] = np.arange(6.0)
    fill_boundary(f, (BoundaryKind.PERIODIC,))
    pair = reconstruct(f, 0, Reconstruction(ReconstructionKind.NONE))
    np.testing.assert_array_equal(pair.uL[0], [5, 0, 1, 2, 3, 4, 5])
    np.testing.assert_array_equal(pair.uR[0], [0, 1, 2, 3, 4, 5, 0])


def test_rusanov_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    ul, ur = rng.normal(0.0, 2.0, (2, 40))
    pair = FacePair(ul[None], ur[None])
    got = rusanov_flux(BURGERS, pair, 0)[0]
    want = [
        scalar_rusanov(lambda u: 0.5 * u * u, abs, a, b) for a, b in zip(ul, ur)
    ]
    np.testing.assert_allclose(got, want, rtol=1e-14)


def _euler_states(rng, n):
    w = np.empty((3, n))
    w[0] = rng.uniform(0.1, 3.0, n)
    w[1] = rng.normal(0.0, 1.5, n)
    w[2] = rng.uniform(0.1, 4.0, n)
    return primitive_to_conserved(EULER1, w)


def _faces(flux, ul, ur):
    """Face-by-face oracle fluxes of 1D Euler state arrays, shaped like them."""
    return np.array(
        [flux(list(a), list(b), 0, 1, EULER1.gamma) for a, b in zip(ul.T, ur.T)]
    ).T


def _physical(u):
    return np.array([_ref_flux(list(a), 0, 1, EULER1.gamma)[0] for a in u.T]).T


@pytest.mark.parametrize("flux", [_ref_rusanov, _ref_hllc])
def test_flux_consistency_is_bitwise(flux):
    # F(u, u) == f(u), exactly
    u = _euler_states(np.random.default_rng(4), 100)
    np.testing.assert_array_equal(_faces(flux, u, u.copy()), _physical(u))


def test_hllc_resolves_stationary_contact_exactly():
    # equal p and v=0 on both sides: interface flux is pressure only
    left = primitive_to_conserved(EULER1, np.array([[1.0], [0.0], [1.0]]))
    right = primitive_to_conserved(EULER1, np.array([[0.4], [0.0], [1.0]]))
    f = _faces(_ref_hllc, left, right)
    assert f[0, 0] == pytest.approx(0.0, abs=1e-14)  # no mass crosses
    assert f[1, 0] == pytest.approx(1.0, rel=1e-12)  # momentum flux = p
    assert f[2, 0] == pytest.approx(0.0, abs=1e-14)


def test_hllc_mirror_symmetry():
    # reflecting both states flips the mass flux sign
    rng = np.random.default_rng(5)
    ul = _euler_states(rng, 30)
    ur = _euler_states(rng, 30)
    f = _faces(_ref_hllc, ul, ur)
    ml, mr = ul.copy(), ur.copy()
    ml[1], mr[1] = -ml[1], -mr[1]
    f_mirror = _faces(_ref_hllc, mr, ml)
    np.testing.assert_allclose(f_mirror[0], -f[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(f_mirror[1], f[1], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(f_mirror[2], -f[2], rtol=1e-12, atol=1e-12)


def test_rusanov_upwinds_supersonic_flow():
    # both states moving right faster than sound: flux must be f(uL)
    left = primitive_to_conserved(EULER1, np.array([[1.0], [5.0], [1.0]]))
    right = primitive_to_conserved(EULER1, np.array([[0.8], [5.0], [0.9]]))
    f = _faces(_ref_hllc, left, right)
    np.testing.assert_allclose(f, _physical(left), rtol=1e-13)


def test_rusanov_dissipation_sign():
    # for uL > uR Burgers data, Rusanov flux >= central average (adds viscosity)
    pair = FacePair(np.array([[2.0]]), np.array([[1.0]]))
    f = rusanov_flux(BURGERS, pair, 0)[0, 0]
    central = 0.5 * (2.0 + 0.5)
    assert f >= central
