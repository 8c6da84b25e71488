"""Cell-interface reconstruction and two-state numerical flux functions.

Reconstruction operates component-wise on conserved variables.  The WENO
variants blend two linear substencils over the window (u_{i-1}, u_i, u_{i+1});
WENO3 uses the classical third-order ideal weights (1/3, 2/3), WENO2 the
second-order central-slope weights (1/2, 1/2).  Both need a ghost width of 2.

Along one axis, ``reconstruct_axis`` forms the undivided differences
d_k = u_{k+1} - u_k once, and from them q_k = (eps + d_k^2)^2 and the
unnormalized weights d0/q_k and d1/q_k.  The face on the downwind side of cell
i reads d_{i-1} and d_i; its mirror on the upwind side of cell i+1 reads
d_{i+1} and d_i with both signs flipped, so it is written as
u_{i+1} - 0.5 (w0 d_{i+1} + w1 d_i).  IEEE rounding is symmetric under
negation (a - b == -(b - a), (-a) b == -(a b), (-a) + (-b) == -(a + b)) and
squares ignore the sign, so sharing the differences between the two sides
gives the values of evaluating each face on its own stencil.

For Euler, each side of a face goes through one primitive pass
(``euler_side``): one pressure evaluation yields the positivity mask, which
drives the solver's first-order fallback and the unphysical-state error, and
the same pressure feeds the physical flux, the wave speeds and the HLLC star
states.  HLLC builds one star state per face, from the inputs of the side
whose star state the face selects.  No result differs from the per-face
formulas of ``tests/oracles.py`` by more than the sign of a zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .equations import (
    EquationModel,
    EULER,
    euler_flux,
    max_wave_speed,
    physical_flux,
    positive,
    pressure,
    require_mask,
)
from .errors import ConfigError, UnphysicalStateError
from .grid import slab


class ReconstructionKind(Enum):
    NONE = "none"
    WENO2 = "weno2"
    WENO3 = "weno3"


class FluxKind(Enum):
    RUSANOV = "rusanov"
    HLLC = "hllc"


@dataclass(frozen=True)
class Reconstruction:
    kind: ReconstructionKind = ReconstructionKind.NONE
    epsilon: float = 1e-6

    @property
    def radius(self) -> int:
        return 1 if self.kind is ReconstructionKind.NONE else 2


#: ideal linear weights (downwind-biased substencil second)
IDEAL_WEIGHTS = {
    ReconstructionKind.WENO2: (0.5, 0.5),
    ReconstructionKind.WENO3: (1.0 / 3.0, 2.0 / 3.0),
}


class FacePair(NamedTuple):
    """Reconstructed states on the two sides of each interface."""

    uL: np.ndarray
    uR: np.ndarray


# The helpers below update their own temporaries in place: a fresh array per
# operation costs more than the arithmetic at these sizes.  x += y and x *= y
# round exactly like y + x and y * x.


def _smoothness(d, epsilon: float):
    """(epsilon + beta)^2 with the smoothness indicator beta = d^2."""
    q = d * d
    q += epsilon
    q *= q
    return q


def _weno_correction(dm, dp, am, ap):
    """0.5 (w0 dm + w1 dp) with (w0, w1) = (am, ap) / (am + ap)."""
    total = am + ap
    w0 = am / total
    w1 = ap / total
    w0 *= dm
    w1 *= dp
    w0 += w1
    w0 *= 0.5
    return w0


def reconstruct_axis(
    data: np.ndarray, np_ax: int, n: int, g: int, recon: Reconstruction
) -> FacePair:
    """Face states at the n+1 interfaces of one axis of a padded array.

    Interface j sits between padded cells (g-1+j, g+j), j = 0..n.
    """
    if recon.radius > g:
        raise ConfigError(
            f"reconstruction radius {recon.radius} exceeds ghost width {g}"
        )

    if recon.kind is ReconstructionKind.NONE:
        return FacePair(
            slab(data, np_ax, g - 1, g + n), slab(data, np_ax, g, g + n + 1)
        )
    d0, d1 = IDEAL_WEIGHTS[recon.kind]
    # d[k] = u[g-1+k] - u[g-2+k], k = 0..n+2; face j reads d[j], d[j+1], d[j+2]
    d = slab(data, np_ax, g - 1, g + n + 2) - slab(data, np_ax, g - 2, g + n + 1)
    q = _smoothness(d, recon.epsilon)
    dmid = slab(d, np_ax, 1, n + 2)
    a1 = d1 / slab(q, np_ax, 1, n + 2)  # a1[j] belongs to d[j+1]
    a0 = np.divide(d0, q, out=q)
    # left state: downwind face of cells g-1 .. g+n-1
    uL = _weno_correction(
        slab(d, np_ax, 0, n + 1), dmid, slab(a0, np_ax, 0, n + 1), a1
    )
    uL += slab(data, np_ax, g - 1, g + n)
    # right state: mirrored stencil around cells g .. g+n
    uR = _weno_correction(
        slab(d, np_ax, 2, n + 3), dmid, slab(a0, np_ax, 2, n + 3), a1
    )
    np.subtract(slab(data, np_ax, g, g + n + 1), uR, out=uR)
    return FacePair(uL, uR)


class EulerSide(NamedTuple):
    """Euler states on one side of each face, with the pressure and the
    positivity mask of their single primitive pass."""

    u: np.ndarray
    p: np.ndarray
    ok: np.ndarray


def euler_side(model: EquationModel, u) -> EulerSide:
    """The primitive pass of one face side: one pressure evaluation."""
    u = np.asarray(u, dtype=float)
    p = pressure(model, u)
    return EulerSide(u, p, positive(u[0], p))


def _euler_sides(model: EquationModel, faces) -> tuple:
    """Checked (left, right) EulerSides of a FacePair.  A pair of EulerSides
    is returned as is: its caller has checked the masks."""
    left, right = faces
    if isinstance(left, EulerSide):
        return left, right
    sides = euler_side(model, left), euler_side(model, right)
    for side in sides:
        require_mask(side.u, side.ok)
    return sides


def _primitives(model: EquationModel, side: EulerSide, axis: int):
    """(rho, v, c, physical flux) of one side."""
    u = side.u
    rho = u[0]
    v = u[1 + axis] / rho
    c = np.sqrt(model.gamma * side.p / rho)
    return rho, v, c, euler_flux(model, u, axis, v, side.p)


def rusanov_flux(model: EquationModel, faces, axis: int) -> np.ndarray:
    """Local Lax-Friedrichs flux: central average plus maximal dissipation.

    ``faces`` is a FacePair, or for Euler a (left, right) pair of checked
    EulerSides.
    """
    if model.kind != EULER:
        uL, uR = np.asarray(faces.uL, dtype=float), np.asarray(faces.uR, dtype=float)
        fL = physical_flux(model, uL, axis)
        fR = physical_flux(model, uR, axis)
        s = np.maximum(
            max_wave_speed(model, uL, axis),
            max_wave_speed(model, uR, axis),
        )
        return 0.5 * (fL + fR) - 0.5 * s * (uR - uL)
    L, R = _euler_sides(model, faces)
    _, vL, cL, fL = _primitives(model, L, axis)
    _, vR, cR, fR = _primitives(model, R, axis)
    s = np.maximum(np.abs(vL) + cL, np.abs(vR) + cR)
    jump = R.u - L.u
    jump *= 0.5 * s
    fL += fR
    fL *= 0.5
    fL -= jump
    return fL


def hllc_flux(model: EquationModel, faces, axis: int) -> np.ndarray:
    """Three-wave HLLC flux for Euler with Davis wave-speed estimates.

    ``faces`` is a FacePair or a (left, right) pair of checked EulerSides.
    Exactly consistent: equal input states return the physical flux bitwise.
    """
    if model.kind != EULER:
        raise ConfigError("HLLC flux is only defined for the Euler equations")
    L, R = _euler_sides(model, faces)
    uL, uR = L.u, R.u
    rhoL, vL, cL, fL = _primitives(model, L, axis)
    rhoR, vR, cR, fR = _primitives(model, R, axis)

    sL = np.minimum(vL - cL, vR - cR)
    sR = np.maximum(vL + cL, vR + cR)
    if np.any(sR - sL <= 0):
        raise UnphysicalStateError("degenerate HLLC wave fan (sL >= sR)")

    aL, aR = sL - vL, sR - vR
    mL, mR = rhoL * aL, rhoR * aR  # den = mL - mR is strictly negative for c > 0
    sM = (R.p - L.p + rhoL * vL * aL - rhoR * vR * aR) / (mL - mR)

    # fL left of the fan and wherever uL == uR (exact consistency F(u, u) = f(u))
    upwind_left = (sL >= 0) | np.all(uL == uR, axis=0)
    # Each face uses at most one star state: the left one where sM >= 0, else
    # the right one.  Pick that side's inputs and build it once.
    left = sM >= 0
    star_faces = ~upwind_left & (left | (sR > 0))
    f = np.where(left | upwind_left, fL, fR)  # the flux wherever not star_faces
    u = np.where(left, uL, uR)
    v = np.where(left, vL, vR)
    p = np.where(left, L.p, R.p)
    s = np.where(left, sL, sR)
    m = np.where(left, mL, mR)
    rho = u[0]
    dim = model.dim
    factor = m / (s - sM)
    star = np.empty_like(u)
    star[0] = factor
    for j in range(dim):
        if j != axis:
            star[1 + j] = factor * (u[1 + j] / rho)
    star[1 + axis] = factor * sM
    star[1 + dim] = factor * (u[1 + dim] / rho + (sM - v) * (sM + p / m))
    star -= u
    star *= s
    star += f
    return np.where(star_faces, star, f)


FLUX_FUNCTIONS = {
    FluxKind.RUSANOV: rusanov_flux,
    FluxKind.HLLC: hllc_flux,
}


def numerical_flux(model: EquationModel, kind: FluxKind, faces, axis: int) -> np.ndarray:
    return FLUX_FUNCTIONS[kind](model, faces, axis)
