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

For Euler, ``spatial_residual`` runs each axis sweep as one call of the C
function ``euler_sweep`` of ``_faces.c``: reconstruction, the primitive pass,
the fallback, the flux and the flux difference, one line of cells at a time,
with the operations of the numpy path in the same order, so that every bit
agrees.
``face_kernel`` builds it on the first Euler residual with gcc (or cc),
caches the library in ``__pycache__/faces-<hash>.so`` next to this file (in
a private temporary directory when that is not writable) and loads it with
``ctypes``.  Without a compiler the numpy functions below do the work; they
also stay the reference of the tests, the only path of the scalar models
and the path that reports a failed sweep.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .equations import (
    EquationModel,
    EULER,
    POSITIVITY_FLOOR,
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

    def __post_init__(self):
        # 0 makes the weights 0/0 on flat data, and a face with NaN weights
        # would fall back to first order without a word
        if not 0.0 < self.epsilon < np.inf:
            raise ConfigError(f"weno_epsilon must be finite and > 0, got {self.epsilon}")

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


# ---------------------------------------------------------------------------
# The compiled Euler face sweep (_faces.c)
# ---------------------------------------------------------------------------

_SOURCE = Path(__file__).with_name("_faces.c")
# No flag may change a rounded value: no fast-math and no fused multiply-add.
# -O3 vectorizes the loops over the faces of a line and -fno-math-errno lets
# sqrt vectorize; IEEE operations round the same in vector registers.
_CFLAGS = (
    "-O3", "-fno-fast-math", "-fno-math-errno", "-ffp-contract=off", "-fPIC", "-shared"
)


def _intact(lib: Path) -> bool:
    """Whether ``lib`` is a library followed by its own sha256, as the build
    writes it.  Loading a damaged library can crash the process."""
    try:
        blob = lib.read_bytes()
    except OSError:
        return False
    return len(blob) > 32 and hashlib.sha256(blob[:-32]).digest() == blob[-32:]


def _load_face_kernel(cache_dir: Path):
    """Build ``_faces.c`` into ``cache_dir`` (once per source, flags and
    machine) and load its ``euler_sweep``; None when no C compiler is found
    or the build fails.  A damaged cached library is rebuilt."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None or not _SOURCE.is_file():
        return None
    key = hashlib.sha256(
        _SOURCE.read_bytes() + " ".join(_CFLAGS).encode() + platform.machine().encode()
    ).hexdigest()
    private = None
    try:
        cache_dir.mkdir(exist_ok=True)
    except OSError:
        pass
    if not os.access(cache_dir, os.W_OK):
        cache_dir = private = Path(tempfile.mkdtemp(prefix="conslaw-faces-"))
    lib = cache_dir / f"faces-{key[:32]}.so"
    tmp = cache_dir / f"{lib.name}.{os.getpid()}.tmp"
    try:
        if not _intact(lib):
            subprocess.run(
                [compiler, *_CFLAGS, "-o", str(tmp), str(_SOURCE), "-lm"],
                check=True, capture_output=True, timeout=120,
            )
            with open(tmp, "ab") as fh:
                fh.write(hashlib.sha256(tmp.read_bytes()).digest())
            # concurrent builders each write their own file; the rename is atomic
            os.replace(tmp, lib)
        sweep = ctypes.CDLL(str(lib)).euler_sweep
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    finally:
        tmp.unlink(missing_ok=True)
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)
    strides = ctypes.POINTER(ctypes.c_long)
    sweep.restype = ctypes.c_int
    sweep.argtypes = (
        [ctypes.c_void_p, strides, ctypes.c_void_p, strides, strides]
        + [ctypes.c_int] * 5 + [ctypes.c_double] * 7
    )
    return sweep


@functools.cache
def face_kernel():
    """The compiled Euler face sweep, built on first use, or None."""
    return _load_face_kernel(Path(__file__).parent / "__pycache__")


def face_kernel_name(model: EquationModel) -> str:
    """Which face sweep ``spatial_residual`` runs for ``model``."""
    return "compiled" if model.kind == EULER and face_kernel() is not None else "numpy"


def _element_strides(arr: np.ndarray, axes) -> "ctypes.Array":
    """Strides of ``arr`` in elements along ``axes``; None stands for a
    missing axis of length 1."""
    size = arr.itemsize
    return (ctypes.c_long * 5)(*(0 if a is None else arr.strides[a] // size for a in axes))


#: ``euler_face_sweep``'s status when the kernel could not allocate its line
#: buffers (``STATUS_NOMEM`` in ``_faces.c``); the numpy sweep would pass
SWEEP_NOMEM = 3


def euler_face_sweep(
    model: EquationModel, flux: FluxKind, recon: Reconstruction,
    data: np.ndarray, out: np.ndarray, axis: int, g: int, cells: tuple, delta: float,
):
    """Subtract the flux differences of spatial axis ``axis`` from ``out``
    with the compiled sweep.

    ``data`` is the padded state, ``out`` the interior residual, both in
    grid layout, with or without a rank axis after the components.  Returns
    None without a compiled kernel, else its status: 0 when done,
    ``SWEEP_NOMEM`` when out of memory, otherwise nonzero where the numpy
    path raises (``out`` is then partly updated).
    """
    kernel = face_kernel()
    if kernel is None or data.dtype != np.float64:
        return None
    dim = model.dim
    if data.ndim == dim + 1:
        data, out = data[:, None], out[:, None]
    # crop the transverse axes to the interior
    for other in range(dim):
        if other != axis:
            data = slab(data, -1 - other, g, g + cells[other])
    ax = data.ndim - 1 - axis
    interior = tuple(reversed(cells))
    padded = interior[: ax - 2] + (cells[axis] + 2 * g,) + interior[ax - 1 :]
    if data.shape[2:] != padded or out.shape != data.shape[:2] + interior:
        raise ValueError(
            f"sweep of axis {axis}: state {data.shape} and residual {out.shape} "
            f"do not fit {cells} cells with {g} ghosts"
        )
    if out.dtype != np.float64:
        raise ValueError(f"the residual must be float64, got {out.dtype}")
    trans = [a for a in range(2, data.ndim) if a != ax] + [None, None]
    axes = (0, 1, ax, trans[0], trans[1])
    shape = (ctypes.c_long * 4)(
        data.shape[1], cells[axis], *(1 if a is None else data.shape[a] for a in trans[:2])
    )
    weights = IDEAL_WEIGHTS.get(recon.kind, (0.0, 0.0))
    return kernel(
        data.ctypes.data, _element_strides(data, axes),
        out.ctypes.data, _element_strides(out, axes), shape,
        dim, axis, g, recon.kind is not ReconstructionKind.NONE,
        flux is FluxKind.HLLC, recon.epsilon, *weights,
        model.gamma, model.gamma - 1.0, POSITIVITY_FLOOR, delta,
    )
