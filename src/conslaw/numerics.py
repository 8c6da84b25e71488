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

The Euler fluxes have one implementation: ``spatial_residual`` runs each
axis sweep as one call of the C function ``euler_sweep`` of ``_faces.c``:
reconstruction, one primitive pass per face side, the first-order
positivity fallback, the HLLC or Rusanov flux and the flux difference, one
line of cells at a time.  Its reconstruction rounds like ``reconstruct_axis``
and every value like the face-by-face reference of ``tests/oracles.py``, up
to the sign of a zero.  ``face_kernel`` builds it on the first use with gcc
(or cc), caches the library in ``__pycache__/faces-<hash>.so`` next to this
file (in a private temporary directory when that is not writable) and loads
it with ``ctypes``; Euler runs need a C compiler.  The numpy functions below
serve the scalar models, and ``reconstruct_axis`` also locates the face that
a failed Euler sweep reports.
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

from .equations import EquationModel, POSITIVITY_FLOOR, max_wave_speed, physical_flux
from .errors import ConfigError
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
            raise ConfigError(
                f"weno_epsilon must be finite and > 0, got {self.epsilon}", key="weno_epsilon"
            )

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


def rusanov_flux(model: EquationModel, faces: FacePair, axis: int) -> np.ndarray:
    """Local Lax-Friedrichs flux of the scalar models: central average plus
    maximal dissipation."""
    uL, uR = np.asarray(faces.uL, dtype=float), np.asarray(faces.uR, dtype=float)
    fL = physical_flux(model, uL, axis)
    fR = physical_flux(model, uR, axis)
    s = np.maximum(
        max_wave_speed(model, uL, axis),
        max_wave_speed(model, uR, axis),
    )
    return 0.5 * (fL + fR) - 0.5 * s * (uR - uL)


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
    machine) and load its ``euler_sweep``.  A damaged cached library is
    rebuilt.  Raises ConfigError naming the missing compiler or source, or
    the failed build."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        raise ConfigError(
            "Euler runs need a C compiler to build the face sweep: found neither gcc nor cc"
        )
    if not _SOURCE.is_file():
        raise ConfigError(f"Euler runs need the face sweep source, but {_SOURCE} is missing")
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
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        detail = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()
        raise ConfigError(
            f"Euler runs need the face sweep, but building or loading {_SOURCE.name} "
            f"with {compiler} failed: {detail or exc}"
        ) from None
    finally:
        tmp.unlink(missing_ok=True)
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)
    strides = ctypes.POINTER(ctypes.c_long)
    sweep.restype = ctypes.c_int
    sweep.argtypes = (
        [ctypes.c_void_p, strides, ctypes.c_void_p, strides, strides]
        + [ctypes.c_int] * 5 + [ctypes.c_double] * 7 + [ctypes.POINTER(ctypes.c_long)]
    )
    return sweep


#: where ``face_kernel`` keeps the built library
_CACHE_DIR = Path(__file__).parent / "__pycache__"


@functools.cache
def face_kernel():
    """The compiled Euler face sweep, built on first use.  Raises
    ConfigError when it cannot be built; a failure is not cached."""
    return _load_face_kernel(_CACHE_DIR)


def _element_strides(arr: np.ndarray, axes) -> "ctypes.Array":
    """Strides of ``arr`` in elements along ``axes``; None stands for a
    missing axis of length 1."""
    size = arr.itemsize
    return (ctypes.c_long * 5)(*(0 if a is None else arr.strides[a] // size for a in axes))


#: ``euler_face_sweep``'s statuses for a degenerate HLLC wave fan and for
#: line buffers it could not allocate (``STATUS_*`` in ``_faces.c``); 1 is
#: an unphysical face state
SWEEP_DEGENERATE, SWEEP_NOMEM = 2, 3


def euler_face_sweep(
    model: EquationModel, flux: FluxKind, recon: Reconstruction,
    data: np.ndarray, out: np.ndarray, axis: int, g: int, cells: tuple, delta: float,
):
    """Subtract the flux differences of spatial axis ``axis`` from ``out``
    with the compiled sweep.

    ``data`` is the padded state, ``out`` the interior residual, both in
    grid layout, with or without a rank axis after the components, both
    float64.  Returns ``(status, rank)``: status 0 when done, else the
    ``SWEEP_*`` status of the first line that failed, ranks outermost, whose
    rank is ``rank`` (0 without a rank axis); ``out`` is then partly updated.
    """
    if data.dtype != np.float64 or out.dtype != np.float64:
        raise ValueError(
            f"the state and the residual must be float64, got {data.dtype} and {out.dtype}"
        )
    kernel = face_kernel()
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
    trans = [a for a in range(2, data.ndim) if a != ax] + [None, None]
    axes = (0, 1, ax, trans[0], trans[1])
    shape = (ctypes.c_long * 4)(
        data.shape[1], cells[axis], *(1 if a is None else data.shape[a] for a in trans[:2])
    )
    weights = IDEAL_WEIGHTS.get(recon.kind, (0.0, 0.0))
    stop_rank = ctypes.c_long(0)
    status = kernel(
        data.ctypes.data, _element_strides(data, axes),
        out.ctypes.data, _element_strides(out, axes), shape,
        dim, axis, g, recon.kind is not ReconstructionKind.NONE,
        flux is FluxKind.HLLC, recon.epsilon, *weights,
        model.gamma, model.gamma - 1.0, POSITIVITY_FLOOR, delta, ctypes.byref(stop_rank),
    )
    return status, stop_rank.value
