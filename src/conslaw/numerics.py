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

The Euler fluxes have one implementation, the C kernel ``_faces.c``.  A run
binds its stack to it once, as an ``EulerStack``: the pointers, strides,
shapes and scheme scalars of every call go into one ctypes structure, which
each call passes unchanged.  Per stage, ``EulerStack.compute_residual`` is one
call for all axes: it zeroes the residual buffer and sweeps each axis line by
line (reconstruction, one primitive pass per face side, the first-order
positivity fallback, the HLLC or Rusanov flux and the flux difference),
checking while the first axis loads its lines that every interior cell is
physical; ``EulerStack.stage`` is the SSP-RK combination.  Per step,
``EulerStack.cell_pass`` checks that every cell is finite and physical and
takes the per-axis CFL maxima.  The reconstruction rounds like
``reconstruct_axis``, every face value like the face-by-face reference of
``tests/oracles.py`` (up to the sign of a zero), the combination like
``solver.ssp_rk_advance`` and the maxima like ``equations.max_wave_speeds``.

An axis sweep of at least ``SHARE_MIN_FACES`` faces (1024 in ``_faces.c``;
a 32x32 sweep has 1056) shares its lines with one helper pthread that the
kernel starts on the first such sweep and keeps, on the allowed CPUs other
than the caller's; the helper spins for ``SPIN_NS`` (1 ms) after each job,
then sleeps.  Each line is swept by one thread and the lowest failing line
decides the status and the rank, so every output bit and every failure is
that of one thread.  No helper starts where ``sched_getaffinity`` allows
fewer than 2 CPUs, and a forked child starts its own.  Python starts no
thread.

``face_kernel`` builds the kernel on the first use with gcc (or cc), caches
the library in ``__pycache__/faces-<hash>.so`` next to this file (in a
private temporary directory when that is not writable) and loads it with
``ctypes``; Euler runs need a C compiler.  The numpy functions below serve
the scalar models, and ``reconstruct_axis`` also locates the face that a
failed Euler sweep reports.
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
from typing import Callable, NamedTuple

import numpy as np

from .equations import EquationModel, POSITIVITY_FLOOR, max_wave_speed, physical_flux
from .errors import ConfigError
from .grid import Field, slab


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
# The compiled Euler kernel (_faces.c)
# ---------------------------------------------------------------------------

_SOURCE = Path(__file__).with_name("_faces.c")
# No flag may change a rounded value: no fast-math and no fused multiply-add.
# -O3 vectorizes the loops over the faces of a line and -fno-math-errno lets
# sqrt vectorize; IEEE operations round the same in vector registers.
_CFLAGS = (
    "-O3", "-fno-fast-math", "-fno-math-errno", "-ffp-contract=off", "-fPIC", "-shared",
    "-pthread",
)


class FaceKernel(NamedTuple):
    """The entry points of ``_faces.c``: the residual, SSP-RK stage and
    end-of-step cell pass of an ``EulerStack``."""

    residual: Callable
    stage: Callable
    cells: Callable


#: the C names of ``FaceKernel``'s fields, in order
_ENTRY_POINTS = ("euler_residual", "rk_stage", "cell_pass")


class _StackArgs(ctypes.Structure):
    """The ``Stack`` of ``_faces.c``: one run's arrays and scheme."""

    _fields_ = [
        ("u", ctypes.c_void_p),
        ("res", ctypes.c_void_p),
        ("maxima", ctypes.c_void_p),
        ("ustr", ctypes.c_long * 5),
        ("ranks", ctypes.c_long),
        ("cells", ctypes.c_long * 3),
        *((name, ctypes.c_int) for name in ("dim", "ghost", "weno", "hllc")),
        *((name, ctypes.c_double) for name in ("epsilon", "d0", "d1", "gamma", "gm1", "floor")),
        ("delta", ctypes.c_double * 3),
        ("stop_rank", ctypes.c_long),
        ("stop_axis", ctypes.c_int),
    ]


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
    machine) and load its entry points as a ``FaceKernel``.  A damaged
    cached library is rebuilt.  Raises ConfigError naming the missing
    compiler or source, or the failed build."""
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
        loaded = ctypes.CDLL(str(lib))
        kernel = FaceKernel(*(getattr(loaded, name) for name in _ENTRY_POINTS))
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
    stack = ctypes.POINTER(_StackArgs)
    kernel.residual.argtypes = kernel.cells.argtypes = [stack]
    kernel.stage.argtypes = (
        [stack, ctypes.c_void_p, ctypes.c_void_p] + [ctypes.c_double] * 3 + [ctypes.c_int]
    )
    kernel.stage.restype = None
    for entry in (kernel.residual, kernel.cells):
        entry.restype = ctypes.c_int
    return kernel


#: where ``face_kernel`` keeps the built library
_CACHE_DIR = Path(__file__).parent / "__pycache__"


@functools.cache
def face_kernel():
    """The compiled Euler kernel (a ``FaceKernel``), built on first use.
    Raises ConfigError when it cannot be built; a failure is not cached."""
    return _load_face_kernel(_CACHE_DIR)


#: the sweeps' statuses for a degenerate HLLC wave fan and for line buffers
#: they could not allocate (``STATUS_*`` in ``_faces.c``); 1 is an
#: unphysical face state, 4 an unphysical interior cell
SWEEP_DEGENERATE, SWEEP_NOMEM = 2, 3


#: the modes of ``rk_stage`` in ``_faces.c``: the first stage of a step,
#: the same saving the state at its start, and a later stage
_RK_FIRST, _RK_FIRST_SAVE, _RK_LATER = 0, 1, 2


class EulerStack(Field):
    """A run's stack of Euler subdomains bound to the compiled kernel.

    A field (or a stack with a rank axis after the components) whose
    pointers, strides, shapes and scheme scalars go into one ctypes
    structure when it is made, once per run; every call passes that
    structure unchanged.  ``cfg`` is the solver's scheme it was made for
    (its model, flux and reconstruction are read).  The state must be
    changed in place only, never replaced.  ``residual`` is the buffer that
    ``compute_residual`` refills and ``maxima`` the one ``cell_pass`` fills.
    """

    def __init__(self, field: Field, cfg):
        super().__init__(field.grid, field.ncomp, field.data)
        grid, model, recon = field.grid, cfg.model, cfg.recon
        data = field.data if field.data.ndim > grid.dim + 1 else field.data[:, None]
        if data.dtype != np.float64 or data.shape[:1] + data.shape[2:] != (
            (model.ncomp,) + grid.data_shape
        ):
            raise ValueError(
                f"an Euler stack needs a float64 state of {model.ncomp} components on "
                f"{grid.data_shape}, got {field.data.dtype} {field.data.shape}"
            )
        self.cfg = cfg
        self._kernel = face_kernel()
        self.residual = np.empty(self.interior.shape)
        self.maxima = np.empty(grid.dim)
        pad = 3 - grid.dim
        strides = [s // data.itemsize for s in data.strides]
        args = _StackArgs(
            u=data.ctypes.data, res=self.residual.ctypes.data, maxima=self.maxima.ctypes.data,
            ustr=(ctypes.c_long * 5)(*strides[:2], *(0,) * pad, *strides[2:]),
            ranks=data.shape[1], cells=(ctypes.c_long * 3)(*grid.cells, *(1,) * pad),
            dim=grid.dim, ghost=grid.ghost_width,
            weno=recon.kind is not ReconstructionKind.NONE, hllc=cfg.flux is FluxKind.HLLC,
            epsilon=recon.epsilon, gamma=model.gamma, gm1=model.gamma - 1.0,
            floor=POSITIVITY_FLOOR, delta=(ctypes.c_double * 3)(*grid.deltas, *(0.0,) * pad),
        )
        args.d0, args.d1 = IDEAL_WEIGHTS.get(recon.kind, (0.0, 0.0))
        self._args = args
        self._ref = ctypes.byref(args)
        self._residual_address = args.res
        self._start = self._start_address = None

    @property
    def stop(self) -> tuple:
        """``(axis, rank)`` of the line at which ``compute_residual`` stopped."""
        return self._args.stop_axis, self._args.stop_rank

    def compute_residual(self) -> int:
        """Fill ``residual``: zeroed, then every axis swept, the first sweep
        checking that every interior cell is physical.  Returns 0, or the
        ``SWEEP_*`` status of the first line that failed (see ``stop``);
        ``residual`` is then partly updated."""
        return self._kernel.residual(self._ref)

    def stage(self, k: np.ndarray, start: np.ndarray, dt: float, a=None, b=None,
              save=False) -> None:
        """One SSP-RK stage of the interior in place, given its residual
        ``k``: ``u + dt k`` (after copying the state into ``start`` with
        ``save``), or with ``a`` and ``b`` ``a start + b (u + dt k)``,
        rounded as ``solver.ssp_rk_advance``.  ``k`` and ``start`` are
        float64 and laid out like ``residual``."""
        mode = _RK_LATER if a is not None else _RK_FIRST_SAVE if save else _RK_FIRST
        if start is not self._start:
            self._start_address = self._address(start)
            self._start = start
        self._kernel.stage(
            self._ref, self._address(k), self._start_address, dt, a or 0.0, b or 0.0, mode
        )

    def cell_pass(self) -> int:
        """One pass over the interior cells: fill ``maxima`` with the
        per-axis maximum of |m_k / rho| + c, rounded as
        ``equations.max_wave_speeds``.  Returns 0, or 1 when a cell is not
        finite or not physical; ``maxima`` is then meaningless."""
        return self._kernel.cells(self._ref)

    def _address(self, arr: np.ndarray) -> int:
        if arr is self.residual:
            return self._residual_address
        shape = self.residual.shape
        if arr.dtype != np.float64 or arr.shape != shape or not arr.flags.c_contiguous:
            raise ValueError(
                f"a stage array must be contiguous float64 of shape {shape}, "
                f"got {arr.dtype} {arr.shape}"
            )
        return arr.ctypes.data
