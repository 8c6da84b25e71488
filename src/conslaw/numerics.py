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

A run steps one object, its ``Stack``: the state (a field, or a stack of
subdomains with a rank axis after the components) with the buffers a step
needs, ``residual``, ``start`` (the state at the start of the step) and
``maxima``, and its halo plan (``parallel.halo_plan``), all made once per
run.  The time loop makes one call per step, ``step(dt)``: per SSP-RK stage
the halo pass, the residual and the combination, then the cell pass (the
end-of-step check that every cell is finite and physical, and the per-axis
CFL maxima).  ``ScalarStack`` serves Burgers and advection with the numpy
functions below, and its step makes those parts one call each.
``EulerStack`` serves the Euler equations, whose fluxes have one
implementation, the C kernel ``_faces.c``, and its step is one kernel call;
its state must be contiguous along x.  The pointers, strides, shapes, line
scratch, halo copies and scheme scalars go into one ctypes structure, which
each call passes unchanged, and ``_ENTRY_POINTS`` names each entry point
once: its C name, argument types and result type.  The halo pass runs the
plan's slab copies from their offsets, shapes and strides; the residual
sweeps each axis line by line (reconstruction, one primitive pass per face
side, the first-order positivity fallback, the HLLC or Rusanov flux and the
flux difference), checking while the first axis loads its lines that every
interior cell is physical.  The kernel describes each axis sweep by one
``Sweep`` (the axis, its strides and line counts) and reads the scheme from
the stack structure itself.  The reconstruction rounds like
``reconstruct_axis``, every face value like the face-by-face reference of
``tests/oracles.py`` (up to the sign of a zero), both stacks' combination
like that file's SSP Runge-Kutta step and the maxima like
``equations.max_wave_speeds``.  A step that fails leaves what its parts made
one call each would leave (``tests/oracles.py`` builds that reference); only
``compute_residual``, whose bits the face-by-face tests compare, and
``cell_pass`` (of a run's initial state) are callable on their own.

On a stack whose sweeps have at least ``SHARE_MIN_FACES`` faces (1024 in
``_faces.c``; a 32x32 sweep has 1056) the kernel shares each call, a step
with all its phases, a residual or a cell pass alike, with one helper
pthread that it starts on the first such call and keeps, on the allowed CPUs
other than the caller's; the helper spins for ``SPIN_NS`` (1 ms) after each
call, then sleeps.  Each line is computed by one thread, each thread keeps
its own maxima, and the lowest failing line decides the status and the rank,
so every output bit and every failure is that of one thread.  No helper
starts where ``sched_getaffinity`` allows fewer than 2 CPUs, and a forked
child starts its own.  Python starts no thread.

``face_kernel`` builds the kernel on the first use with gcc (or cc), caches
the library in ``__pycache__/faces-<hash>.so`` next to this file (in a
private temporary directory when that is not writable) and loads it with
``ctypes``; Euler runs need a C compiler.  ``axis_faces`` also locates the
face that a failed Euler sweep reports.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .equations import (
    EquationModel, POSITIVITY_FLOOR, max_wave_speed, max_wave_speeds, physical_flux,
)
from .errors import ConfigError
from .grid import Field, slab
from .parallel import exchange_halos


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

    Interface j sits between padded cells (g-1+j, g+j), j = 0..n; the
    stencil radius must not exceed g, which ``solver.check_scheme`` checks
    before any stack is bound.
    """
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


def axis_faces(field: Field, axis: int, recon: Reconstruction) -> FacePair:
    """Face states of spatial axis ``axis`` of a field (or stack) over the
    interior of the other axes, in grid layout."""
    grid, g = field.grid, field.grid.ghost_width
    sub = field.data
    for other in range(grid.dim):
        if other != axis:
            sub = slab(sub, -1 - other, g, g + grid.cells[other])
    return reconstruct_axis(sub, -1 - axis, grid.cells[axis], g, recon)


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
# A run's stack: the one object the time loop steps
# ---------------------------------------------------------------------------


#: (a, b) of each SSP-RK stage after the first: u <- a u0 + b (u + dt L(u)),
#: where u0 is the state at the start of the step
SSP_STAGES = {1: (), 2: ((0.5, 0.5),), 3: ((0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0))}

def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float64 array that starts on a 64-byte cache line,
    so that threads writing rows of 8 elements apart never share a line."""
    size = int(np.prod(shape))
    raw = np.empty(size + 8)
    skip = (-raw.ctypes.data % 64) // raw.itemsize
    return raw[skip : skip + size].reshape(shape)


#: ``Stack.step``'s status when a cell fails the end-of-step pass
#: (``STATUS_CELL_PASS`` in ``_faces.c``)
STEP_CELLS = 8


class Stack(Field):
    """A run's state with the buffers of its steps, made once per run.

    A field, or a stack of subdomains with a rank axis after the components,
    for the solver's scheme ``cfg``, with ``halo``, the slab copies of its
    halo pass (``parallel.halo_plan``; none for a field whose ghosts are
    filled by its caller), ``residual``, ``start`` (the state at the start of
    a step) and ``maxima``.  The time loop makes one call per step,
    ``step(dt)``, which returns 0, ``STEP_CELLS`` when a cell fails the
    end-of-step cell pass, or the status of the residual that fails; the
    state is then that of the stage before it, with its ghosts filled.
    ``compute_residual`` fills ``residual`` and returns 0 or a failure
    status; ``cell_pass`` checks that every interior cell is finite and
    physical, returns 0 or 1, and fills ``maxima`` with the per-axis maximum
    wave speed.  Every value of a step rounds as the reference SSP
    Runge-Kutta step of ``tests/oracles.py``.  The state must be changed in
    place only, never replaced.
    """

    def __init__(self, field: Field, cfg, halo=()):
        super().__init__(field.grid, field.ncomp, field.data)
        self.cfg = cfg
        self.halo = halo
        self.residual = _aligned_empty(self.interior.shape)
        self.start = _aligned_empty(self.interior.shape)
        self.maxima = np.empty(field.grid.dim)


class ScalarStack(Stack):
    """A run's stack of a scalar model (Burgers or advection), stepped by
    numpy: the Rusanov flux of ``reconstruct_axis``'s face states.  Its step
    makes each part of a stage one call: ``exchange_halos``,
    ``compute_residual`` and ``stage``."""

    def step(self, dt: float) -> int:
        """One SSP-RK step, then the cell pass (see ``Stack``); a scalar
        residual never fails."""
        for a, b in ((None, None),) + SSP_STAGES[self.cfg.rk_order]:
            exchange_halos(self.halo)
            self.compute_residual()
            self.stage(dt, a, b)
        return STEP_CELLS if self.cell_pass() else 0

    def compute_residual(self) -> int:
        grid, out = self.grid, self.residual
        out[...] = 0.0
        for axis in range(grid.dim):
            F = rusanov_flux(self.cfg.model, axis_faces(self, axis, self.cfg.recon), axis)
            ax = -1 - axis
            diff = slab(F, ax, 1, grid.cells[axis] + 1) - slab(F, ax, 0, grid.cells[axis])
            diff /= grid.deltas[axis]
            out -= diff
        return 0

    def stage(self, dt: float, a=None, b=None) -> None:
        """The combination of the interior in place, from ``residual`` (its
        scratch): a first stage (``a`` is None) is ``u + dt residual``, and
        saves the state into ``start`` first when ``cfg.rk_order`` is above
        1; a later one is ``a start + b (u + dt residual)``."""
        u, k = self.interior, self.residual
        if a is None and self.cfg.rk_order > 1:
            self.start[...] = u
        k *= dt
        if a is None:
            u += k
            return
        k += u
        k *= b
        np.multiply(self.start, a, out=u)
        u += k

    def cell_pass(self) -> int:
        u = self.interior
        if not np.isfinite(u).all():
            return 1
        self.maxima[:] = [np.max(s) for s in max_wave_speeds(self.cfg.model, u)]
        return 0


# ---------------------------------------------------------------------------
# The compiled Euler kernel (_faces.c)
# ---------------------------------------------------------------------------

_SOURCE = Path(__file__).with_name("_faces.c")
# No flag may change a rounded value: no fast-math and no fused multiply-add.
# -O3 vectorizes the loops over the faces of a line and -fno-math-errno lets
# sqrt vectorize; IEEE operations round the same in vector registers.
# -fno-thread-jumps keeps the HLLC loop, whose selects share one condition,
# from being split into two branches, so that it vectorizes.  -march=native
# uses the host's vector width (a 64x64 residual on one CPU ran 1.26x as fast
# with AVX-512 as with SSE2), so the cache key carries the host's CPU.
_CFLAGS = (
    "-O3", "-march=native", "-fno-fast-math", "-fno-math-errno", "-ffp-contract=off",
    "-fno-thread-jumps", "-fPIC", "-shared", "-pthread",
)

#: the /proc/cpuinfo fields that name what -march=native builds for (x86,
#: then ARM); the clock and the counters that vary are left out
_CPU_FIELDS = (
    b"vendor_id", b"cpu family", b"model", b"stepping", b"flags",
    b"CPU implementer", b"CPU architecture", b"CPU variant", b"CPU part", b"Features",
)


def _host_cpu() -> bytes:
    """The host CPU as the library cache key needs it: its identity and
    feature flags (of the first CPU in /proc/cpuinfo), else, off Linux, the
    name of its processor."""
    try:
        with open("/proc/cpuinfo", "rb") as fh:
            first = fh.read().split(b"\n\n")[0]
    except OSError:
        return platform.processor().encode()
    return b"\n".join(
        line for line in first.splitlines() if line.split(b":")[0].strip() in _CPU_FIELDS
    )


class _StackArgs(ctypes.Structure):
    """The ``Stack`` of ``_faces.c``: one run's arrays, halo plan and scheme."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in ("u", "res", "start", "maxima", "scratch", "halo")),
        ("copies", ctypes.c_long),
        ("ustr", ctypes.c_long * 5),
        ("ranks", ctypes.c_long),
        ("cells", ctypes.c_long * 3),
        *((name, ctypes.c_int) for name in ("dim", "ghost", "weno", "hllc", "stages")),
        *((name, ctypes.c_double) for name in ("epsilon", "d0", "d1", "gamma", "gm1", "floor")),
        *((name, ctypes.c_double * 3) for name in ("delta", "a", "b")),
        ("stop_rank", ctypes.c_long),
        ("stop_axis", ctypes.c_int),
        ("stop_stage", ctypes.c_int),
    ]


_STACK = ctypes.POINTER(_StackArgs)

#: the entry points of ``_faces.c`` on an ``EulerStack``, by ``FaceKernel``
#: field: the C name, the argument types and the result type
_ENTRY_POINTS = {
    "step": ("euler_step", (_STACK, ctypes.c_double), ctypes.c_int),  # the whole step
    "residual": ("euler_residual", (_STACK,), ctypes.c_int),  # the residual alone
    "cells": ("cell_pass", (_STACK,), ctypes.c_int),  # the cell pass
    "scratch": ("line_scratch", (_STACK,), ctypes.c_long),  # the size of the line scratch
}

#: the loaded entry points, one field per row of ``_ENTRY_POINTS``
FaceKernel = namedtuple("FaceKernel", _ENTRY_POINTS)


#: the axes of a slab copy in ``_faces.c`` (``HALO_AXES``)
_HALO_AXES = 7

#: the lowest and one past the highest byte address of an array (moved to
#: ``numpy.lib.array_utils`` by numpy 2)
_byte_bounds = getattr(np.lib, "array_utils", np).byte_bounds


def _halo_copies(data: np.ndarray, plan) -> np.ndarray:
    """The slab copies of a halo plan over ``data`` as the ``Copy`` rows of
    ``_faces.c``: the element offsets of destination and source from
    ``data``, then the shape and both element strides, each padded in front
    to ``_HALO_AXES`` axes (a broadcast source has stride 0)."""
    base, size = data.ctypes.data, data.itemsize
    lo, hi = _byte_bounds(data)
    rows = []
    for dst, src in plan:
        if dst.shape != src.shape or dst.dtype != data.dtype or src.dtype != data.dtype:
            raise ValueError("a halo copy needs a source of the destination's shape and dtype")
        for view in (dst, src):
            first, last = _byte_bounds(view)
            if first < lo or last > hi:
                raise ValueError("a halo copy must lie within the stack's state")
        pad = _HALO_AXES - dst.ndim
        rows.append([
            (dst.ctypes.data - base) // size, (src.ctypes.data - base) // size,
            *(1,) * pad, *dst.shape,
            *(0,) * pad, *(s // size for s in dst.strides),
            *(0,) * pad, *(s // size for s in src.strides),
        ])
    return np.array(rows, dtype=np.int64).reshape(len(rows), 2 + 3 * _HALO_AXES)


def _intact(lib: Path) -> bool:
    """Whether ``lib`` is a library followed by its own sha256, as the build
    writes it.  Loading a damaged library can crash the process."""
    try:
        blob = lib.read_bytes()
    except OSError:
        return False
    return len(blob) > 32 and hashlib.sha256(blob[:-32]).digest() == blob[-32:]


def _load_face_kernel(cache_dir: Path):
    """Build ``_faces.c`` into ``cache_dir`` and load its entry points as a
    ``FaceKernel``.  A library is named by the hash of its source, then the
    hash of its flags, machine and host CPU, so that a shared checkout never
    loads a library built for another CPU.  A damaged cached library is
    rebuilt; a build deletes the libraries of every other source and keeps
    those of its own source for other CPUs or flags.  Raises ConfigError
    naming the missing compiler or source, or the failed build."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        raise ConfigError(
            "Euler runs need a C compiler to build the face sweep: found neither gcc nor cc"
        )
    if not _SOURCE.is_file():
        raise ConfigError(f"Euler runs need the face sweep source, but {_SOURCE} is missing")
    source = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    build = hashlib.sha256(
        " ".join(_CFLAGS).encode() + platform.machine().encode() + _host_cpu()
    ).hexdigest()[:16]
    private = None
    try:
        cache_dir.mkdir(exist_ok=True)
    except OSError:
        pass
    if not os.access(cache_dir, os.W_OK):
        cache_dir = private = Path(tempfile.mkdtemp(prefix="conslaw-faces-"))
    lib = cache_dir / f"faces-{source}-{build}.so"
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
            # the pattern leaves a concurrent builder's *.tmp file alone; a
            # library that cannot be deleted only costs disk space
            for other in cache_dir.glob("faces-*.so"):
                if not other.name.startswith(f"faces-{source}-"):
                    with contextlib.suppress(OSError):
                        other.unlink()
        loaded = ctypes.CDLL(str(lib))
        kernel = FaceKernel(*(getattr(loaded, name) for name, _, _ in _ENTRY_POINTS.values()))
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
    for entry, (_name, args, result) in zip(kernel, _ENTRY_POINTS.values()):
        entry.argtypes, entry.restype = args, result
    return kernel


#: where ``face_kernel`` keeps the built library
_CACHE_DIR = Path(__file__).parent / "__pycache__"


@functools.cache
def face_kernel():
    """The compiled Euler kernel (a ``FaceKernel``), built on first use.
    Raises ConfigError when it cannot be built; a failure is not cached."""
    return _load_face_kernel(_CACHE_DIR)


#: the status of a sweep for a degenerate HLLC wave fan (``STATUS_*`` in
#: ``_faces.c``); 1 is an unphysical face state, 4 an unphysical interior cell
SWEEP_DEGENERATE = 2


class EulerStack(Stack):
    """A run's stack of Euler subdomains bound to the compiled kernel.

    The state must be float64 and contiguous along x, as ``scatter_field``
    and ``read_snapshot`` make it (``ScalarStack`` takes any layout).  The
    pointers, strides and shapes of the state and of the buffers, the line
    scratch of both kernel threads, the slab copies of the halo pass and the
    scheme scalars go into one ctypes structure when the stack is made, once
    per run; every call passes that structure unchanged, and a step is one
    call.  ``cfg``'s model, flux, reconstruction and RK order are read.
    """

    def __init__(self, field: Field, cfg, halo=()):
        grid, model, recon = field.grid, cfg.model, cfg.recon
        data = field.data if field.data.ndim > grid.dim + 1 else field.data[:, None]
        want = (model.ncomp,) + grid.data_shape
        if data.dtype != np.float64 or data.shape[:1] + data.shape[2:] != want or (
            data.strides[-1] != data.itemsize
        ):
            raise ValueError(
                f"an Euler stack needs a float64 state of {model.ncomp} components on "
                f"{grid.data_shape}, contiguous along x, got {field.data.dtype} "
                f"{field.data.shape} with strides {field.data.strides}"
            )
        super().__init__(field, cfg, halo)
        self._kernel = face_kernel()
        self._copies = _halo_copies(data, halo)
        pad = 3 - grid.dim
        strides = [s // data.itemsize for s in data.strides]
        later = SSP_STAGES[cfg.rk_order]
        args = _StackArgs(
            u=data.ctypes.data, res=self.residual.ctypes.data, start=self.start.ctypes.data,
            maxima=self.maxima.ctypes.data, halo=self._copies.ctypes.data,
            copies=len(self._copies),
            ustr=(ctypes.c_long * 5)(*strides[:2], *(0,) * pad, *strides[2:]),
            ranks=data.shape[1], cells=(ctypes.c_long * 3)(*grid.cells, *(1,) * pad),
            dim=grid.dim, ghost=grid.ghost_width,
            weno=recon.kind is not ReconstructionKind.NONE, hllc=cfg.flux is FluxKind.HLLC,
            stages=1 + len(later),
            epsilon=recon.epsilon, gamma=model.gamma, gm1=model.gamma - 1.0,
            floor=POSITIVITY_FLOOR, delta=(ctypes.c_double * 3)(*grid.deltas, *(0.0,) * pad),
            a=(ctypes.c_double * 3)(0.0, *(a for a, _ in later)),
            b=(ctypes.c_double * 3)(0.0, *(b for _, b in later)),
        )
        args.d0, args.d1 = IDEAL_WEIGHTS.get(recon.kind, (0.0, 0.0))
        self._ref = ctypes.byref(args)
        # the line scratch of the caller and of the helper thread
        self._scratch = np.empty(2 * self._kernel.scratch(self._ref))
        args.scratch = self._scratch.ctypes.data
        self._args = args

    @property
    def stop(self) -> tuple:
        """``(axis, rank)`` of the line at which a residual stopped."""
        return self._args.stop_axis, self._args.stop_rank

    @property
    def stop_stage(self) -> int:
        """The stage (from 0) whose residual stopped ``step``."""
        return self._args.stop_stage

    def step(self, dt: float) -> int:
        """The whole step in one kernel call, shared with the kernel's
        helper thread on large stacks; see ``Stack``."""
        return self._kernel.step(self._ref, dt)

    def compute_residual(self) -> int:
        """Sweep every axis into ``residual``, the first sweep checking that
        every interior cell is physical.  Returns 0, or the ``SWEEP_*``
        status of the first line that failed (see ``stop``); ``residual`` is
        then partly updated."""
        return self._kernel.residual(self._ref)

    def cell_pass(self) -> int:
        """The maxima are |m_k / rho| + c, rounded as
        ``equations.max_wave_speeds``; after a failure they are meaningless."""
        return self._kernel.cells(self._ref)
