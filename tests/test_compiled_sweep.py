"""The compiled Euler face sweep (``_faces.c``) against the face-by-face
reference on whole runs, its failure statuses, the checks of its arguments,
and its loader: the compiler requirement and the library cache.
"""

import hashlib
import platform
import re
import sys

import numpy as np
import pytest

from conslaw import numerics, solver
from conslaw.cli import main
from conslaw.errors import ConfigError, SimulationError
from conslaw.grid import Field
from conslaw.iodsl.output import read_snapshot
from conslaw.numerics import EulerStack, FluxKind, ReconstructionKind
from conslaw.presets import KH2D, KH3D, SOD
from conslaw.solver import spatial_residual
from oracles import reference_euler_residual
from test_cli import small_kh
from test_face_kernel import make_case, random_prim, reference_step


def _scheme(text, flux, recon):
    text = re.sub(r"(?m)^flux = .*$", f"flux = {flux}", text)
    return re.sub(r"(?m)^reconstruction = .*$", f"reconstruction = {recon}", text)


def _kh(cells, flux="hllc", recon="weno3"):
    text = KH2D.replace("cells = 64 64", f"cells = {cells} {cells}")
    return _scheme(text.replace("t_end = 2.0", "t_end = 0.1"), flux, recon)


def _sod(flux="hllc", recon="weno2"):
    text = SOD.replace("cells = 400", "cells = 100").replace("t_end = 0.2", "t_end = 0.05")
    return _scheme(text.replace("snapshot_times = 0.2", "snapshot_times = 0.02"), flux, recon)


def _kh3d(cells):
    text = KH3D.replace("cells = 32 32 32", f"cells = {cells} {cells} {cells}")
    return text.replace("t_end = 1.0", "t_end = 0.05")


# (config text, --ranks) of the whole-run comparisons
RUNS = {
    "kh2d-16": (_kh(16), None),
    "kh2d-16-2x1": (_kh(16), "2x1"),
    "kh2d-16-2x2": (_kh(16), "2x2"),
    "kh2d-16-rusanov-weno2": (_kh(16, "rusanov", "weno2"), None),
    "kh2d-16-hllc-none-2x2": (_kh(16, "hllc", "none"), "2x2"),
    "sod": (_sod(), None),
    "sod-rusanov-weno3": (_sod("rusanov", "weno3"), None),
    "kh3d-8": (_kh3d(8), None),
    "kh3d-8-2x1x2": (_kh3d(8), "2x1x2"),
}


def _run(tmp_path, name, text, ranks, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    out = tmp_path / name
    args = ["run", str(cfg), "--output", str(out)] + (["--ranks", ranks] if ranks else [])
    assert main(args) == 0
    capsys.readouterr()
    return out


def _dt_series(out):
    lines = [l for l in (out / "timing.csv").read_text().splitlines() if not l.startswith("#")]
    return [l.split(",")[:3] for l in lines]


def _reference_residual(field, cfg):
    """``oracles.reference_euler_residual`` of a field or of each subdomain
    of a stack (a rank axis after the components)."""
    grid = field.grid
    args = (grid.ghost_width, grid.deltas, cfg.model.gamma, cfg.flux.value,
            cfg.recon.kind.value, cfg.recon.epsilon)
    if field.data.ndim == grid.dim + 1:
        return reference_euler_residual(field.data, *args)
    ranks = range(field.data.shape[1])
    return np.stack([reference_euler_residual(field.data[:, r], *args) for r in ranks], axis=1)


@pytest.mark.parametrize("case", RUNS)
def test_runs_are_bitwise_equal_to_the_face_by_face_reference(
    case, tmp_path, monkeypatch, capsys
):
    # every step of the run made stage by stage by oracles.per_stage_step
    # (the numpy halo pass, the face-by-face residual and the combination
    # rounded as ssp_rk_advance) instead of by the kernel: the same
    # snapshots, bit for bit, and the same steps
    text, ranks = RUNS[case]
    compiled = _run(tmp_path, "compiled", text, ranks, capsys)
    calls = []

    def reference(stack):
        # the combination reads the residual from the run's stack
        calls.append(stack.data.shape)
        stack.residual[...] = _reference_residual(stack, stack.cfg)
        return 0

    with monkeypatch.context() as m:
        m.setattr(EulerStack, "step", lambda stack, dt: reference_step(stack, dt, reference)[0])
        plain = _run(tmp_path, "reference", text, ranks, capsys)
    assert calls
    snaps = sorted(p.name for p in compiled.glob("*.snap"))
    assert "final.snap" in snaps
    assert snaps == sorted(p.name for p in plain.glob("*.snap"))
    for name in snaps:
        a = read_snapshot(compiled / name)[0].interior
        b = read_snapshot(plain / name)[0].interior
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert len(_dt_series(compiled)) > 1
    assert _dt_series(compiled) == _dt_series(plain)


def test_a_sweep_stopping_on_physical_faces_is_an_error(monkeypatch):
    # a kernel that reports an unphysical face where every face is physical
    field, cfg = make_case(
        random_prim(np.random.default_rng(2), (4, 6)), FluxKind.HLLC, ReconstructionKind.WENO3
    )
    kernel = numerics.face_kernel()._replace(residual=lambda *args: 1)
    monkeypatch.setattr(numerics, "face_kernel", lambda: kernel)
    with pytest.raises(
        SimulationError,
        match=r"^the compiled face sweep on axis 0 stopped with status 1 on physical "
        r"face states$",
    ):
        spatial_residual(field, cfg)


@pytest.mark.parametrize("stop", ["unphysical", "degenerate"])
def test_the_sweep_returns_the_status_of_its_stop(stop):
    field, cfg = make_case(
        random_prim(np.random.default_rng(6), (6,)), FluxKind.HLLC, ReconstructionKind.WENO3
    )
    if stop == "unphysical":
        # a ghost with negative total energy; status 1 is STATUS_UNPHYSICAL
        field.data[:, 1] = [1.0, 0.0, -1.0]
        want = 1
    else:
        # infinitely dense gas at rest: no sound speed, sL == sR
        field.data[0] = np.inf
        field.data[1] = 0.0
        want = numerics.SWEEP_DEGENERATE
    stack = EulerStack(field, cfg)
    with np.errstate(invalid="ignore"):
        assert stack.compute_residual() == want
    # a state without a rank axis is rank 0
    assert stack.stop == (0, 0)


def test_a_stack_rejects_arrays_that_do_not_fit_the_grid():
    field, cfg = make_case(
        random_prim(np.random.default_rng(4), (4, 6)), FluxKind.HLLC, ReconstructionKind.WENO3
    )
    # the state as a view with an x stride of two elements
    strided = np.zeros(field.data.shape[:-1] + (2 * field.data.shape[-1],))[..., ::2]
    strided[...] = field.data
    for state in (field.data[..., 1:], field.data[:3], field.data.astype(np.float32), strided):
        with pytest.raises(ValueError, match="^an Euler stack needs a float64 state of 4 "):
            EulerStack(Field(field.grid, field.ncomp, state), cfg)


# ---------------------------------------------------------------------------
# The loader
# ---------------------------------------------------------------------------


def _residuals(monkeypatch, kernel):
    """Residuals of a few 2D cases with ``kernel`` as the face sweep."""
    monkeypatch.setattr(numerics, "face_kernel", lambda: kernel)
    rng = np.random.default_rng(9)
    out = []
    for flux in FluxKind:
        for recon in ReconstructionKind:
            field, cfg = make_case(random_prim(rng, (5, 7)), flux, recon)
            out.append(spatial_residual(field, cfg))
    return out


def _same_bits(a, b):
    return all(np.array_equal(x.view(np.int64), y.view(np.int64)) for x, y in zip(a, b))


@pytest.mark.parametrize("missing", ["compiler", "source"])
def test_a_missing_compiler_or_source_is_a_config_error(tmp_path, monkeypatch, missing):
    if missing == "compiler":
        monkeypatch.setattr(numerics.shutil, "which", lambda name: None)
        message = r"^Euler runs need a C compiler to build the face sweep: found neither gcc nor cc$"
    else:
        # an installed package without its C source
        monkeypatch.setattr(numerics, "_SOURCE", tmp_path / "_faces.c")
        message = r"^Euler runs need the face sweep source, but .*_faces\.c is missing$"
    with pytest.raises(ConfigError, match=message):
        numerics._load_face_kernel(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_a_failing_compile_is_a_config_error(tmp_path, monkeypatch):
    broken = tmp_path / "_faces.c"
    broken.write_text("int euler_residual(void) { return }\n")
    monkeypatch.setattr(numerics, "_SOURCE", broken)
    cache = tmp_path / "cache"
    # the message carries the compiler's own diagnostic
    with pytest.raises(
        ConfigError,
        match=r"^Euler runs need the face sweep, but building or loading _faces\.c with "
        r"\S+ failed: (?s:.*)error",
    ):
        numerics._load_face_kernel(cache)
    # no library and no half-written temporary is left behind
    assert list(cache.iterdir()) == []


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """No C compiler on the path and no face sweep loaded yet; the value is
    the cache directory ``numerics.face_kernel`` builds into."""
    cache = tmp_path / "kernel-cache"
    monkeypatch.setattr(numerics.shutil, "which", lambda name: None)
    monkeypatch.setattr(numerics, "_CACHE_DIR", cache)
    numerics.face_kernel.cache_clear()
    yield cache
    numerics.face_kernel.cache_clear()


@pytest.mark.parametrize("command", ["run", "uq"])
def test_euler_without_a_compiler_exits_2_before_any_step(
    command, no_compiler, tmp_path, monkeypatch, capsys
):
    steps = []
    monkeypatch.setattr(solver, "ssp_rk_step", lambda *args: steps.append(args))
    cfg = small_kh(tmp_path)
    assert main([command, str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "error: Euler runs need a C compiler" in capsys.readouterr().err
    assert steps == []
    assert not no_compiler.exists()


def test_a_burgers_run_needs_no_compiler(no_compiler, tmp_path, capsys):
    cfg = tmp_path / "burgers.cfg"
    cfg.write_text(
        "[grid]\ncells = 16\n\n[scheme]\nequation = burgers\nt_end = 0.05\n\n"
        "[initial]\nu = 1 + 0.5 * sin(6.283185307179586 * x)\n"
    )
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0
    assert "steps:" in capsys.readouterr().out
    assert not no_compiler.exists()


@pytest.fixture(scope="session")
def good_library(tmp_path_factory):
    """A kernel built and loaded from a directory of its own, once per
    session for the rebuild cases (a build takes seconds), and its library
    file; it is never damaged in place, since this process keeps it mapped."""
    good_dir = tmp_path_factory.mktemp("good")
    kernel = numerics._load_face_kernel(good_dir)
    (good,) = good_dir.glob("faces-*.so")
    return kernel, good


@pytest.fixture
def stub_compiler(tmp_path, monkeypatch, good_library):
    """The only C compiler on the path: a script that writes the session's
    build of ``good_library`` to its ``-o`` path, as gcc writes it for the
    same source and flags, and logs each call.  The value is the log.  The
    package's own kernel is loaded first, by the real compiler if it is not
    cached."""
    numerics.face_kernel()
    _kernel, good = good_library
    built = tmp_path / "built.so"
    # the library as the compiler wrote it, before the loader appended its sha256
    built.write_bytes(good.read_bytes()[:-32])
    log = tmp_path / "compiler.log"
    stub = tmp_path / "cc"
    stub.write_text(
        f'#!/bin/sh\necho "$@" >> "{log}"\n'
        f'while [ "$1" != -o ]; do shift; done\ncp "{built}" "$2"\n'
    )
    stub.chmod(0o755)
    monkeypatch.setattr(numerics.shutil, "which", lambda name: str(stub))
    return log


def _builds(log):
    """The compiler calls in the stub's log, each naming the source."""
    calls = log.read_text().splitlines() if log.exists() else []
    assert all(str(numerics._SOURCE) in call for call in calls)
    return len(calls)


@pytest.mark.parametrize("damage", ["empty", "header", "half", "garbled"])
def test_a_damaged_cached_library_is_rebuilt(
    tmp_path, monkeypatch, damage, good_library, stub_compiler
):
    good_kernel, good = good_library
    reference = _residuals(monkeypatch, good_kernel)
    blob = good.read_bytes()
    # the same cache entry, damaged, where no process has loaded it from
    cache = tmp_path / "cache"
    cache.mkdir()
    damaged = cache / good.name
    half = len(blob) // 2
    damaged.write_bytes({
        "empty": b"",
        "header": blob[:100],
        "half": blob[:half],
        "garbled": blob[:half] + bytes(64) + blob[half + 64 :],
    }[damage])
    kernel = numerics._load_face_kernel(cache)
    assert _builds(stub_compiler) == 1
    assert damaged.read_bytes() == blob
    assert _same_bits(_residuals(monkeypatch, kernel), reference)


def test_an_unwritable_cache_builds_in_a_private_directory(tmp_path, monkeypatch, stub_compiler):
    cache = tmp_path / "cache"
    cache.mkdir()
    access = numerics.os.access
    monkeypatch.setattr(
        numerics.os, "access", lambda path, mode: path != cache and access(path, mode)
    )
    private = []
    mkdtemp = numerics.tempfile.mkdtemp
    monkeypatch.setattr(
        numerics.tempfile, "mkdtemp",
        lambda **kw: private.append(mkdtemp(dir=tmp_path, **kw)) or private[-1],
    )
    kernel = numerics._load_face_kernel(cache)
    assert _builds(stub_compiler) == 1
    assert list(cache.iterdir()) == []
    # the private directory is gone once the library is loaded
    assert len(private) == 1 and not numerics.Path(private[0]).exists()
    # the same bits as a second kernel, the package's own
    other = numerics.face_kernel()
    assert _same_bits(_residuals(monkeypatch, kernel), _residuals(monkeypatch, other))


def test_a_build_deletes_the_libraries_of_other_sources_only(tmp_path, good_library,
                                                             stub_compiler):
    _kernel, good = good_library
    _, source, build = good.stem.split("-")
    cache = tmp_path / "cache"
    cache.mkdir()
    other_source = cache / f"faces-{'0' * 16}-{build}.so"
    unsplit = cache / f"faces-{'1' * 32}.so"  # a name without the source part
    other_cpu = cache / f"faces-{source}-{'2' * 16}.so"
    in_flight = cache / f"faces-{'3' * 16}-{build}.so.123.tmp"
    for planted in (other_source, unsplit, other_cpu, in_flight):
        planted.write_bytes(b"planted")
    numerics._load_face_kernel(cache)
    assert _builds(stub_compiler) == 1
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [good.name, other_cpu.name, in_flight.name]
    )
    # a cache hit deletes nothing
    other_source.write_bytes(b"planted")
    numerics._load_face_kernel(cache)
    assert _builds(stub_compiler) == 1
    assert other_source.exists()


def test_the_library_name_and_trailer_are_hashlibs_sha256(tmp_path, good_library,
                                                          stub_compiler):
    _kernel, good = good_library
    source = hashlib.sha256(numerics._SOURCE.read_bytes()).hexdigest()[:16]
    build = hashlib.sha256(
        " ".join(numerics._CFLAGS).encode() + platform.machine().encode()
        + numerics._host_cpu()
    ).hexdigest()[:16]
    # the name a library got when the loader hashed with hashlib
    assert good.name == f"faces-{source}-{build}.so"
    # a library cached with hashlib's trailer is intact and loads unbuilt
    body = good.read_bytes()[:-32]
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / good.name).write_bytes(body + hashlib.sha256(body).digest())
    assert numerics._intact(cache / good.name)
    numerics._load_face_kernel(cache)
    assert _builds(stub_compiler) == 0


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or not (3, 10) <= sys.version_info[:2] <= (3, 13),
    reason="CPython 3.10 to 3.13 ship _sha256 or _sha2",
)
def test_sha256_is_cpythons_builtin_not_openssls():
    assert numerics.sha256.__module__ in ("_sha2", "_sha256")
