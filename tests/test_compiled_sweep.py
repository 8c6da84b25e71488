"""The compiled Euler face sweep (``_faces.c``) against the numpy sweep on
whole runs, and its loader: fallback without a compiler and the library
cache.
"""

import re

import numpy as np
import pytest

from conslaw import numerics
from conslaw.cli import main
from conslaw.errors import SimulationError
from conslaw.iodsl.output import read_snapshot
from conslaw.numerics import FluxKind, ReconstructionKind
from conslaw.presets import KH2D, KH3D, SOD
from conslaw.solver import spatial_residual
from test_face_kernel import make_case, random_prim

needs_kernel = pytest.mark.skipif(
    numerics.face_kernel() is None, reason="no C compiler for the face sweep"
)


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
    "kh2d-32": (_kh(32), None),
    "kh2d-32-2x1": (_kh(32), "2x1"),
    "kh2d-32-2x2": (_kh(32), "2x2"),
    "kh2d-32-rusanov-weno2": (_kh(32, "rusanov", "weno2"), None),
    "kh2d-32-hllc-none-2x2": (_kh(32, "hllc", "none"), "2x2"),
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


@needs_kernel
@pytest.mark.parametrize("case", RUNS)
def test_runs_are_bitwise_equal_on_both_face_paths(case, tmp_path, monkeypatch, capsys):
    text, ranks = RUNS[case]
    compiled = _run(tmp_path, "compiled", text, ranks, capsys)
    with monkeypatch.context() as m:
        m.setattr(numerics, "face_kernel", lambda: None)
        plain = _run(tmp_path, "numpy", text, ranks, capsys)
    assert "face_kernel: compiled" in (compiled / "summary.txt").read_text()
    assert "face_kernel: numpy" in (plain / "summary.txt").read_text()
    snaps = sorted(p.name for p in compiled.glob("*.snap"))
    assert "final.snap" in snaps
    assert snaps == sorted(p.name for p in plain.glob("*.snap"))
    for name in snaps:
        a = read_snapshot(compiled / name)[0].interior
        b = read_snapshot(plain / name)[0].interior
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert _dt_series(compiled) == _dt_series(plain)


def test_compiled_and_numpy_sweeps_disagreeing_is_an_error(monkeypatch):
    # a kernel that stops where the numpy sweep passes
    field, cfg = make_case(
        random_prim(np.random.default_rng(2), (4, 6)), FluxKind.HLLC, ReconstructionKind.WENO3
    )
    monkeypatch.setattr(numerics, "face_kernel", lambda: (lambda *args: 1))
    with pytest.raises(
        SimulationError,
        match=r"^compiled and numpy face sweeps disagree on axis 0: the compiled one "
        r"stopped with status 1, the numpy one passes$",
    ):
        spatial_residual(field, cfg)


def test_a_sweep_out_of_memory_is_a_memory_error(monkeypatch):
    # a kernel that cannot allocate its line buffers (STATUS_NOMEM in _faces.c)
    field, cfg = make_case(
        random_prim(np.random.default_rng(2), (4, 6)), FluxKind.HLLC, ReconstructionKind.WENO3
    )
    monkeypatch.setattr(numerics, "face_kernel", lambda: (lambda *args: 3))
    with pytest.raises(MemoryError, match="on axis 0 could not allocate"):
        spatial_residual(field, cfg)


@needs_kernel
def test_the_sweep_rejects_arrays_that_do_not_fit_the_grid():
    field, cfg = make_case(
        random_prim(np.random.default_rng(4), (4, 6)), FluxKind.HLLC, ReconstructionKind.WENO3
    )
    grid = field.grid
    wrong_shape, wrong_dtype = np.zeros((4, 4, 5)), np.zeros((4, 4, 6), dtype=np.float32)
    for state, out in ((field.data, wrong_shape), (field.data[..., 1:], np.zeros((4, 4, 6))),
                       (field.data, wrong_dtype)):
        with pytest.raises(ValueError, match="sweep of axis 0|must be float64"):
            numerics.euler_face_sweep(
                cfg.model, cfg.flux, cfg.recon, state, out, 0,
                grid.ghost_width, grid.cells, grid.deltas[0],
            )


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
def test_no_compiler_gives_the_numpy_path_with_equal_bits(tmp_path, monkeypatch, missing):
    reference = _residuals(monkeypatch, None)
    if missing == "compiler":
        monkeypatch.setattr(numerics.shutil, "which", lambda name: None)
    else:
        # an installed package without its C source
        monkeypatch.setattr(numerics, "_SOURCE", tmp_path / "_faces.c")
    kernel = numerics._load_face_kernel(tmp_path)
    assert kernel is None
    assert list(tmp_path.iterdir()) == []
    assert _same_bits(_residuals(monkeypatch, kernel), reference)


@needs_kernel
def test_failing_compile_gives_the_numpy_path(tmp_path, monkeypatch):
    broken = tmp_path / "_faces.c"
    broken.write_text("int euler_sweep(void) { return }\n")
    monkeypatch.setattr(numerics, "_SOURCE", broken)
    cache = tmp_path / "cache"
    assert numerics._load_face_kernel(cache) is None
    # no library and no half-written temporary is left behind
    assert list(cache.iterdir()) == []


@needs_kernel
@pytest.mark.parametrize("damage", ["empty", "header", "half", "garbled"])
def test_a_damaged_cached_library_is_rebuilt(tmp_path, monkeypatch, damage):
    # a library that loads, in a directory of its own; it is never damaged
    # in place, since this process keeps it mapped
    good_dir = tmp_path / "good"
    reference = _residuals(monkeypatch, numerics._load_face_kernel(good_dir))
    (good,) = good_dir.glob("faces-*.so")
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
    assert kernel is not None
    assert damaged.read_bytes() == blob
    assert _same_bits(_residuals(monkeypatch, kernel), reference)
    assert _same_bits(_residuals(monkeypatch, None), reference)


@needs_kernel
def test_an_unwritable_cache_builds_in_a_private_directory(tmp_path, monkeypatch):
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
    assert kernel is not None
    assert list(cache.iterdir()) == []
    # the private directory is gone once the library is loaded
    assert len(private) == 1 and not numerics.Path(private[0]).exists()
    assert _same_bits(_residuals(monkeypatch, kernel), _residuals(monkeypatch, None))
