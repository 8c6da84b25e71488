import re
import threading

import numpy as np

import conslaw.cli
from conslaw.cli import _level_grids, main
from conslaw.iodsl import eval_init
from conslaw.iodsl.config import parse_config
from conslaw.iodsl.output import read_snapshot
from conslaw.presets import KH2D, PRESETS, SOD
from conslaw.uq import MlmcPlan, run_mlmc


def small_sod(tmp_path, cells=64):
    text = SOD.replace("cells = 400", f"cells = {cells}").replace(
        "t_end = 0.2", "t_end = 0.05"
    ).replace("snapshot_times = 0.2", "snapshot_times = 0.05")
    path = tmp_path / "sod.cfg"
    path.write_text(text)
    return path


def small_kh(tmp_path, cells=16, t_end=0.02, extra=""):
    text = KH2D.replace("cells = 64 64", f"cells = {cells} {cells}").replace(
        "t_end = 2.0", f"t_end = {t_end}"
    ).replace("samples = 8", "samples = 4").replace(
        "functionals = moments", "functionals = moments\n" + extra
    )
    path = tmp_path / "kh.cfg"
    path.write_text(text)
    return path


def strip_timestamps(data: bytes) -> bytes:
    return re.sub(rb"(?m)^#? ?created:.*$", b"", data)


def test_preset_emits_parseable_configs(tmp_path, capsys):
    for name in PRESETS:
        assert main(["preset", name]) == 0
        parse_config(capsys.readouterr().out)


def test_preset_writes_file(tmp_path):
    out = tmp_path / "sod.cfg"
    assert main(["preset", "sod", "--output", str(out)]) == 0
    assert parse_config(out.read_text()).grid.cells == (400,)


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["run"]) == 2
    assert main(["preset", "no-such-preset"]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\nzells = 4\n")
    assert main(["bench", str(bad)]) == 2
    capsys.readouterr()


def test_run_writes_outputs(tmp_path, capsys):
    cfg = small_sod(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    final, meta = read_snapshot(out / "final.snap")
    assert final.grid.cells == (64,)
    assert meta["components"] == "rho mx E"
    assert meta["config_digest"] == parse_config(cfg.read_text()).digest
    snap, _ = read_snapshot(out / "snapshot_t0.05.snap")
    np.testing.assert_array_equal(snap.interior, final.interior)
    timing = (out / "timing.csv").read_text().splitlines()
    assert "step,t,dt,seconds" in timing
    assert "conservation_drift" in (out / "summary.txt").read_text()
    assert "steps:" in capsys.readouterr().out


def test_run_output_dir_from_environment(tmp_path, monkeypatch, capsys):
    cfg = small_sod(tmp_path)
    monkeypatch.setenv("CONSLAW_OUTPUT_DIR", str(tmp_path / "env-out"))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "env-out" / "final.snap").exists()
    capsys.readouterr()


def test_run_output_dir_is_relative_to_the_config_file(tmp_path, monkeypatch, capsys):
    # [output] directory of the sod preset is out-sod
    cfgdir, workdir = tmp_path / "cfgdir", tmp_path / "work"
    cfgdir.mkdir()
    workdir.mkdir()
    cfg = small_sod(cfgdir)
    monkeypatch.delenv("CONSLAW_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(workdir)
    assert main(["run", "../cfgdir/sod.cfg"]) == 0
    assert (cfgdir / "out-sod" / "final.snap").exists()
    assert not (workdir / "out-sod").exists()
    # --output stays relative to the working directory
    assert main(["run", str(cfg), "--output", "here"]) == 0
    assert (workdir / "here" / "final.snap").exists()
    capsys.readouterr()


def test_run_decomposed_matches_serial(tmp_path, capsys):
    cfg = small_kh(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--output", str(a)]) == 0
    assert main(["run", str(cfg), "--ranks", "2x2", "--output", str(b)]) == 0
    fa, _ = read_snapshot(a / "final.snap")
    fb, _ = read_snapshot(b / "final.snap")
    np.testing.assert_array_equal(fa.interior, fb.interior)
    capsys.readouterr()


def test_run_decomposed_writes_the_serial_snapshots(tmp_path, capsys):
    cfg = small_kh(tmp_path)
    cfg.write_text(cfg.read_text().replace("snapshot_times = 2.0", "snapshot_times = 0.01 0.02"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--output", str(a)]) == 0
    assert main(["run", str(cfg), "--ranks", "2x1", "--output", str(b)]) == 0
    names = sorted(p.name for p in a.glob("snapshot_t*.snap"))
    assert names == ["snapshot_t0.01.snap", "snapshot_t0.02.snap"]
    assert sorted(p.name for p in b.glob("snapshot_t*.snap")) == names
    for name in names:
        assert strip_timestamps((a / name).read_bytes()) == strip_timestamps(
            (b / name).read_bytes()
        )
    capsys.readouterr()


def test_run_bad_rank_layout_exits_2(tmp_path, capsys):
    cfg = small_kh(tmp_path)
    assert main(["run", str(cfg), "--ranks", "2x2x2"]) == 2
    assert main(["run", str(cfg), "--ranks", "abc"]) == 2
    capsys.readouterr()


def test_uq_outputs_identical_across_reruns_and_workers(tmp_path, capsys):
    cfg = small_kh(tmp_path)
    outs = []
    for tag, workers in (("u1", "1"), ("u2", "1"), ("u4", "4")):
        out = tmp_path / tag
        assert main(["uq", str(cfg), "--output", str(out), "--workers", workers]) == 0
        outs.append(out)
    ref = {p.name: strip_timestamps(p.read_bytes()) for p in outs[0].iterdir()}
    for out in outs[1:]:
        got = {p.name: strip_timestamps(p.read_bytes()) for p in out.iterdir()}
        assert got == ref
    capsys.readouterr()


def test_uq_without_uq_section_exits_2(tmp_path, capsys):
    cfg = small_sod(tmp_path)
    assert main(["uq", str(cfg), "--output", str(tmp_path / "x")]) == 2
    capsys.readouterr()


def test_uq_extra_functionals(tmp_path, capsys):
    extra = (
        "histogram_component = 0\n"
        "histogram_points = 0.5 0.5\n"
        "histogram_range = 0.5 2.5\n"
        "histogram_bins = 8\n"
        "structure_p = 2\n"
        "structure_max_offset = 4\n"
    )
    cfg_text = KH2D.replace("cells = 64 64", "cells = 16 16").replace(
        "t_end = 2.0", "t_end = 0.02"
    ).replace("samples = 8", "samples = 3").replace(
        "functionals = moments",
        "functionals = moments histogram structure_function\n" + extra,
    )
    cfg = tmp_path / "kh.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "out"
    assert main(["uq", str(cfg), "--output", str(out)]) == 0
    hist = (out / "histogram.csv").read_text()
    assert "probe,bin_lo,bin_hi,count" in hist
    counts = [int(l.rsplit(",", 1)[1]) for l in hist.splitlines()
              if l and not l.startswith(("#", "probe"))]
    assert sum(counts) == 3  # one count per sample per probe
    sf = (out / "structure_function.csv").read_text()
    assert "offset,value" in sf
    assert (out / "mean.snap").exists() and (out / "variance.snap").exists()
    capsys.readouterr()


def test_uq_multilevel(tmp_path, capsys):
    extra = "levels = 2\nlevel_samples = 4 2\n"
    cfg = small_kh(tmp_path, extra=extra)
    out = tmp_path / "out"
    assert main(["uq", str(cfg), "--output", str(out)]) == 0
    mean, meta = read_snapshot(out / "mean.snap")
    assert mean.grid.cells == (16, 16)
    assert np.isfinite(mean.interior).all()
    capsys.readouterr()


def test_uq_multilevel_writes_the_mlmc_variance_bitwise(tmp_path, capsys):
    cfg_path = small_kh(tmp_path, extra="levels = 2\nlevel_samples = 4 2\n")
    # at 16x16 the preset's 0.01 interface perturbation crosses no cell
    # centre, so the samples would coincide; 0.1 makes every cell vary
    cfg_path.write_text(cfg_path.read_text().replace("0.01 *", "0.1 *"))
    out = tmp_path / "out"
    assert main(["uq", str(cfg_path), "--output", str(out)]) == 0
    cfg = parse_config(cfg_path.read_text())
    plan = MlmcPlan(
        grids=_level_grids(cfg.grid, 2), samples_per_level=(4, 2),
        method=cfg.uq.method, seed=cfg.uq.seed, stochastic_dim=cfg.uq.stochastic_dim,
    )

    def evaluate_init(grid, vector):
        return eval_init(
            cfg.initial_exprs, cfg.scheme.model, grid, vector,
            primitive=cfg.initial_primitive,
        )

    want = run_mlmc(plan, lambda g: cfg.scheme, evaluate_init)
    mean, _ = read_snapshot(out / "mean.snap")
    variance, _ = read_snapshot(out / "variance.snap")
    np.testing.assert_array_equal(mean.interior, want.mean)
    np.testing.assert_array_equal(variance.interior, want.variance)
    capsys.readouterr()


def test_uq_reports_negative_mlmc_variance(tmp_path, monkeypatch, capsys):
    # a constant state per sample stays constant, so the QMC estimate is exact
    # arithmetic: level 0 draws 0.5 and 0.25 on the coarse grid, level 1 draws
    # 0.5 and spreads it on the coarse grid only, and the telescoped variance
    # comes out at -0.109375 in every cell
    cfg = tmp_path / "spread.cfg"
    cfg.write_text(
        "[grid]\ncells = 8\norigin = 0\nextent = 1\n\n"
        "[scheme]\nequation = advection\nadvection_speed = 1\nflux = rusanov\n"
        "reconstruction = none\nrk_order = 1\nt_end = 0.05\nboundary = periodic\n\n"
        "[initial]\nu = 1 + X0\n\n"
        "[uq]\nmethod = qmc\nstochastic_dim = 1\nlevels = 2\nlevel_samples = 2 1\n"
    )
    real_eval_init = conslaw.cli.eval_init

    def coarse_spreads_more(exprs, model, grid, vector, primitive=True):
        if grid.cells == (8,):
            vector = np.zeros_like(vector)
        return real_eval_init(exprs, model, grid, vector, primitive=primitive)

    monkeypatch.setattr(conslaw.cli, "eval_init", coarse_spreads_more)
    out = tmp_path / "out"
    assert main(["uq", str(cfg), "--output", str(out)]) == 0
    assert "MLMC variance is negative in 8 of 8 cells" in capsys.readouterr().err
    variance, _ = read_snapshot(out / "variance.snap")
    np.testing.assert_array_equal(variance.interior, np.full((1, 8), -0.109375))


def test_uq_worker_flag_is_checked_like_the_config_key(tmp_path, capsys):
    cfg = small_kh(tmp_path)
    for workers in ("0", "-3"):
        assert main(["uq", str(cfg), "--output", str(tmp_path / "x"), "--workers", workers]) == 2
        assert "worker count must be >= 1" in capsys.readouterr().err
    cfg.write_text(cfg.read_text().replace("workers = 1", "workers = 0"))
    assert main(["uq", str(cfg), "--output", str(tmp_path / "x")]) == 2
    assert "worker count must be >= 1" in capsys.readouterr().err


def test_uq_starts_no_thread(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError(f"uq started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for tag, extra in (("mc", ""), ("mlmc", "levels = 2\nlevel_samples = 2 2\n")):
        cfg = small_kh(tmp_path, cells=8, extra=extra)
        out = tmp_path / tag
        assert main(["uq", str(cfg), "--output", str(out), "--workers", "4"]) == 0
    capsys.readouterr()


def test_bench_emits_csvs(tmp_path, capsys):
    cfg = small_kh(tmp_path, cells=8)
    out = tmp_path / "bench"
    assert main([
        "bench", str(cfg), "--ranks", "1,2", "--layout", "multix",
        "--steps", "6", "--output", str(out),
    ]) == 0
    lines = [
        l for l in (out / "bench.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert lines[0] == "ranks,layout,cells_per_rank,step,seconds"
    assert len(lines) == 1 + 2 * 6
    assert all(l.split(",")[1] == "multix" for l in lines[1:])
    assert all(l.split(",")[2] == "64" for l in lines[1:])
    over = [
        l for l in (out / "overhead.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert over[0] == "ranks,layout,mean_seconds,overhead_fraction"
    # each rank count's mean over the steps after the 5 warmup steps, and
    # its excess over the single-rank mean, relative to that mean
    means = {}
    for K in (1, 2):
        seconds = [float(l.split(",")[4]) for l in lines[1:] if l.split(",")[0] == str(K)]
        means[K] = sum(seconds[5:]) / len(seconds[5:])
    for row in over[1:]:
        K, layout, mean, fraction = row.split(",")
        assert layout == "multix"
        assert float(mean) == means[int(K)]
        assert float(fraction) == (means[int(K)] - means[1]) / means[1]
    capsys.readouterr()


def test_bench_rejects_fewer_than_one_step(tmp_path, capsys):
    cfg = small_kh(tmp_path, cells=8)
    for steps in ("0", "-3"):
        assert main([
            "bench", str(cfg), "--ranks", "1", "--steps", steps,
            "--output", str(tmp_path / "x"),
        ]) == 2
        assert "--steps must be >= 1" in capsys.readouterr().err


def test_bench_3d_layout_on_2d_config_exits_2(tmp_path, capsys):
    cfg = small_kh(tmp_path, cells=8)
    assert main([
        "bench", str(cfg), "--ranks", "1,8", "--layout", "multixmultiymultiz",
        "--steps", "2", "--output", str(tmp_path / "x"),
    ]) == 2
    capsys.readouterr()
