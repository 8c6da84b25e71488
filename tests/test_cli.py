import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import conslaw.cli
import conslaw.uq
from conslaw.cli import main
from conslaw.iodsl import eval_init
from conslaw.iodsl.config import parse_config
from conslaw.iodsl.output import read_snapshot
from conslaw.numerics import face_kernel
from conslaw.presets import KH2D, PRESETS, SOD
from conslaw.solver import TimeStepRecord
from conslaw.uq import FieldMoments, SamplePlan, level_grids as _level_grids, run_mlmc


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


def test_a_preset_file_in_a_missing_directory_exits_1_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "nodir" / "sod.cfg"
    assert main(["preset", "sod", "--output", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{path}'\n"
    )
    assert not path.parent.exists()


def test_run_output_under_a_regular_file_exits_1_without_a_traceback(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / "out"
    assert main(["run", str(small_sod(tmp_path, cells=16)), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{out}'\n"


@pytest.mark.parametrize("command", ["run", "uq", "bench"])
def test_an_output_path_under_a_regular_file_exits_1_before_the_first_step(
    tmp_path, monkeypatch, capsys, command
):
    def run_simulation(init, cfg, *args, **kwargs):
        raise AssertionError("a solve started")

    for module in (conslaw.cli, conslaw.uq):
        monkeypatch.setattr(module, "run_simulation", run_simulation)
    cfg = tmp_path / "kh2d.cfg"
    cfg.write_text(KH2D)  # 64 x 64 to t_end 2.0: the solve would take seconds
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / "deeper" / "out"
    assert main([command, str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{out}'\n"
    assert blocker.read_text() == ""


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


def test_run_summary_final_time_is_a_plain_number(tmp_path, capsys):
    cfg = small_sod(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    (line,) = [l for l in summary.splitlines() if l.startswith("final_time:")]
    assert float(line.split(":", 1)[1]) == 0.05
    assert line in capsys.readouterr().out


# (line of the KH2D preset, its replacement, the message that must follow
# "line N: ", where N is the last line of the replacement)
BAD_LINES = [
    ("extent = 1 1", "extent = 1 nan", r"extent must be finite and strictly positive"),
    ("extent = 1 1", "extent = 1 inf", r"extent must be finite and strictly positive"),
    # a subnormal cell width: its CFL quotient s / delta overflows, and dt is 0
    ("extent = 1 1", "extent = 1e-320 1",
     r"cell width extent / cells must be a normal double \(>= 2\.22507e-308\), "
     r"got \(1\.6e-322, 0\.015625\)$"),
    ("origin = 0 0", "origin = nan 0", r"origin must be finite"),
    ("gamma = 1.4", "gamma = nan", r"gamma must be finite and > 1, got nan"),
    ("gamma = 1.4", "gamma = 1", r"gamma must be finite and > 1, got 1\.0"),
    ("cfl = 0.475", "weno_epsilon = 0", r"weno_epsilon must be finite and > 0, got 0\.0"),
    # a value that is not a number is named once
    ("cfl = 0.475", "cfl = abc", r"'cfl' must be a number, got 'abc'$"),
    # each [uq] setting is checked once, at parse time, by the object that owns it
    ("seed = 42", "seed = -1", r"seed must lie in \[0, 2\*\*64\), got -1$"),
    ("samples = 8", "samples = 0", r"sample count must be >= 1, got 0$"),
    ("stochastic_dim = 4", "stochastic_dim = 0", r"stochastic_dim must be >= 1, got 0$"),
    ("stochastic_dim = 4", "stochastic_dim = 2",
     r"initial data uses random symbol X3 but stochastic_dim is 2$"),
    ("method = mc\nsamples = 8\nseed = 42\nstochastic_dim = 4",
     "method = qmc\nsamples = 8\nseed = 42\nstochastic_dim = 17",
     r"Halton supports up to 16 dimensions$"),
    ("functionals = moments", "functionals = moments\nlevels = 0", r"levels must be >= 1$"),
    ("functionals = moments", "functionals = moments\nlevels = 8",
     r"64 cells on axis 0 cannot be coarsened 7 times$"),
    ("functionals = moments", "levels = 2\nlevel_samples = 2 0",
     r"per-level sample counts must be >= 1$"),
    ("functionals = moments", "levels = 2\nlevel_samples = 4 2 1",
     r"level_samples needs 2 entries, got 3$"),
    ("functionals = moments", "levels = 2\nfunctionals = histogram",
     r"multilevel estimation supports only the 'moments' functional$"),
    # a functional's settings are checked whether or not it is selected
    ("functionals = moments", "functionals = moments\nhistogram_bins = 0",
     r"histogram needs >= 1 bins, got 0$"),
    ("functionals = moments", "functionals = moments\nhistogram_range = 1 0",
     r"histogram_range must be 'lo hi' with lo < hi, got \(1\.0, 0\.0\)$"),
    ("functionals = moments", "functionals = histogram\nhistogram_range = -inf inf",
     r"histogram_range must be 'lo hi' with lo < hi, got \(-inf, inf\)$"),
    # hi - lo overflows, or a bin is narrower than the smallest double
    ("functionals = moments", "functionals = histogram\nhistogram_range = -1e308 1e308",
     r"histogram bin width \(hi - lo\) / bins must be finite and > 0, got inf$"),
    ("functionals = moments", "functionals = histogram\nhistogram_range = 0 1e-322",
     r"histogram bin width \(hi - lo\) / bins must be finite and > 0, got 0\.0$"),
    ("functionals = moments", "functionals = histogram structure_function\nstructure_p = 0.5",
     r"structure-function exponent must be >= 1, got 0\.5$"),
    ("functionals = moments", "functionals = structure_function\nstructure_p = inf",
     r"structure-function exponent must be finite, got inf$"),
    ("functionals = moments", "functionals = moments\nstructure_max_offset = -1",
     r"max offset must be >= 0, got -1$"),
    ("snapshot_times = 2.0", "snapshot_times = 0.1 0.5 -1",
     r"snapshot_times must be finite and >= 0, got -1\.0$"),
    ("snapshot_times = 2.0", "snapshot_times = inf",
     r"snapshot_times must be finite and >= 0, got inf$"),
]


@pytest.mark.parametrize("old,new,message", BAD_LINES, ids=[b[1] for b in BAD_LINES])
def test_a_bad_value_exits_2_naming_its_line(old, new, message, tmp_path, capsys):
    text = KH2D.replace(old, new)
    line = 1 + text.splitlines().index(new.splitlines()[-1])
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert re.match(rf"^error: line {line}: {message}", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old,new,message", BAD_LINES, ids=[b[1] for b in BAD_LINES])
def test_uq_rejects_the_same_values_naming_their_line_before_any_solve(
    old, new, message, tmp_path, monkeypatch, capsys
):
    text = KH2D.replace(old, new)
    line = 1 + text.splitlines().index(new.splitlines()[-1])
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    solves = []
    monkeypatch.setattr(conslaw.uq, "run_simulation", lambda *a, **k: solves.append(a))
    assert main(["uq", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert re.match(rf"^error: line {line}: {message}", capsys.readouterr().err)
    assert solves == []


# (config text, the whole error message)
GRAMMAR_ERRORS = [
    ("[grid\ncells = 8\n", r"line 1: malformed section header"),
    ("[grid]\ncells 8\n", r"line 2: expected 'key = value', found 'cells 8'"),
    ("cells = 8\n[grid]\n", r"line 1: key outside any \[section\]"),
    ("[grid]\ncells = 8\ncells = 16\n", r"line 3: duplicate key 'cells'"),
    ("[grid]\ndim = 1\n", r"\[grid\] is missing required key 'cells'"),
]


@pytest.mark.parametrize("text,message", GRAMMAR_ERRORS, ids=[m for _, m in GRAMMAR_ERRORS])
def test_a_config_grammar_error_exits_2_with_its_message(text, message, tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert re.fullmatch(rf"error: {message}\n", capsys.readouterr().err)


def test_run_names_each_snapshot_time_past_t_end_and_writes_the_rest(tmp_path, capsys):
    cfg = small_sod(tmp_path)  # t_end = 0.05
    text = cfg.read_text().replace("snapshot_times = 0.05", "snapshot_times = 0.7 0.02 0.5")
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: snapshot time {t} lies past t_end 0.05, not written" for t in ("0.5", "0.7")
    ]
    assert [p.name for p in out.glob("snapshot_t*.snap")] == ["snapshot_t0.02.snap"]


def test_bad_uq_functional_setting_exits_2_before_any_sample(tmp_path, monkeypatch, capsys):
    # each bad setting of tests/test_iodsl.py is a ConfigError at parse time
    extra = "histogram_component = 7"
    cfg = small_kh(tmp_path, extra=extra)
    cfg.write_text(cfg.read_text().replace(
        "functionals = moments", "functionals = histogram structure_function"
    ))
    solves = []
    monkeypatch.setattr(conslaw.uq, "run_simulation", lambda *a, **k: solves.append(a))
    assert main(["uq", str(cfg), "--output", str(tmp_path / "out")]) == 2
    line = cfg.read_text().splitlines().index(extra) + 1
    assert f"error: line {line}: " in capsys.readouterr().err
    assert solves == []


def test_output_formats_key_is_unknown(tmp_path, capsys):
    cfg = small_sod(tmp_path)
    cfg.write_text(cfg.read_text().replace("[output]\n", "[output]\nformats = snapshot\n"))
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "unknown key 'formats' in [output]" in capsys.readouterr().err


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


def test_run_rank_flag_of_the_wrong_dimension_is_named_as_the_config_key_is(tmp_path, capsys):
    cfg = small_kh(tmp_path)
    assert main(["run", str(cfg), "--ranks", "2x2x2", "--output", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: rank layout (2, 2, 2) does not match grid dim 2\n"


def test_run_single_rank_count_splits_the_x_axis(tmp_path, monkeypatch, capsys):
    cfg = small_kh(tmp_path)
    layouts = []
    solve = conslaw.cli.run_simulation

    def recording(init, scheme, ranks, *args):
        layouts.append(ranks)
        return solve(init, scheme, ranks, *args)

    monkeypatch.setattr(conslaw.cli, "run_simulation", recording)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--ranks", "2", "--output", str(a)]) == 0
    assert main(["run", str(cfg), "--ranks", "2x1", "--output", str(b)]) == 0
    assert layouts == [(2, 1), (2, 1)]
    assert strip_timestamps((a / "final.snap").read_bytes()) == strip_timestamps(
        (b / "final.snap").read_bytes()
    )
    capsys.readouterr()


def test_run_bad_rank_layout_exits_2(tmp_path, capsys):
    cfg = small_kh(tmp_path)
    assert main(["run", str(cfg), "--ranks", "2x2x2"]) == 2
    assert main(["run", str(cfg), "--ranks", "abc"]) == 2
    capsys.readouterr()
    # the product of -1x-1 is 1, which must not pass for a serial layout
    for layout in ("-1x-1", "-2x-2"):
        assert main(["run", str(cfg), f"--ranks={layout}"]) == 2
        assert "ranks per axis must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1e-6", "nan", "inf", "1e200", "1e-200"])
def test_run_rejects_a_weno_epsilon_that_is_not_finite_and_positive(tmp_path, capsys, value):
    cfg = small_kh(tmp_path)
    cfg.write_text(cfg.read_text().replace(
        "reconstruction = weno3", f"reconstruction = weno3\nweno_epsilon = {value}"
    ))
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "weno_epsilon" in capsys.readouterr().err


MLMC = "levels = 2\nlevel_samples = 2 1\n"


@pytest.mark.parametrize("command,config_seed,flags,extra", [
    ("run", "-5", [], ""),
    ("uq", "-5", [], ""),
    ("uq", "-5", [], MLMC),
    ("run", "42", ["--seed=-1"], ""),
    ("uq", "42", ["--seed=-1"], ""),
    ("uq", "42", ["--seed=-1"], MLMC),
    ("uq", "42", [f"--seed={2 ** 64}"], ""),
], ids=["run-key", "mc-key", "mlmc-key", "run-flag", "mc-flag", "mlmc-flag", "mc-2**64"])
def test_seed_outside_uint64_exits_2_before_any_solve(
    tmp_path, monkeypatch, capsys, command, config_seed, flags, extra
):
    cfg = small_kh(tmp_path, extra=extra)
    cfg.write_text(cfg.read_text().replace("seed = 42", f"seed = {config_seed}"))
    solves = []
    for module in (conslaw.cli, conslaw.uq):
        monkeypatch.setattr(module, "run_simulation", lambda *a, **k: solves.append(a))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--output", str(out)] + flags) == 2
    assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
    assert solves == []


@pytest.mark.parametrize("command", ["run", "uq", "bench"])
def test_a_periodic_axis_thinner_than_the_ghost_layer_exits_2_without_output(
    tmp_path, capsys, command
):
    # WENO3 needs two ghost cells, and a periodic wrap copies that many
    # interior cells: one cell along x is a config error, not a failed stage
    cfg = small_kh(tmp_path)
    cfg.write_text(cfg.read_text().replace("cells = 16 16", "cells = 1 8"))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--output", str(out)]) == 2
    assert "periodic axis 0 needs cells >= ghost_width (1 < 2)" in capsys.readouterr().err
    assert not out.exists()


def test_an_mlmc_level_thinner_than_the_ghost_layer_exits_2_naming_the_levels_line(
    tmp_path, capsys
):
    # 8 cells coarsened 3 times leave one cell per axis on the coarsest level
    cfg = small_kh(tmp_path, cells=8, extra="levels = 4\n")
    line = cfg.read_text().splitlines().index("levels = 4") + 1
    out = tmp_path / "out"
    assert main(["uq", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}: periodic axis 0 needs cells >= ghost_width (1 < 2)" in err
    assert not out.exists()


def _csv_fields(path):
    """The data fields of a CSV file, by column name."""
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, l.split(","))) for l in lines[1:]]


def test_every_number_of_every_csv_parses_as_a_float(tmp_path, capsys):
    extra = (
        "histogram_points = 0.5 0.5\nhistogram_range = 0.5 2.5\nhistogram_bins = 4\n"
        "structure_max_offset = 4\n"
    )
    cfg = small_kh(tmp_path, cells=8, extra=extra)
    cfg.write_text(cfg.read_text().replace(
        "functionals = moments", "functionals = moments histogram structure_function"))
    out = tmp_path / "out"
    assert main(["uq", str(cfg), "--output", str(out)]) == 0
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    assert main(["bench", str(cfg), "--ranks", "1,2", "--steps", "2",
                 "--output", str(out)]) == 0
    names = ("histogram", "structure_function", "timing", "bench", "overhead")
    for name in names:
        rows = _csv_fields(out / f"{name}.csv")
        assert rows
        for row in rows:
            for column, value in row.items():
                if column != "layout":
                    float(value)
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
    # each functional's line, in the order of the functionals setting
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("moments over 3 samples: mean(c0) in [")
    assert lines[1:] == [
        "histogram: 1 probes x 8 bins, 3 samples",
        "structure function p=2: offsets 0..4",
        "wrote: " + " ".join(str(out / name) for name in (
            "mean.snap", "variance.snap", "histogram.csv", "structure_function.csv")),
    ]
    hist = (out / "histogram.csv").read_text()
    assert "probe,bin_lo,bin_hi,count" in hist
    counts = [int(l.rsplit(",", 1)[1]) for l in hist.splitlines()
              if l and not l.startswith(("#", "probe"))]
    assert sum(counts) == 3  # one count per sample per probe
    sf = (out / "structure_function.csv").read_text()
    assert "offset,value" in sf
    assert (out / "mean.snap").exists() and (out / "variance.snap").exists()


BURGERS_UQ = (
    "[grid]\ncells = 16\n\n[scheme]\nequation = burgers\nt_end = 0.02\n\n"
    "[initial]\nu = 1 + 0.5 * sin(2 * pi * (x + X0))\n\n[uq]\nsamples = 5\nlevels = 1\n"
)


def test_one_level_runs_its_level_samples(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "burgers.cfg"
    run_simulation = conslaw.uq.run_simulation
    solves = []
    monkeypatch.setattr(conslaw.uq, "run_simulation",
                        lambda *a, **k: solves.append(a) or run_simulation(*a, **k))
    cfg.write_text(BURGERS_UQ + "level_samples = 3\n")
    assert main(["uq", str(cfg), "--output", str(tmp_path / "out")]) == 0
    assert len(solves) == 3
    assert "moments over 3 samples" in capsys.readouterr().out
    for value, message in (("0", "per-level sample counts must be >= 1"),
                           ("3 2", "level_samples needs 1 entries, got 2")):
        cfg.write_text(BURGERS_UQ + f"level_samples = {value}\n")
        assert main(["uq", str(cfg), "--output", str(tmp_path / "out")]) == 2
        # line 14 sets level_samples
        assert capsys.readouterr().err == f"error: line 14: {message}\n"
    assert len(solves) == 3


@pytest.mark.parametrize("command, message", [
    ("run", r"non-finite value after step 1 \(t = \S+\) at cell \(0,\)"),
    ("uq", r"sample 0 failed: non-finite value after step 1 \(t = \S+\) at cell \(0,\)"),
])
def test_a_run_that_fails_mid_flight_exits_1(tmp_path, capsys, command, message):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(BURGERS_UQ.replace("1 + 0.5 * sin(2 * pi * (x + X0))", "x < 0.5 ? 1e200 : 0"))
    out = tmp_path / "out"
    assert main([command, str(cfg), "--output", str(out)]) == 1
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command, prefix", [("run", ""), ("uq", "sample 0 failed: ")])
def test_a_time_step_that_does_not_advance_t_exits_1(tmp_path, command, prefix):
    # normal cell widths of 1e-300 on x, and a sound speed of about 1e11:
    # s / delta overflows, so dt is 0 and t stays at 0.  The command runs in
    # its own process, so that a loop that never ends fails the test.
    cfg = small_kh(tmp_path).read_text().replace("extent = 1 1", "extent = 1.6e-299 1")
    (tmp_path / "frozen.cfg").write_text(cfg.replace("p = 2.5", "p = 1e22"))
    env = dict(os.environ, PYTHONPATH=str(Path(conslaw.cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "conslaw.cli", command, "frozen.cfg", "--output", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr == (
        f"error: {prefix}time step 0 does not advance t in step 1 (t = 0)\n"
    )
    assert not (tmp_path / "out").exists()


def test_uq_multilevel(tmp_path, capsys):
    extra = "levels = 2\nlevel_samples = 4 2\n"
    cfg = small_kh(tmp_path, extra=extra)
    out = tmp_path / "out"
    assert main(["uq", str(cfg), "--output", str(out)]) == 0
    mean, meta = read_snapshot(out / "mean.snap")
    variance, _ = read_snapshot(out / "variance.snap")
    assert mean.grid.cells == (16, 16)
    assert np.isfinite(mean.interior).all()
    # the moments line of a one-level campaign, with a count per level
    assert capsys.readouterr().out.startswith(
        f"moments over 4 2 samples: mean(c0) in [{mean.interior[0].min():.6g}, "
        f"{mean.interior[0].max():.6g}], max variance {variance.interior.max():.6g}\n"
        f"wrote: {out / 'mean.snap'} {out / 'variance.snap'}\n"
    )


def test_uq_multilevel_writes_the_mlmc_variance_bitwise(tmp_path, capsys):
    cfg_path = small_kh(tmp_path, extra="levels = 2\nlevel_samples = 4 2\n")
    # at 16x16 the preset's 0.01 interface perturbation crosses no cell
    # centre, so the samples would coincide; 0.1 makes every cell vary
    cfg_path.write_text(cfg_path.read_text().replace("0.01 *", "0.1 *"))
    out = tmp_path / "out"
    assert main(["uq", str(cfg_path), "--output", str(out)]) == 0
    cfg = parse_config(cfg_path.read_text())
    plan = SamplePlan(
        grids=_level_grids(cfg.grid, 2), level_samples=(4, 2),
        method=cfg.uq.method, seed=cfg.uq.seed, stochastic_dim=cfg.uq.stochastic_dim,
    )

    def evaluate_init(grid, vector):
        return eval_init(
            cfg.initial_exprs, cfg.scheme.model, grid, vector,
            primitive=cfg.initial_primitive,
        )

    (want,) = run_mlmc(plan, cfg.scheme, evaluate_init,
                       lambda g: [FieldMoments(g, cfg.scheme.model.ncomp)])
    mean, _ = read_snapshot(out / "mean.snap")
    variance, _ = read_snapshot(out / "variance.snap")
    np.testing.assert_array_equal(mean.interior, want.mean)
    np.testing.assert_array_equal(variance.interior, want.variance())
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


def _in_a_fresh_interpreter(tmp_path, code: str, environ=os.environ) -> str:
    """The last line that ``code`` prints, run by a new interpreter that
    imports conslaw from the tree under test, in ``environ``."""
    env = dict(environ, PYTHONPATH=str(Path(conslaw.cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def _modules_after_kh2d(tmp_path, command) -> set:
    """``sys.modules`` after a ``conslaw`` command on an 8x8 kh2d config."""
    cfg = small_kh(tmp_path, cells=8)
    return set(json.loads(_in_a_fresh_interpreter(tmp_path, (
        "import json, sys\n"
        "from conslaw.cli import main\n"
        f"assert main({[command, str(cfg), '--output', str(tmp_path / 'out')]!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))))


@pytest.mark.parametrize("command", ["run", "uq"])
def test_a_kh2d_run_or_campaign_leaves_numpy_random_unimported(tmp_path, command):
    modules = _modules_after_kh2d(tmp_path, command)
    assert sorted(m for m in modules if m.startswith("numpy.random")) == []


@pytest.mark.parametrize("command", ["run", "uq"])
def test_a_kh2d_run_or_campaign_loads_no_openssl(tmp_path, command):
    assert {"hashlib", "_hashlib"} & _modules_after_kh2d(tmp_path, command) == set()


@pytest.mark.parametrize("command", ["run", "uq"])
def test_a_kh2d_run_or_campaign_starts_no_process(tmp_path, command):
    face_kernel()  # a build, the one step that runs a compiler, happens here
    assert "subprocess" not in _modules_after_kh2d(tmp_path, command)


BLAS_THREAD_KEYS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _tasks_after(tmp_path, code: str, **settings) -> tuple[int, dict]:
    """The threads of a fresh interpreter after ``code``, and the keys of
    ``os.environ`` it changed (key: [before, after]); the environment sets no
    BLAS thread count but ``settings``."""
    if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs Linux and 2 CPUs: OpenBLAS starts no worker on one CPU")
    environ = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_KEYS}
    tasks, changed = json.loads(_in_a_fresh_interpreter(tmp_path, (
        "import json, os\n"
        "before = dict(os.environ)\n"
        f"{code}\n"
        "after = dict(os.environ)\n"
        "changed = {k: [before.get(k), after.get(k)] for k in before.keys() | after.keys()\n"
        "           if before.get(k) != after.get(k)}\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')), changed]))\n"
    ), dict(environ, **settings)))
    return tasks, changed


def _numpy_blas_pool(tmp_path) -> int:
    """The threads after a bare ``import numpy``; skips where numpy's BLAS
    starts no worker of its own, so that no pool is there to keep."""
    tasks, _ = _tasks_after(tmp_path, "import numpy")
    if tasks < 2:
        pytest.skip("numpy's BLAS starts no worker thread")
    return tasks


def test_import_conslaw_loads_openblas_with_one_thread(tmp_path):
    # numpy alone starts an OpenBLAS worker per extra CPU
    assert _tasks_after(tmp_path, "import conslaw") == (1, {})


def test_a_callers_openblas_thread_count_wins(tmp_path):
    _numpy_blas_pool(tmp_path)
    assert _tasks_after(tmp_path, "import conslaw", OPENBLAS_NUM_THREADS="2") == (2, {})


def test_a_program_that_imported_numpy_first_keeps_its_blas_pool(tmp_path):
    pool = _numpy_blas_pool(tmp_path)
    assert _tasks_after(tmp_path, "import numpy\nimport conslaw") == (pool, {})


def test_a_kh2d_run_holds_the_caller_and_the_kernels_helper_alone(tmp_path):
    face_kernel()  # built here, not in the child
    cfg = small_kh(tmp_path, cells=64)
    argv = ["run", str(cfg), "--output", str(tmp_path / "out")]
    code = f"from conslaw.cli import main\nassert main({argv!r}) == 0"
    assert _tasks_after(tmp_path, code) == (2, {})


def test_a_kh3d_run_holds_at_most_four_padded_fields(tmp_path, capsys):
    # the stack (state, residual, stage start), then one stitched field and
    # one component while a snapshot at the end time is written
    cfg = tmp_path / "kh3d.cfg"
    cfg.write_text(PRESETS["kh3d"].replace("t_end = 1.0", "t_end = 0.01").replace(
        "snapshot_times = 1.0", "snapshot_times = 0.01"))
    argv = ["run", str(cfg), "--output", str(tmp_path / "out")]
    assert main(argv) == 0  # imports, the kernel and the caches of a first run
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "snapshot_t0.01.snap").is_file()
    field = 5 * 36 ** 3 * 8  # a padded field of 32^3 cells, 5 components
    assert peak <= 4.0 * field
    capsys.readouterr()


@pytest.mark.parametrize("before,code,after", [
    # the CLI leaves the collector as it found it and its modules frozen
    ("", "import conslaw.cli", "True True"),
    ("gc.disable()\n", "import conslaw.cli", "False True"),
    # the package alone restores the collector and freezes nothing
    ("", "import conslaw", "True False"),
    ("gc.disable()\n", "import conslaw", "False False"),
], ids=["cli", "cli-collector-off", "package", "package-collector-off"])
def test_import_keeps_the_callers_collector_state(tmp_path, before, code, after):
    assert _in_a_fresh_interpreter(tmp_path, (
        f"import gc\n{before}{code}\n"
        "print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )) == after


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
        assert float(fraction) == (means[int(K)] / int(K)) / means[1] - 1
    capsys.readouterr()


def test_bench_overhead_is_zero_when_step_time_grows_with_the_ranks(
    tmp_path, monkeypatch, capsys
):
    def run_simulation(init, cfg, ranks, steps):
        # K ranks on one thread at perfect efficiency: K times the 1-rank time
        seconds = 2.0 ** -10 * int(np.prod(ranks))
        return init, [TimeStepRecord(s + 1, 0.0, 0.0, seconds) for s in range(steps)]

    monkeypatch.setattr(conslaw.cli, "run_simulation", run_simulation)
    cfg = small_kh(tmp_path, cells=8)
    out = tmp_path / "bench"
    assert main([
        "bench", str(cfg), "--ranks", "1,2,3,4", "--layout", "multixmultiy",
        "--steps", "13", "--output", str(out),
    ]) == 0
    over = [
        l.split(",") for l in (out / "overhead.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert [int(r[0]) for r in over[1:]] == [1, 2, 3, 4]
    assert all(float(r[3]) == 0.0 for r in over[1:])
    capsys.readouterr()


def test_bench_rejects_fewer_than_one_step(tmp_path, capsys):
    cfg = small_kh(tmp_path, cells=8)
    for steps in ("0", "-3"):
        assert main([
            "bench", str(cfg), "--ranks", "1", "--steps", steps,
            "--output", str(tmp_path / "x"),
        ]) == 2
        assert "--steps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("layout", ["3x1", "abc"])
def test_run_bad_rank_layout_exits_2_before_it_makes_the_output_directory(
    tmp_path, capsys, layout
):
    cfg = small_kh(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--ranks", layout, "--output", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_bench_checks_every_layout_before_the_first_run(tmp_path, monkeypatch, capsys):
    def run_simulation(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(conslaw.cli, "run_simulation", run_simulation)
    cfg = small_kh(tmp_path, cells=8)
    cfg.write_text(cfg.read_text().replace("cells = 8 8", "cells = 1 8").replace(
        "boundary = periodic", "boundary = outflow periodic"))
    out = tmp_path / "out"
    # one cell per rank along x: the serial layout passes, 2 x 1 is thinner than the ghosts
    assert main(["bench", str(cfg), "--ranks", "1,2", "--steps", "2",
                 "--output", str(out)]) == 2
    assert "1 cells per rank on axis 0 is fewer than the ghost width 2" in capsys.readouterr().err
    assert not out.exists()


def test_bench_3d_layout_on_2d_config_exits_2(tmp_path, capsys):
    cfg = small_kh(tmp_path, cells=8)
    assert main([
        "bench", str(cfg), "--ranks", "1,8", "--layout", "multixmultiymultiz",
        "--steps", "2", "--output", str(tmp_path / "x"),
    ]) == 2
    assert not (tmp_path / "x").exists()
    capsys.readouterr()
