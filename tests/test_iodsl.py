import hashlib
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslaw.equations import EquationModel, primitive_to_conserved
from conslaw.errors import ConfigError, ExprError, SnapshotError
from conslaw.grid import GridSpec, make_field
from conslaw.iodsl import config, output
from conslaw.iodsl.config import canonical_digest, parse_config
from conslaw.iodsl.expr import (
    eval_expr,
    eval_init,
    max_random_index,
    parse_expr,
    print_expr,
)
from conslaw.iodsl.output import (
    OutputHeader,
    read_snapshot,
    source_revision,
    write_snapshot,
    write_stats,
)
from conslaw.numerics import FluxKind, ReconstructionKind
from conslaw.presets import ADVECTION_SMOOTH, KH2D, KH3D, PRESETS, SOD
from conslaw.uq import SamplePlan, draw_sample


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def ev(text, **env):
    return eval_expr(parse_expr(text), env)


def test_arithmetic_precedence():
    assert ev("1 + 2 * 3") == 7.0
    assert ev("(1 + 2) * 3") == 9.0
    assert ev("2 ^ 3 ^ 2") == 512.0          # right associative
    assert ev("-2 ^ 2") == -4.0              # power binds tighter than minus
    assert ev("6 / 3 / 2") == 1.0            # left associative
    assert ev("1 - 2 - 3") == -4.0


def test_comparisons_yield_indicator_values():
    assert ev("1 < 2") == 1.0
    assert ev("2 <= 1") == 0.0
    assert ev("3 > 2 ? 10 : 20") == 10.0
    assert ev("x >= 0.5 ? 1 : 2", x=0.25) == 2.0


def test_ternary_is_right_associative():
    e = "x < 1 ? 10 : x < 2 ? 20 : 30"
    assert ev(e, x=0.5) == 10.0
    assert ev(e, x=1.5) == 20.0
    assert ev(e, x=2.5) == 30.0


def test_functions_and_constants():
    assert ev("sin(0)") == 0.0
    assert ev("cos(0)") == 1.0
    assert ev("sqrt(9)") == 3.0
    assert ev("abs(-4)") == 4.0
    assert ev("min(2, 3) + max(2, 3)") == 5.0
    assert ev("sin(pi / 2)") == pytest.approx(1.0)
    assert ev("exp(1)") == pytest.approx(np.e)


def test_vectorized_evaluation_broadcasts():
    x = np.linspace(0.0, 1.0, 5)
    got = ev("x < 0.5 ? 1.0 : 0.0", x=x)
    np.testing.assert_array_equal(got, (x < 0.5).astype(float))


def test_random_symbols():
    assert ev("X0 + X1", X0=0.25, X1=0.5) == 0.75
    assert max_random_index(parse_expr("0.01 * sin(X3) + X1")) == 3
    assert max_random_index(parse_expr("x + 1")) == -1


def test_parse_errors_carry_position():
    with pytest.raises(ExprError) as err:
        parse_expr("1 + * 2")
    assert err.value.pos is not None
    with pytest.raises(ExprError):
        parse_expr("sin(1, 2)")  # wrong arity
    with pytest.raises(ExprError):
        parse_expr("unknown_fn(1)")
    with pytest.raises(ExprError):
        parse_expr("1 +")
    with pytest.raises(ExprError):
        parse_expr("(1 + 2")


def test_print_parse_round_trip_is_a_fixed_point():
    cases = [
        "1 + 2 * 3",
        "-(x + 1) ^ 2",
        "x < 0.5 ? 1.0 : (y < 0.25 ? 2.0 : 3.0)",
        "sin(2 * pi * (x + X0)) * 0.01",
        "min(x, max(y, 0.5)) / (1 + abs(z))",
        "2 ^ 3 ^ 2",
        "-2 ^ 2",
        "1 - (2 - 3)",
    ]
    for text in cases:
        once = print_expr(parse_expr(text))
        twice = print_expr(parse_expr(once))
        assert once == twice
        env = dict(x=0.3, y=0.7, z=-0.2, X0=0.11)
        assert ev(text, **env) == pytest.approx(ev(once, **env), rel=1e-15)


_expr_leaves = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(lambda v: f"{v!r}"),
    st.sampled_from(["x", "pi", "X0"]),
)


@st.composite
def _expr_strings(draw, depth=3):
    if depth == 0:
        return draw(_expr_leaves)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(_expr_leaves)
    a = draw(_expr_strings(depth=depth - 1))
    b = draw(_expr_strings(depth=depth - 1))
    if kind == 1:
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return f"({a}) {op} (({b}) + 1.5)"
    if kind == 2:
        return f"-({a})"
    if kind == 3:
        fn = draw(st.sampled_from(["sin", "cos", "abs"]))
        return f"{fn}({a})"
    return f"({a}) < ({b}) ? ({a}) : ({b})"


@given(_expr_strings())
@settings(max_examples=150, deadline=None)
def test_round_trip_fixed_point_on_generated_expressions(text):
    once = print_expr(parse_expr(text))
    assert print_expr(parse_expr(once)) == once


def test_eval_init_matches_hand_built_field():
    grid = GridSpec(1, (8,), (0.0,), (1.0,))
    model = EquationModel(kind="euler", dim=1)
    exprs = tuple(
        parse_expr(t) for t in ("x < 0.5 ? 1.0 : 0.125", "0", "x < 0.5 ? 1.0 : 0.1")
    )
    f = eval_init(exprs, model, grid, np.zeros(1), primitive=True)
    x = grid.cell_centers(0)
    w = np.stack(
        [np.where(x < 0.5, 1.0, 0.125), np.zeros_like(x), np.where(x < 0.5, 1.0, 0.1)]
    )
    np.testing.assert_array_equal(f.interior, primitive_to_conserved(model, w))


def test_eval_init_rejects_unphysical_data():
    grid = GridSpec(1, (4,), (0.0,), (1.0,))
    model = EquationModel(kind="euler", dim=1)
    exprs = tuple(parse_expr(t) for t in ("x - 0.5", "0", "1"))  # rho < 0 for x < 0.5
    with pytest.raises(Exception, match="unphysical|non-positive"):
        eval_init(exprs, model, grid, np.zeros(1), primitive=True)


def test_kh_initial_data_physical_for_many_random_vectors():
    cfg = parse_config(KH2D)
    rng = np.random.default_rng(17)
    small = GridSpec(2, (16, 16), cfg.grid.origin, cfg.grid.extent, cfg.grid.ghost_width)
    for _ in range(200):
        vec = rng.random(4)
        f = eval_init(
            cfg.initial_exprs, cfg.scheme.model, small, vec,
            primitive=cfg.initial_primitive,
        )
        assert np.isfinite(f.interior).all()


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def test_presets_all_parse():
    for text in (SOD, ADVECTION_SMOOTH, KH2D, KH3D):
        cfg = parse_config(text)
        assert cfg.digest == canonical_digest(text)


def test_sod_preset_fields():
    cfg = parse_config(SOD)
    assert cfg.grid.cells == (400,)
    assert cfg.scheme.flux is FluxKind.HLLC
    assert cfg.scheme.recon.kind is ReconstructionKind.WENO2
    assert cfg.scheme.rk_order == 2
    assert cfg.scheme.t_end == 0.2
    assert not cfg.has_uq_section


def test_unknown_key_is_rejected_with_line_number():
    bad = SOD.replace("reconstruction = weno2", "recontruction = weno2")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "recontruction" in str(err.value)
    assert err.value.line is not None
    # the reported line really holds the typo
    assert "recontruction" in bad.splitlines()[err.value.line - 1]


BURGERS = (
    "[grid]\ncells = 16\n\n[scheme]\nequation = burgers\nt_end = 0.1\n\n"
    "[initial]\nu = sin(2 * pi * x)\n"
)


@pytest.mark.parametrize("text, extra, uses", [
    (KH2D, "vz = 0", "rho vx vy p"),
    (SOD, "vy = 0", "rho vx p"),
    (SOD, "E = 2.5", "rho vx p"),
    (SOD, "mx = 0", "rho vx p"),
    (SOD, "u = 1", "rho vx p"),
    (SOD.replace("variables = primitive", "variables = conserved").replace("vx = 0", "mx = 0")
     .replace("p = x < 0.5 ? 1.0 : 0.1", "E = 2.5"), "vx = 0", "rho mx E"),
    (BURGERS, "rho = 1", "u"),
], ids=["vz-in-2d", "vy-in-1d", "E-beside-primitive", "mx-beside-primitive", "u-in-euler",
        "vx-beside-conserved", "rho-in-burgers"])
def test_an_initial_key_that_the_data_does_not_read_names_its_line(text, extra, uses):
    bad = text.replace("[initial]\n", f"[initial]\n{extra}\n")
    key = extra.split()[0]
    message = rf"^line \d+: '{key}' in \[initial\] is not read: .* uses {uses}$"
    with pytest.raises(ConfigError, match=message) as err:
        parse_config(bad)
    assert err.value.key == key
    assert bad.splitlines()[err.value.line - 1] == extra


ADVECTION = BURGERS.replace("burgers", "advection")


@pytest.mark.parametrize("text, old, new, message", [
    (BURGERS, "[initial]\n", "[initial]\nvariables = conserved\n",
     r"'variables' must be one of \['scalar'\], got 'conserved'"),
    (ADVECTION, "[initial]\n", "[initial]\nvariables = primitive\n",
     r"'variables' must be one of \['scalar'\], got 'primitive'"),
    (SOD, "variables = primitive", "variables = scalar",
     r"'variables' must be one of \['conserved', 'primitive'\], got 'scalar'"),
    (BURGERS, "t_end = 0.1", "t_end = 0.1\ngamma = nan",
     r"gamma only applies to the euler equation"),
    (ADVECTION, "t_end = 0.1", "t_end = 0.1\ngamma = 1.4",
     r"gamma only applies to the euler equation"),
], ids=["conserved-burgers", "primitive-advection", "scalar-euler", "gamma-nan-burgers",
        "gamma-advection"])
def test_a_setting_of_another_model_names_its_line(text, old, new, message):
    bad = text.replace(old, new)
    with pytest.raises(ConfigError, match=rf"^line \d+: {message}$") as err:
        parse_config(bad)
    key = new.splitlines()[-1].split()[0]
    assert err.value.key == key
    assert bad.splitlines()[err.value.line - 1] == new.splitlines()[-1]


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(SOD + "\n[extras]\nfoo = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(SOD + "\n[grid]\ncells = 10\n")


def test_incompatible_flux_rejected():
    text = (
        "[grid]\ncells = 16\n\n"
        "[scheme]\nequation = burgers\nflux = hllc\nt_end = 0.1\n\n"
        "[initial]\nvariables = scalar\nu = sin(2 * pi * x)\n"
    )
    with pytest.raises(ConfigError, match="hllc needs euler") as err:
        parse_config(text)
    assert err.value.line == 1 + text.splitlines().index("flux = hllc")


def test_missing_stochastic_dim_rejected():
    text = KH2D.replace("stochastic_dim = 4", "stochastic_dim = 2")
    with pytest.raises(ConfigError, match="X3"):
        parse_config(text)


def test_digest_ignores_comments_whitespace_and_order():
    base = parse_config(SOD).digest
    shuffled_lines = SOD.replace("cells = 400", "cells =   400  # resolution")
    assert parse_config(shuffled_lines).digest == base
    # move the [output] section above [grid]
    parts = SOD.split("[output]")
    reordered = "[output]" + parts[1] + "\n" + parts[0]
    assert canonical_digest(reordered) == base


#: each shipped preset's digest as hashlib's OpenSSL SHA-256 gave it before
#: conslaw took the built-in one; a cached output's header carries it
PRESET_DIGESTS = {
    "advection-smooth": "34733910ef562efef428c6d2bca0a26718e9daba36d9b8aa73d2cf9acab36b0d",
    "kh2d": "49f31943a68aacc344092ca15201177206affdb2d053260baad370d8831a1465",
    "kh3d": "44b4f1b05f1ae7c602b040dbe50243a9f00c73dd250e3be05243dfdd32d9b700",
    "sod": "b3b3718616fed693706a37e9092ee81c7b720a53d1ced595ab4d1b886081c0b3",
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_digest_is_hashlibs_sha256_of_the_canonical_text(name, monkeypatch):
    hashed, builtin = [], config.sha256

    def recording_sha256(data):
        hashed.append(data)
        return builtin(data)

    monkeypatch.setattr(config, "sha256", recording_sha256)
    digest = canonical_digest(PRESETS[name])
    (canon,) = hashed
    assert canon.startswith(b"[grid]\n") and canon.endswith(b"\n")
    assert digest == hashlib.sha256(canon).hexdigest() == PRESET_DIGESTS[name]


def test_digest_changes_with_any_value():
    assert parse_config(SOD.replace("cfl = 0.475", "cfl = 0.5")).digest != parse_config(SOD).digest


def _kh_uq(extra):
    """The kh2d preset with extra ``[uq]`` lines; returns (text, line of the
    first extra line)."""
    text = KH2D.replace("functionals = moments", "functionals = moments\n" + extra)
    line = text.splitlines().index(extra.splitlines()[0]) + 1
    return text, line


@pytest.mark.parametrize(
    "extra,message",
    [
        ("histogram_component = 7", "histogram_component 7 is not a component"),
        ("structure_component = 9", "structure_component 9 is not a component"),
        ("structure_component = -1", "structure_component -1 is not a component"),
        ("histogram_points = 0.5 abc", "histogram point '0.5 abc' must be numbers"),
        ("histogram_points = 0.5 0.5; 5 5", "histogram point '5 5' lies outside the domain"),
    ],
)
def test_bad_uq_functional_settings_name_their_line(extra, message):
    text, line = _kh_uq(extra)
    with pytest.raises(ConfigError, match=message) as err:
        parse_config(text)
    assert err.value.line == line


def test_a_structure_offset_past_an_outflow_axis_names_its_line():
    # 64 cells per axis: offset 63 still pairs one cell inside y, 64 none
    text = KH2D.replace("boundary = periodic", "boundary = periodic outflow")
    # checked only when the structure function runs
    assert parse_config(text.replace(
        "functionals = moments", "functionals = moments\nstructure_max_offset = 64"
    )).uq.structure_max_offset == 64
    text = text.replace(
        "functionals = moments", "functionals = structure_function\nstructure_max_offset = 64"
    )
    with pytest.raises(
        ConfigError, match="structure_max_offset 64 leaves no pair of cells inside outflow axis 1"
    ) as err:
        parse_config(text)
    assert err.value.line == text.splitlines().index("structure_max_offset = 64") + 1
    parse_config(text.replace("structure_max_offset = 64", "structure_max_offset = 63"))


def test_uq_functional_settings_at_the_domain_edge_parse():
    text, _ = _kh_uq("histogram_points = 0 0; 1 1; 0.5 0.25\nstructure_component = 3")
    cfg = parse_config(text)
    assert cfg.uq.histogram_points == ((0.0, 0.0), (1.0, 1.0), (0.5, 0.25))
    assert cfg.uq.structure_component == 3


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_t_end_that_is_not_finite_names_its_line(value):
    text = KH2D.replace("t_end = 2.0", f"t_end = {value}")
    line = 1 + text.splitlines().index(f"t_end = {value}")
    with pytest.raises(ConfigError, match="t_end must be finite") as err:
        parse_config(text)
    assert err.value.line == line


def test_a_boundary_of_the_wrong_length_names_its_line():
    text = KH2D.replace("boundary = periodic", "boundary = periodic outflow periodic")
    line = 1 + text.splitlines().index("boundary = periodic outflow periodic")
    with pytest.raises(ConfigError, match="boundary needs 2 kinds, got 3") as err:
        parse_config(text)
    assert err.value.line == line


def test_ranks_thinner_than_the_ghost_layer_name_their_line():
    # 64 cells on 64 ranks: one cell per rank, under the WENO3 ghost width 2
    text = KH2D.replace("ranks = 1 1", "ranks = 64 1")
    line = 1 + text.splitlines().index("ranks = 64 1")
    with pytest.raises(ConfigError, match="fewer than the ghost width 2") as err:
        parse_config(text)
    assert err.value.line == line


def test_ranks_must_divide_cells():
    text = KH2D.replace("ranks = 1 1", "ranks = 3 1")
    with pytest.raises(ConfigError, match="divisible"):
        parse_config(text)


@pytest.mark.parametrize("extra, cells, counts", [
    ("", [(64, 64)], [8]),
    ("levels = 3\nlevel_samples = 8 4 2\n", [(16, 16), (32, 32), (64, 64)], [8, 4, 2]),
])
def test_the_plan_of_any_level_count_draws_as_its_keyword_form_without_grids(
    extra, cells, counts
):
    # the keyword form is how perfbench's set-up probe draws sample 0
    cfg = parse_config(KH2D.replace("functionals = moments", "functionals = moments\n" + extra))
    plan = cfg.uq.plan(cfg.grid)
    assert isinstance(plan, SamplePlan)
    assert [g.cells for g in plan.grids] == cells
    assert [plan.count(level) for level in range(plan.levels)] == counts
    bare = SamplePlan(
        method=cfg.uq.method, samples=max(cfg.uq.samples, 1),
        seed=cfg.uq.seed, stochastic_dim=cfg.uq.stochastic_dim,
    )
    assert bare.grids == () and bare.levels == 1
    assert draw_sample(bare, 0).tobytes() == draw_sample(plan, 0).tobytes()


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def _sample_field():
    grid = GridSpec(2, (6, 4), (0.0, -1.0), (1.5, 2.0))
    rng = np.random.default_rng(18)
    from conslaw.grid import field_from_interior

    return field_from_interior(grid, rng.normal(0.0, 1.0, (3, 4, 6)))


def test_snapshot_round_trip_bitwise(tmp_path):
    f = _sample_field()
    header = OutputHeader("deadbeef", 42, sample=3)
    path = tmp_path / "field.snap"
    write_snapshot(f, header, path, components=("a", "b", "c"))
    back, meta = read_snapshot(path)
    np.testing.assert_array_equal(back.interior, f.interior)
    assert back.grid.cells == f.grid.cells
    assert back.grid.origin == f.grid.origin
    assert meta["config_digest"] == "deadbeef"
    assert meta["seed"] == "42"
    assert meta["sample"] == "3"
    assert meta["components"] == "a b c"


def test_truncated_snapshot_rejected(tmp_path):
    f = _sample_field()
    path = tmp_path / "field.snap"
    write_snapshot(f, OutputHeader("d", 0), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(SnapshotError, match="expected .* floats"):
        read_snapshot(path)


def test_snapshot_missing_digest_rejected(tmp_path):
    path = tmp_path / "field.snap"
    payload = np.zeros(4, dtype="<f8").tobytes()
    head = "conslaw-snapshot 1\nseed: 0\ndim: 1\ncells: 4\nncomp: 1\n\n"
    path.write_bytes(head.encode() + payload)
    with pytest.raises(SnapshotError, match="config_digest"):
        read_snapshot(path)


@pytest.mark.parametrize("old,new,message", [
    ("conslaw-snapshot 1", "conslaw-snapshot x", "unsupported format version x"),
    ("dim: 1", "dim: abc", "malformed header: invalid literal"),
    ("cells: 4", "cells: 0", "malformed header: all cell counts must be >= 1"),
    ("cells: 4", "cells: 2 2", "malformed header: cells must have 1 entries, got 2"),
    ("ncomp: 1", "ncomp: -1", "ncomp must be >= 1, got -1"),
    # 2**64 cells, which wrap to 0 in int64
    ("dim: 1\ncells: 4", "dim: 2\ncells: 4294967296 4294967296",
     "expected 18446744073709551616 floats, found 4"),
])
def test_malformed_snapshot_header_rejected_naming_the_file(tmp_path, old, new, message):
    path = tmp_path / "field.snap"
    head = "conslaw-snapshot 1\nconfig_digest: d\nseed: 0\ndim: 1\ncells: 4\nncomp: 1\n\n"
    path.write_bytes(head.replace(old, new).encode() + np.zeros(4, dtype="<f8").tobytes())
    with pytest.raises(SnapshotError, match=f"^{re.escape(f'{path}: {message}')}"):
        read_snapshot(path)


def test_non_snapshot_file_rejected(tmp_path):
    path = tmp_path / "nope.snap"
    path.write_bytes(b"hello world\n\nnot a snapshot")
    with pytest.raises(SnapshotError, match="not a snapshot"):
        read_snapshot(path)


def test_write_snapshot_holds_one_component_beyond_its_header(tmp_path):
    grid = GridSpec(3, (40, 24, 20), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    field = make_field(grid, 5)
    field.interior[...] = np.random.default_rng(3).normal(0.0, 1.0, field.interior.shape)
    header = OutputHeader("d", 0)
    write_snapshot(field, header, tmp_path / "warm-up.snap")
    tracemalloc.start()
    try:
        write_snapshot(field, header, tmp_path / "field.snap")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the header lines, the path and the file's buffer take a few kB
    assert peak <= field.interior[0].nbytes + 64 * 1024
    back, _ = read_snapshot(tmp_path / "field.snap")
    assert np.ascontiguousarray(back.interior).tobytes() == np.ascontiguousarray(
        field.interior).tobytes()


def test_write_stats_writes_the_files_a_functional_names(tmp_path):
    # write_stats knows no functional class: a grid and files() are all it reads
    class Stub:
        grid = GridSpec(1, (4,), (0.0,), (1.0,))

        def files(self):
            yield "cells.snap", np.arange(8.0).reshape(2, 4)
            yield "rows.csv", "k,v", [(0, 1.5), (1, np.float64(2.5))]

    header = OutputHeader("d", 7)
    out = tmp_path / "out"
    assert write_stats([Stub()], header, out) == [out / "cells.snap", out / "rows.csv"]
    back, meta = read_snapshot(out / "cells.snap")
    np.testing.assert_array_equal(back.interior, np.arange(8.0).reshape(2, 4))
    assert back.grid.cells == (4,) and meta["seed"] == "7"
    assert (out / "rows.csv").read_text() == header.comments() + "k,v\n0,1.5\n1,2.5\n"


# ---------------------------------------------------------------------------
# Revision stamps
# ---------------------------------------------------------------------------

SHA = "0123456789abcdef0123456789abcdef01234567"


def test_source_revision_is_the_short_head_of_this_checkout():
    root = output._CHECKOUT
    # git, like the stamp, looks at the checkout root and no further up
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root / "src",
                              env=env, capture_output=True, text=True, timeout=60)
    except OSError:
        pytest.skip("no git")
    if done.returncode != 0:
        pytest.skip(f"git reads no revision here: {done.stderr.strip()}")
    assert source_revision() == done.stdout.strip()


def _git_dir(path, head, loose=None, packed=None):
    (path / "refs" / "heads").mkdir(parents=True)
    (path / "HEAD").write_text(head)
    if loose:
        (path / "refs" / "heads" / "main").write_text(loose + "\n")
    if packed:
        (path / "packed-refs").write_text(packed)
    return path


@pytest.mark.parametrize("layout", [
    "loose", "packed", "detached", "gitdir-file", "worktree", "none", "no-ref", "garbage",
])
def test_source_revision_reads_the_git_directory(tmp_path, monkeypatch, layout):
    monkeypatch.setattr(output, "_CHECKOUT", tmp_path)
    ref = "ref: refs/heads/main\n"
    packed = ("# pack-refs with: peeled fully-peeled sorted \n"
              f"{'f' * 40} refs/heads/other\n{SHA} refs/heads/main\n^{'e' * 40}\n")
    if layout == "loose":
        _git_dir(tmp_path / ".git", ref, loose=SHA, packed=packed.replace(SHA, "a" * 40))
    elif layout == "packed":
        _git_dir(tmp_path / ".git", ref, packed=packed)
    elif layout == "detached":
        _git_dir(tmp_path / ".git", SHA + "\n")
    elif layout == "gitdir-file":
        _git_dir(tmp_path / "elsewhere.git", ref, loose=SHA)
        (tmp_path / ".git").write_text("gitdir: elsewhere.git\n")
    elif layout == "worktree":
        common = _git_dir(tmp_path / "main.git", "ref: refs/heads/other\n", packed=packed)
        tree = _git_dir(common / "worktrees" / "wt", ref)
        (tree / "commondir").write_text("../..\n")
        (tmp_path / ".git").write_text(f"gitdir: {tree}\n")
    elif layout == "no-ref":
        _git_dir(tmp_path / ".git", "ref: refs/heads/gone\n", packed=packed)
    elif layout == "garbage":
        _git_dir(tmp_path / ".git", "not a revision\n")
    expected = "unknown" if layout in ("none", "no-ref", "garbage") else SHA[:7]
    assert source_revision() == expected


def test_a_copy_of_the_package_outside_a_checkout_is_stamped_unknown(tmp_path):
    package = Path(output.__file__).parents[1]
    shutil.copytree(package, tmp_path / "src" / "conslaw",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", "from conslaw.iodsl import output\n"
                               "print(output.__file__, output.source_revision())"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(tmp_path / "src/conslaw/iodsl/output.py"), "unknown"]
