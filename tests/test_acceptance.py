"""End-to-end acceptance suite.

Each test prints exactly one ``[criterion N] PASS/FAIL`` line so the whole
contract can be audited from the test log (run with ``pytest -s`` to see the
lines on success).
"""

import time

import numpy as np

from conslaw.cli import main
from conslaw.equations import primitive_to_conserved
from conslaw.grid import GridSpec, field_from_interior, total_integral
from conslaw.iodsl.config import canonical_digest, parse_config
from conslaw.iodsl.expr import parse_expr, print_expr, eval_init
from conslaw.iodsl.output import OutputHeader, read_snapshot, write_snapshot
from conslaw.numerics import ReconstructionKind
from conslaw.parallel import run_parallel
from conslaw.presets import ADVECTION_SMOOTH, KH2D, KH3D, SOD
from conslaw.solver import run_simulation
from conslaw.uq import (
    FieldMoments,
    MlmcPlan,
    SamplePlan,
    draw_sample,
    run_mc,
    run_mlmc,
)
from oracles import riemann_density_profile, weno_face_value, weno_weights


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def strip_created(data: bytes) -> bytes:
    return b"\n".join(
        l for l in data.split(b"\n") if not l.lstrip(b"# ").startswith(b"created:")
    )


# ---------------------------------------------------------------------------


def test_criterion_1_sod_shock_tube():
    tic = time.perf_counter()
    left, right = (1.0, 0.0, 1.0), (0.125, 0.0, 0.1)
    errors = {}
    for n in (200, 400, 800):
        cfg = parse_config(SOD.replace("cells = 400", f"cells = {n}"))
        init = eval_init(cfg.initial_exprs, cfg.scheme.model, cfg.grid, ())
        final, _ = run_simulation(init, cfg.scheme)
        x = cfg.grid.cell_centers(0)
        exact = riemann_density_profile(left, right, x, t=0.2)
        errors[n] = float(np.mean(np.abs(final.interior[0] - exact)))
    elapsed = time.perf_counter() - tic
    ok = (
        errors[400] <= 1e-2
        and errors[200] > errors[400] > errors[800]
        and elapsed < 10.0
    )
    report(
        1, ok,
        f"Sod L1 density errors {errors[200]:.2e} > {errors[400]:.2e} > "
        f"{errors[800]:.2e}, N=400 error <= 1e-2, in {elapsed:.1f} s",
    )


def test_criterion_2_smooth_convergence():
    tic = time.perf_counter()
    errors = []
    for n in (64, 128, 256):
        cfg = parse_config(ADVECTION_SMOOTH.replace("cells = 128", f"cells = {n}"))
        init = eval_init(cfg.initial_exprs, cfg.scheme.model, cfg.grid, ())
        final, _ = run_simulation(init, cfg.scheme)
        # after one period the wave returns to its initial position
        errors.append(float(np.mean(np.abs(final.interior[0] - init.interior[0]))))
    # observed order: least-squares slope of log error vs log N
    order = -float(np.polyfit(np.log2([64, 128, 256]), np.log2(errors), 1)[0])
    elapsed = time.perf_counter() - tic
    ok = order >= 2.5 and elapsed < 30.0
    report(
        2, ok,
        f"density-wave observed L1 order {order:.2f} "
        f"(errors {errors[0]:.2e} -> {errors[2]:.2e}), in {elapsed:.1f} s",
    )


def test_criterion_3_conservation():
    tic = time.perf_counter()
    cfg = parse_config(KH2D)
    plan = SamplePlan("mc", cfg.uq.samples, cfg.uq.seed, cfg.uq.stochastic_dim)
    init = eval_init(cfg.initial_exprs, cfg.scheme.model, cfg.grid, draw_sample(plan, 0))
    q0 = total_integral(init)
    final, records = run_simulation(init, cfg.scheme, max_steps=100)
    q1 = total_integral(final)
    scale = np.abs(q0).max()
    drift = np.abs(q1 - q0) / np.maximum(np.abs(q0), scale)
    elapsed = time.perf_counter() - tic
    ok = len(records) == 100 and float(drift.max()) < 1e-12 and elapsed < 60.0
    report(
        3, ok,
        f"kh2d 64^2, 100 steps: worst relative drift {drift.max():.2e} "
        f"(components {np.array2string(drift, precision=2)}), in {elapsed:.1f} s",
    )


def test_criterion_4_decomposition_invariance():
    cfg = parse_config(KH2D)
    plan = SamplePlan("mc", cfg.uq.samples, cfg.uq.seed, cfg.uq.stochastic_dim)
    init = eval_init(cfg.initial_exprs, cfg.scheme.model, cfg.grid, draw_sample(plan, 0))
    fields = {}
    for ranks in ((1, 1), (2, 1), (1, 2), (2, 2)):
        final, _ = run_parallel(init.copy(), cfg.scheme, ranks, n_steps=50)
        fields[ranks] = final.interior
    ref = fields[(1, 1)]
    mismatches = [
        key for key, val in fields.items() if not np.array_equal(val, ref)
    ]
    report(
        4, not mismatches,
        "kh2d 50 steps bitwise identical over ranks {1, 2x1, 1x2, 2x2} "
        f"(mismatches: {mismatches or 'none'})",
    )


def _instant_euler_scheme():
    """1D Euler scheme with t_end = 0: samples reduce to the initial data."""
    from conslaw.equations import EquationModel
    from conslaw.grid import BoundaryKind
    from conslaw.numerics import FluxKind, Reconstruction
    from conslaw.solver import SchemeConfig

    return SchemeConfig(
        model=EquationModel(kind="euler", dim=1),
        flux=FluxKind.HLLC,
        recon=Reconstruction(ReconstructionKind.WENO2),
        rk_order=2,
        t_end=0.0,
        bc=(BoundaryKind.PERIODIC,),
    )


def test_criterion_5_mc_convergence():
    tic = time.perf_counter()
    grid = GridSpec(1, (2,), (0.0,), (1.0,))
    cfg = _instant_euler_scheme()
    model = cfg.model

    def evaluate_init(g, vector):
        x = g.cell_centers(0)
        rho = np.full_like(x, 1.0 + vector[0])  # linear in one uniform variable
        w = np.stack([rho, np.zeros_like(x), np.ones_like(x)])
        return field_from_interior(g, primitive_to_conserved(model, w))

    sizes = (16, 64, 256, 1024, 4096)
    replications = 12
    rmse = []
    for m in sizes:
        sq = 0.0
        for seed in range(replications):
            plan = SamplePlan(method="mc", samples=m, seed=seed, stochastic_dim=1)
            out = run_mc(plan, grid, cfg, evaluate_init, [FieldMoments(grid, 3)])
            estimate = float(out[0].acc.mean[0].mean())  # domain average of rho
            sq += (estimate - 1.5) ** 2
        rmse.append(np.sqrt(sq / replications))
    slope = np.polyfit(np.log(sizes), np.log(rmse), 1)[0]
    elapsed = time.perf_counter() - tic
    ok = -0.7 <= slope <= -0.3 and elapsed < 30.0
    report(
        5, ok,
        f"MC error slope {slope:.3f} over M={list(sizes)} "
        f"(RMSE {rmse[0]:.1e} -> {rmse[-1]:.1e}), in {elapsed:.1f} s",
    )


def test_criterion_6_mlmc_degeneracy():
    grid = GridSpec(1, (8,), (0.0,), (1.0,))
    cfg = _instant_euler_scheme()
    model = cfg.model

    def evaluate_init(g, vector):
        x = g.cell_centers(0)
        w = np.stack(
            [1.0 + vector[0] * np.sin(2 * np.pi * x) ** 2,
             np.zeros_like(x), np.ones_like(x)]
        )
        return field_from_interior(g, primitive_to_conserved(model, w))

    single = run_mlmc(
        MlmcPlan((grid,), (8,), method="mc", seed=21, stochastic_dim=1),
        lambda g: cfg, evaluate_init,
    )
    stacked = run_mlmc(
        MlmcPlan((grid, grid), (8, 6), method="mc", seed=21, stochastic_dim=1),
        lambda g: cfg, evaluate_init,
    )
    correction = float(np.abs(stacked.mean - single.mean).max())

    plan = SamplePlan(method="mc", samples=8, seed=21, stochastic_dim=1)
    mc = run_mc(plan, grid, cfg, evaluate_init, [FieldMoments(grid, 3)])[0].acc
    bitwise = np.array_equal(single.mean, mc.mean) and np.array_equal(
        single.variance, mc.variance(ddof=1)
    )
    ok = correction <= 1e-12 and bitwise
    report(
        6, ok,
        f"identical-grid MLMC correction {correction:.1e} <= 1e-12; "
        f"L=1 estimate bitwise equal to single-level MC: {bitwise}",
    )


def test_criterion_7_estimator_determinism(tmp_path):
    text = KH2D.replace("cells = 64 64", "cells = 16 16").replace(
        "t_end = 2.0", "t_end = 0.02"
    ).replace("samples = 8", "samples = 4")
    cfg = tmp_path / "kh.cfg"
    cfg.write_text(text)
    outputs = {}
    for tag, workers in (("a", 1), ("b", 1), ("w2", 2), ("w4", 4)):
        out = tmp_path / tag
        code = main(["uq", str(cfg), "--output", str(out), "--workers", str(workers)])
        assert code == 0
        outputs[tag] = {
            p.name: strip_created(p.read_bytes()) for p in sorted(out.iterdir())
        }
    ok = all(outputs[tag] == outputs["a"] for tag in ("b", "w2", "w4"))
    report(
        7, ok,
        "uq statistics files byte-identical (minus timestamp) across reruns "
        "and worker counts {1, 2, 4}",
    )


def test_criterion_8_overhead_harness(tmp_path):
    def run_bench(preset, cells_old, cells_new, ranks, layout, out):
        text = preset.replace(cells_old, cells_new)
        path = tmp_path / f"{out}.cfg"
        path.write_text(text)
        outdir = tmp_path / out
        code = main([
            "bench", str(path), "--ranks", ranks, "--layout", layout,
            "--steps", "6", "--output", str(outdir),
        ])
        assert code == 0
        rows = [
            l.split(",") for l in (outdir / "bench.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        over = [
            l.split(",") for l in (outdir / "overhead.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        return rows, over

    rows2, over2 = run_bench(
        KH2D, "cells = 64 64", "cells = 16 16", "1,2,4", "multixmultiy", "b2"
    )
    rows3, over3 = run_bench(
        KH3D, "cells = 32 32 32", "cells = 16 16 16", "1,8", "multixmultiymultiz", "b3"
    )
    ok = True
    detail = []
    for name, rows, over, ks, steps in (
        ("2D", rows2, over2, [1, 2, 4], 6),
        ("3D", rows3, over3, [1, 8], 6),
    ):
        ok &= rows[0] == ["ranks", "layout", "cells_per_rank", "step", "seconds"]
        ok &= over[0] == ["ranks", "layout", "mean_seconds", "overhead_fraction"]
        ok &= len(rows) == 1 + len(ks) * steps
        ok &= sorted({int(r[0]) for r in rows[1:]}) == ks
        ok &= all(float(r[4]) > 0 for r in rows[1:])
        baseline = [r for r in over[1:] if int(r[0]) == 1]
        ok &= len(baseline) == 1 and float(baseline[0][3]) == 0.0
        detail.append(
            f"{name} overhead(1) = {float(baseline[0][3])!r}, "
            f"overhead({ks[-1]}) = {float(over[-1][3]):+.2f}"
        )
    report(8, ok, "bench CSVs well-formed; " + "; ".join(detail))


def test_criterion_9_weno_properties():
    rng = np.random.default_rng(99)
    um, uc, up = rng.normal(0.0, 5.0, (3, 100_000))
    eps = np.finfo(float).eps
    ok = True
    for kind in (ReconstructionKind.WENO2, ReconstructionKind.WENO3):
        w0, w1 = weno_weights(um, uc, up, kind)
        ok &= bool((w0 >= 0).all() and (w1 >= 0).all())
        ok &= bool(np.abs(w0 + w1 - 1.0).max() <= 4 * eps)
        const = np.full(3, 1.7)
        ok &= weno_face_value(const[0:1], const[1:2], const[2:3], kind, 1e-6)[0] == 1.7

    # first-order scheme keeps a monotone Burgers profile monotone
    from conslaw.equations import EquationModel
    from conslaw.grid import BoundaryKind
    from conslaw.numerics import FluxKind, Reconstruction
    from conslaw.solver import SchemeConfig

    g = GridSpec(1, (128,), (0.0,), (1.0,), ghost_width=1)
    x = g.cell_centers(0)
    f = field_from_interior(g, (2.0 + np.tanh(8.0 * (0.5 - x)))[None])
    cfg = SchemeConfig(
        model=EquationModel(kind="burgers", dim=1),
        flux=FluxKind.RUSANOV,
        recon=Reconstruction(ReconstructionKind.NONE),
        rk_order=1,
        t_end=0.15,
        bc=(BoundaryKind.OUTFLOW,),
    )
    final, _ = run_simulation(f, cfg)
    monotone = bool((np.diff(final.interior[0]) <= 1e-12).all())
    ok &= monotone
    report(
        9, ok,
        "10^5 random stencils: weights nonnegative, sum within 4 ulps of 1; "
        f"constants exact; monotone Burgers stays monotone: {monotone}",
    )


def test_criterion_10_round_trips(tmp_path):
    # snapshot round trip
    grid = GridSpec(2, (8, 6), (0.0, 0.0), (1.0, 1.0))
    rng = np.random.default_rng(101)
    field = field_from_interior(grid, rng.normal(0.0, 1.0, (4, 6, 8)))
    path = tmp_path / "f.snap"
    write_snapshot(field, OutputHeader("d1gest", 7), path)
    back, _ = read_snapshot(path)
    snap_ok = np.array_equal(back.interior, field.interior)

    # expression print/parse fixed point
    exprs = [
        "y < 0.25 + 0.01 * sin(2 * pi * (x + X0)) ? 1.0 : 2.0",
        "-(x + y) ^ 2 / (1 + abs(z))",
        "min(x, 0.5) * max(y, 0.25) - 2 ^ 3 ^ 2",
    ]
    expr_ok = all(
        print_expr(parse_expr(print_expr(parse_expr(t)))) == print_expr(parse_expr(t))
        for t in exprs
    )

    # digest stability under reformatting, sensitivity to values
    noisy = KH2D.replace("samples = 8", "samples =    8   # noise") + "\n# trailing\n"
    digest_ok = (
        canonical_digest(noisy) == canonical_digest(KH2D)
        and canonical_digest(KH2D.replace("seed = 42", "seed = 43"))
        != canonical_digest(KH2D)
    )
    ok = snap_ok and expr_ok and digest_ok
    report(
        10, ok,
        f"snapshot bitwise round trip: {snap_ok}; expression print/parse "
        f"fixed point: {expr_ok}; digest canonicalization: {digest_ok}",
    )
