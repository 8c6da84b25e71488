"""Command-line entry point.

Subcommands: ``run`` (deterministic simulation), ``uq`` (sampling campaign),
``bench`` (weak-scaling benchmark), ``preset`` (emit a shipped experiment
config).  Exit codes: 0 success, 1 runtime/numerical failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConslawError
from .grid import GridSpec, total_integral
from .iodsl import eval_init, parse_config
from .iodsl.config import check_workers
from .iodsl.output import OutputHeader, write_snapshot, write_stats
from .parallel import run_parallel
from .presets import PRESETS
from .solver import run_simulation
from .uq import (
    FieldMoments,
    Histogram,
    MlmcPlan,
    SamplePlan,
    StructureFunctionAccumulator,
    draw_sample,
    run_mc,
    run_mlmc,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_LAYOUTS_2D = ("multix", "multiy", "multixmultiy")
_LAYOUTS_3D = ("multix", "multiy", "multixmultiy", "multixmultiymultiz")


def _load_config(path: str):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(p.read_text())


def _output_dir(args, cfg) -> Path:
    """``--output``, else ``CONSLAW_OUTPUT_DIR``, else the config's
    ``[output] directory``, which is relative to the config file."""
    if getattr(args, "output", None):
        return Path(args.output)
    env = os.environ.get("CONSLAW_OUTPUT_DIR")
    if env:
        return Path(env)
    return Path(args.config).parent / cfg.output.directory


def _parse_ranks(text: str, dim: int) -> tuple:
    parts = text.lower().split("x")
    try:
        ranks = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"cannot parse rank layout {text!r}") from None
    if len(ranks) == 1:
        ranks = ranks + (1,) * (dim - 1)
    if len(ranks) != dim:
        raise ConfigError(f"rank layout {text!r} does not match dim {dim}")
    return ranks


def _sample_vector(cfg, seed_override=None):
    seed = cfg.uq.seed if seed_override is None else seed_override
    plan = SamplePlan(
        method=cfg.uq.method, samples=max(cfg.uq.samples, 1),
        seed=seed, stochastic_dim=cfg.uq.stochastic_dim,
    )
    return draw_sample(plan, 0), seed


def _write_csv(path: Path, header: OutputHeader, columns: str, rows) -> None:
    with open(path, "w") as fh:
        for line in header.lines():
            fh.write(f"# {line}\n")
        fh.write(columns + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    vector, seed = _sample_vector(cfg, args.seed)
    header = OutputHeader(cfg.digest, seed, sample=0)
    outdir = _output_dir(args, cfg)
    outdir.mkdir(parents=True, exist_ok=True)

    model = cfg.scheme.model
    init = eval_init(
        cfg.initial_exprs, model, cfg.grid, vector, primitive=cfg.initial_primitive
    )
    ranks = _parse_ranks(args.ranks, cfg.grid.dim) if args.ranks else cfg.ranks_per_axis
    names = model.component_names

    pending = sorted(cfg.output.snapshot_times)

    def snapshot_observer(step, t, field):
        while pending and t >= pending[0] - 1e-14:
            target = pending.pop(0)
            path = outdir / f"snapshot_t{target:g}.snap"
            write_snapshot(field, header, path, components=names)

    observers = [snapshot_observer] if pending else []
    if math.prod(ranks) == 1:
        final, records = run_simulation(init, cfg.scheme, observers=observers)
    else:
        final, records = run_parallel(init, cfg.scheme, ranks, observers=observers)
    step_rows = [(r.step, r.t, r.dt, r.seconds) for r in records]

    write_snapshot(final, header, outdir / "final.snap", components=names)
    _write_csv(outdir / "timing.csv", header, "step,t,dt,seconds", step_rows)

    q0 = total_integral(init)
    q1 = total_integral(final)
    scale = max(np.max(np.abs(q0)), 1e-300)
    drift = np.max(np.abs(q1 - q0)) / scale
    steps = len(step_rows)
    t_final = step_rows[-1][1] if step_rows else 0.0
    summary = (
        f"steps: {steps}\n"
        f"final_time: {t_final!r}\n"
        f"conservation_drift: {drift:.3e}\n"
    )
    with open(outdir / "summary.txt", "w") as fh:
        for line in header.lines():
            fh.write(f"# {line}\n")
        fh.write(summary)
    sys.stdout.write(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _probe_cells(points, grid: GridSpec):
    cells = []
    for pt in points:
        idx = []
        for k in range(grid.dim):
            i = int((pt[k] - grid.origin[k]) / grid.deltas[k])
            idx.append(min(max(i, 0), grid.cells[k] - 1))
        cells.append(tuple(idx))
    return cells


def _build_functionals(cfg):
    uq = cfg.uq
    model = cfg.scheme.model
    out = []
    for name in uq.functionals:
        if name == "moments":
            out.append(FieldMoments(cfg.grid, model.ncomp))
        elif name == "histogram":
            points = uq.histogram_points or ((tuple(
                o + 0.5 * e for o, e in zip(cfg.grid.origin, cfg.grid.extent)
            )),)
            out.append(
                Histogram(
                    _probe_cells(points, cfg.grid),
                    uq.histogram_component,
                    uq.histogram_range[0],
                    uq.histogram_range[1],
                    uq.histogram_bins,
                )
            )
        elif name == "structure_function":
            out.append(
                StructureFunctionAccumulator(
                    uq.structure_p, uq.structure_max_offset, uq.structure_component
                )
            )
    return out


def _level_grids(grid: GridSpec, levels: int):
    out = []
    for l in range(levels):
        factor = 2 ** (levels - 1 - l)
        cells = tuple(n // factor for n in grid.cells)
        out.append(
            GridSpec(grid.dim, cells, grid.origin, grid.extent, grid.ghost_width)
        )
    return tuple(out)


def cmd_uq(args) -> int:
    cfg = _load_config(args.config)
    if not cfg.has_uq_section:
        raise ConfigError("config has no [uq] section")
    uq = cfg.uq
    seed = uq.seed if args.seed is None else args.seed
    if args.workers is not None:
        check_workers(args.workers)
    header = OutputHeader(cfg.digest, seed)
    outdir = _output_dir(args, cfg)
    model = cfg.scheme.model

    def evaluate_init(grid, vector):
        return eval_init(
            cfg.initial_exprs, model, grid, vector, primitive=cfg.initial_primitive
        )

    if uq.levels > 1:
        if any(f != "moments" for f in uq.functionals):
            raise ConfigError(
                "multilevel estimation supports only the 'moments' functional"
            )
        plan = MlmcPlan(
            grids=_level_grids(cfg.grid, uq.levels),
            samples_per_level=uq.level_samples,
            method=uq.method,
            seed=seed,
            stochastic_dim=uq.stochastic_dim,
        )
        result = run_mlmc(plan, lambda g: cfg.scheme, evaluate_init)
        written = write_stats([result], header, outdir)
        sys.stdout.write(
            f"mlmc levels={uq.levels} samples={list(uq.level_samples)} "
            f"mean(rho) range [{result.mean[0].min():.6g}, {result.mean[0].max():.6g}]\n"
        )
        negative = int(np.any(result.variance < 0, axis=0).sum())
        if negative:
            print(
                f"warning: MLMC variance is negative in {negative} of "
                f"{math.prod(cfg.grid.cells)} cells",
                file=sys.stderr,
            )
    else:
        plan = SamplePlan(
            method=uq.method, samples=uq.samples, seed=seed,
            stochastic_dim=uq.stochastic_dim,
        )
        results = run_mc(
            plan, cfg.grid, cfg.scheme, evaluate_init, _build_functionals(cfg)
        )
        written = write_stats(results, header, outdir)
        for res in results:
            if isinstance(res, FieldMoments):
                sys.stdout.write(
                    f"moments over {plan.samples} samples: mean(c0) in "
                    f"[{res.acc.mean[0].min():.6g}, {res.acc.mean[0].max():.6g}], "
                    f"max variance {res.acc.variance().max():.6g}\n"
                )
            elif isinstance(res, Histogram):
                sys.stdout.write(
                    f"histogram: {len(res.probe_cells)} probes x {res.bins} bins, "
                    f"{res.samples} samples\n"
                )
            elif isinstance(res, StructureFunctionAccumulator):
                sys.stdout.write(
                    f"structure function p={res.p:g}: offsets 0..{res.max_offset}\n"
                )
    sys.stdout.write("wrote: " + " ".join(str(p) for p in written) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _layout_ranks(layout: str, K: int, dim: int) -> tuple:
    if dim == 2 and layout not in _LAYOUTS_2D:
        raise ConfigError(f"layout {layout!r} is not valid for a 2D run")
    if dim == 3 and layout not in _LAYOUTS_3D:
        raise ConfigError(f"layout {layout!r} is not valid for a 3D run")
    if dim == 1:
        if layout != "multix":
            raise ConfigError(f"layout {layout!r} is not valid for a 1D run")
        return (K,)
    if layout == "multix":
        return (K, 1) if dim == 2 else (K, 1, 1)
    if layout == "multiy":
        return (1, K) if dim == 2 else (1, K, 1)
    if layout == "multixmultiy":
        a = _near_factor(K, 2)
        ranks = (K // a, a)
        return ranks if dim == 2 else ranks + (1,)
    # multixmultiymultiz
    a = _near_factor(K, 3)
    rest = K // a
    b = _near_factor(rest, 2)
    return (rest // b, b, a)


def _near_factor(K: int, root: int) -> int:
    target = round(K ** (1.0 / root))
    for cand in range(target, 0, -1):
        if K % cand == 0:
            return cand
    return 1


def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    dim = cfg.grid.dim
    try:
        ks = [int(v) for v in args.ranks.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse rank list {args.ranks!r}") from None
    if any(k < 1 for k in ks):
        raise ConfigError("rank counts must be >= 1")
    steps = args.steps
    if steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {steps}")
    warmup = min(5, steps - 1)
    vector, seed = _sample_vector(cfg, args.seed)
    header = OutputHeader(cfg.digest, seed, sample=0)
    outdir = _output_dir(args, cfg)
    outdir.mkdir(parents=True, exist_ok=True)

    cells_per_rank = math.prod(cfg.grid.cells)
    model = cfg.scheme.model
    rows = []
    means = {}
    for K in ks:
        ranks = _layout_ranks(args.layout, K, dim)
        cells = tuple(n * r for n, r in zip(cfg.grid.cells, ranks))
        grid = GridSpec(
            dim, cells, cfg.grid.origin, cfg.grid.extent, cfg.grid.ghost_width
        )
        init = eval_init(
            cfg.initial_exprs, model, grid, vector, primitive=cfg.initial_primitive
        )
        _final, records = run_parallel(init, cfg.scheme, ranks, n_steps=steps)
        # wall time of each step of all ranks together
        per_step = [r.seconds for r in records]
        for s, seconds in enumerate(per_step):
            rows.append((K, args.layout, cells_per_rank, s, repr(seconds)))
        measured = per_step[warmup:]
        means[K] = sum(measured) / len(measured)

    _write_csv(
        outdir / "bench.csv", header, "ranks,layout,cells_per_rank,step,seconds", rows
    )
    base = means[ks[0]] if 1 not in means else means[1]
    overhead_rows = []
    for K in ks:
        # weak-scaling overhead: excess time per step over the 1-rank run
        # (or the first one listed), relative to it
        overhead = (means[K] - base) / base
        overhead_rows.append((K, args.layout, repr(means[K]), repr(overhead)))
        sys.stdout.write(f"ranks {K}: {means[K]:.6f} s/step, overhead {overhead:+.3f}\n")
    _write_csv(
        outdir / "overhead.csv",
        header,
        "ranks,layout,mean_seconds,overhead_fraction",
        overhead_rows,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


def cmd_preset(args) -> int:
    text = PRESETS[args.name]
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conslaw",
        description="Finite volume solver for conservation laws with built-in UQ",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="deterministic single-sample simulation")
    p_run.add_argument("config")
    p_run.add_argument("--ranks", help="rank layout, e.g. 1, 4 or 2x2")
    p_run.add_argument("--output", help="output directory")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.set_defaults(fn=cmd_run)

    p_uq = sub.add_parser("uq", help="sampling campaign with streamed statistics")
    p_uq.add_argument("config")
    p_uq.add_argument("--output", help="output directory")
    p_uq.add_argument("--seed", type=int, help="override the config seed")
    p_uq.add_argument(
        "--workers", type=int,
        help="override the worker count (checked, no effect: samples run on one thread)",
    )
    p_uq.set_defaults(fn=cmd_uq)

    p_bench = sub.add_parser("bench", help="weak-scaling benchmark")
    p_bench.add_argument("config", help="config whose grid is the per-rank load")
    p_bench.add_argument("--ranks", default="1,2,4", help="comma list of rank counts")
    p_bench.add_argument(
        "--layout",
        default="multix",
        choices=sorted(set(_LAYOUTS_2D + _LAYOUTS_3D)),
    )
    p_bench.add_argument("--steps", type=int, default=20, help="timesteps per point")
    p_bench.add_argument("--output", help="output directory")
    p_bench.add_argument("--seed", type=int, help="override the config seed")
    p_bench.set_defaults(fn=cmd_bench)

    p_preset = sub.add_parser("preset", help="emit a shipped experiment config")
    p_preset.add_argument("name", choices=sorted(PRESETS))
    p_preset.add_argument("--output", help="file to write (default: stdout)")
    p_preset.set_defaults(fn=cmd_preset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConslawError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
