"""Command-line entry point.

Subcommands: ``run`` (deterministic simulation), ``uq`` (sampling campaign),
``bench`` (weak-scaling benchmark), ``preset`` (emit a shipped experiment
config).  Exit codes: 0 success, 1 runtime/numerical failure (a file that
cannot be written included), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConslawError
from .grid import GridSpec, total_integral
from .iodsl import eval_init, parse_config
from .iodsl.config import check_workers
from .iodsl.output import OutputHeader, write_csv, write_snapshot, write_stats
from .parallel import local_grid
from .presets import PRESETS
from .solver import bind_run, run_simulation
from .uq import draw_sample, run_mlmc

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
    ``[output] directory``, which is relative to the config file.

    Called before any solve, it makes nothing (the first write makes the
    directory) but raises the OSError of that write now, not after the
    solve, when the nearest existing ancestor of the directory is not a
    directory or is not writable."""
    if getattr(args, "output", None):
        outdir = Path(args.output)
    else:
        env = os.environ.get("CONSLAW_OUTPUT_DIR")
        outdir = Path(env) if env else Path(args.config).parent / cfg.output.directory
    base = outdir
    while not base.exists() and base != base.parent:
        base = base.parent
    if not base.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(outdir))
    if not os.access(base, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(outdir))
    return outdir


def _parse_ranks(text: str, dim: int) -> tuple:
    """``--ranks`` as counts joined by ``x``; a single count splits x alone."""
    try:
        ranks = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"cannot parse rank layout {text!r}") from None
    return ranks + (1,) * (dim - 1) if len(ranks) == 1 else ranks


# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    ranks = _parse_ranks(args.ranks, cfg.grid.dim) if args.ranks else cfg.ranks_per_axis
    local_grid(cfg.grid, ranks)
    plan = cfg.uq.plan(cfg.grid, args.seed)
    header = OutputHeader(cfg.digest, plan.seed, sample=0)
    outdir = _output_dir(args, cfg)

    model = cfg.scheme.model
    init = eval_init(
        cfg.initial_exprs, model, cfg.grid, draw_sample(plan, 0),
        primitive=cfg.initial_primitive,
    )
    # the initial field is read twice, for its integral and to fill the
    # stack, and then let go: the stack is the state from here on
    q0 = total_integral(init)
    state = bind_run(init, cfg.scheme, ranks)
    del init
    names = model.component_names

    pending = sorted(cfg.output.snapshot_times)

    def snapshot_observer(step, t, field):
        while pending and t >= pending[0] - 1e-14:
            target = pending.pop(0)
            path = outdir / f"snapshot_t{target:g}.snap"
            write_snapshot(field(), header, path, components=names)

    observers = [snapshot_observer] if pending else []
    final, records = run_simulation(state, cfg.scheme, ranks, observers)
    del state
    step_rows = [(r.step, r.t, r.dt, r.seconds) for r in records]
    for target in pending:
        print(f"warning: snapshot time {target:g} lies past t_end {cfg.scheme.t_end:g}, "
              "not written", file=sys.stderr)

    write_snapshot(final, header, outdir / "final.snap", components=names)
    write_csv(outdir / "timing.csv", header, "step,t,dt,seconds", step_rows)

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
        fh.write(header.comments())
        fh.write(summary)
    sys.stdout.write(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------


def cmd_uq(args) -> int:
    cfg = _load_config(args.config)
    if not cfg.has_uq_section:
        raise ConfigError("config has no [uq] section")
    if args.workers is not None:
        check_workers(args.workers)
    plan = cfg.uq.plan(cfg.grid, args.seed)
    header = OutputHeader(cfg.digest, plan.seed)
    outdir = _output_dir(args, cfg)
    model = cfg.scheme.model

    def evaluate_init(grid, vector):
        return eval_init(
            cfg.initial_exprs, model, grid, vector, primitive=cfg.initial_primitive
        )

    results = run_mlmc(plan, cfg.scheme, evaluate_init,
                       lambda grid: cfg.uq.build_functionals(grid, model.ncomp, cfg.scheme.bc))
    written = write_stats(results, header, outdir)
    for res in results:
        res.report(sys.stdout, sys.stderr)
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
    # every layout and its global grid, checked before the first run
    runs = []
    for K in ks:
        ranks = _layout_ranks(args.layout, K, dim)
        cells = tuple(n * r for n, r in zip(cfg.grid.cells, ranks))
        grid = GridSpec(
            dim, cells, cfg.grid.origin, cfg.grid.extent, cfg.grid.ghost_width
        )
        local_grid(grid, ranks)
        runs.append((K, ranks, grid))
    plan = cfg.uq.plan(cfg.grid, args.seed)
    vector = draw_sample(plan, 0)
    header = OutputHeader(cfg.digest, plan.seed, sample=0)
    outdir = _output_dir(args, cfg)

    cells_per_rank = math.prod(cfg.grid.cells)
    model = cfg.scheme.model
    rows = []
    means = {}
    for K, ranks, grid in runs:
        init = eval_init(
            cfg.initial_exprs, model, grid, vector, primitive=cfg.initial_primitive
        )
        _final, records = run_simulation(init, cfg.scheme, ranks, steps=steps)
        # wall time of each step of all ranks together
        per_step = [r.seconds for r in records]
        for s, seconds in enumerate(per_step):
            rows.append((K, args.layout, cells_per_rank, s, seconds))
        measured = per_step[warmup:]
        means[K] = sum(measured) / len(measured)

    write_csv(
        outdir / "bench.csv", header, "ranks,layout,cells_per_rank,step,seconds", rows
    )
    base = 1 if 1 in means else ks[0]
    overhead_rows = []
    for K in ks:
        # weak-scaling overhead: excess time per step and rank over the 1-rank
        # run (or the first one listed), relative to it; all ranks share one
        # thread, so K ranks at perfect efficiency take K times as long
        overhead = (means[K] / K) / (means[base] / base) - 1
        overhead_rows.append((K, args.layout, means[K], overhead))
        sys.stdout.write(f"ranks {K}: {means[K]:.6f} s/step, overhead {overhead:+.3f}\n")
    write_csv(
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
    except (ConslawError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


# The modules loaded so far live until exit: the collections of a run, and the
# one at interpreter exit, skip them from here on.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
