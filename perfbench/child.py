"""One benchmark command in a fresh interpreter, run against ``src/`` of the
checkout this file sits in.

    python3 perfbench/child.py OUT.json run [--trace | --count] -- CLI-ARGS...
    python3 perfbench/child.py OUT.json setup CONFIG...

``run`` calls ``conslaw.cli.main(CLI-ARGS)`` and exits with its code.  With
``--trace`` every layer is wrapped (see ``tracer.py``) and the spans go to
OUT.json; with ``--count`` only the solves are counted, as (cells, steps) per
``run_simulation`` call.  ``setup`` imports conslaw, parses each config and
evaluates its initial data for sample 0, then records the monotonic clock so
the caller can time start-up from process spawn.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_conslaw():
    sys.path.insert(0, str(SRC))
    import conslaw.cli

    if Path(conslaw.__file__).resolve().parent.parent != SRC:
        sys.exit(f"conslaw imported from {conslaw.__file__}, not from {SRC}")
    return conslaw.cli


def _setup(configs) -> dict:
    _import_conslaw()
    from conslaw.iodsl import eval_init, parse_config
    from conslaw.uq import SamplePlan, draw_sample

    grids = []
    for path in configs:
        cfg = parse_config(Path(path).read_text())
        plan = SamplePlan(
            method=cfg.uq.method, samples=max(cfg.uq.samples, 1),
            seed=cfg.uq.seed, stochastic_dim=cfg.uq.stochastic_dim,
        )
        eval_init(
            cfg.initial_exprs, cfg.scheme.model, cfg.grid, draw_sample(plan, 0),
            primitive=cfg.initial_primitive,
        )
        grids.append({
            "cells": list(cfg.grid.cells),
            "ghost_width": cfg.grid.ghost_width,
            "ncomp": cfg.scheme.model.ncomp,
            "levels": cfg.uq.levels,
        })
    done = time.monotonic()
    import numpy

    return {
        "done": done,
        "grids": grids,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def _install_solve_counter(solves: list) -> None:
    """Replace every module-level alias of ``run_simulation`` by a wrapper
    that records the interior cells and step count of each solve."""
    import conslaw.solver

    original = conslaw.solver.run_simulation

    def counted(init, *args, **kwargs):
        final, records = original(init, *args, **kwargs)
        solves.append((math.prod(init.grid.cells), len(records)))
        return final, records

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "conslaw":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, counted)


def _run(mode: str, argv) -> tuple[int, dict]:
    cli = _import_conslaw()
    out: dict = {}
    if mode == "--trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        rc = tracer.call("cli.main", cli.main, (argv,), {})
        out.update(tracer.dump())
    elif mode == "--count":
        solves: list = []
        _install_solve_counter(solves)
        rc = cli.main(argv)
        out["solves"] = solves
    else:
        rc = cli.main(argv)
    out["rc"] = rc
    return rc, out


def main(args) -> int:
    # run.py starts each child on one CPU; the program may use all of them
    cpus = os.environ.get("PERFBENCH_CPUS")
    if cpus:
        os.sched_setaffinity(0, [int(c) for c in cpus.split(",")])
    out_path, kind, *rest = args
    if kind == "setup":
        rc, out = 0, _setup(rest)
    elif kind == "run":
        split = rest.index("--")
        mode = rest[0] if split == 1 else None
        rc, out = _run(mode, rest[split + 1:])
    else:
        sys.exit(f"unknown command {kind!r}")
    Path(out_path).write_text(json.dumps(out))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
