"""Benchmark of conslaw on Kelvin-Helmholtz workloads: serial, 2-rank and UQ.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads (rationale in BENCHMARK.json,
layer map in perfbench/layer_map.json):

  kh2d-serial  conslaw run, kh2d preset at 64x64, t_end 0.2, 1 rank
  kh2d-2rank   the same config with --ranks 2x1
  uq-kh2d      conslaw uq twice, workers = 2: MC at 32x32 with the moments,
               histogram and structure_function functionals, then 3-level
               MLMC at 16x16, 32x32 and 64x64

The seed goes into the config files, which are written from the shipped
kh2d preset; the program sees only those configs.  Each command runs in a
fresh interpreter (perfbench/child.py) against src/ of this checkout, one at a
time in a closed loop until --seconds have passed.  Every run's outputs are
checked; a run that exits non-zero or fails a check counts as failed.

With --trace 0 the last stdout line reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run that alternates traced and
untraced runs, so it also reports the tracing overhead.  The full record,
with the machine description, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from layers import SpanTotals
from machine import describe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench" / "work"
RESULTS = ROOT / ".perfbench" / "results"

RUN_T_END = 0.2
UQ_T_END = 0.05
MC_FUNCTIONALS = "moments histogram structure_function"
MLMC_LEVEL_SAMPLES = "8 4 2"
UQ_WORKERS = 2
SETUP_PROBES = 5
# The whole run must end within 180 s; the loop stops starting commands
# early enough for the slowest workload run to finish.
RUN_BUDGET_S = 170.0
MAX_DRIFT = 1e-12


class BenchError(Exception):
    """Set-up failed: no result can be reported."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Command:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    started: float
    out: dict | None
    log: Path


CPUS = sorted(os.sched_getaffinity(0))


def _env() -> dict:
    return dict(
        os.environ,
        # git (for the output stamps) must not look above the checkout
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
        PERFBENCH_CPUS=",".join(map(str, CPUS)),
    )


def spawn(args, tag: str, deadline: float, turn: int = 0) -> Command:
    """Run ``child.py`` and wait for it; killed at ``deadline``.

    A child stays on the CPU it starts on, and on a shared host the CPUs run
    at different speeds for seconds at a time.  Successive ``turn``s start
    the child on each CPU in turn (the child then allows itself every CPU
    again), so a run's median does not hinge on one CPU."""
    out_path = WORK / f"{tag}.json"
    log = WORK / f"{tag}.log"
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})
    with open(log, "wb") as fh:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(out_path)] + args,
            stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT, env=_env(),
        )
    os.sched_setaffinity(0, CPUS)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(deadline - time.monotonic(), 1.0))
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.monotonic() - started
    # reaped by wait4 (for its rusage); tell Popen so it never waits again
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = json.loads(out_path.read_text()) if out_path.exists() else None
    return Command(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        started=started,
        out=out,
        log=log,
    )


def _log_tail(cmd: Command) -> str:
    text = cmd.log.read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-3:])


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _set(text: str, key: str, value: str) -> str:
    pattern = re.compile(rf"^{re.escape(key)} = .*$", re.M)
    new, n = pattern.subn(lambda m: f"{key} = {value}", text)
    if n != 1:
        raise BenchError(f"kh2d preset has {n} '{key}' lines, expected 1")
    return new


def write_configs(seed: int, deadline: float) -> dict:
    """Config files of every workload, derived from the shipped kh2d preset."""
    preset = WORK / "kh2d.cfg"
    cmd = spawn(["run", "--", "preset", "kh2d", "--output", str(preset)], "preset", deadline)
    if cmd.rc != 0:
        raise BenchError(f"conslaw preset kh2d failed: {_log_tail(cmd)}")
    base = _set(preset.read_text(), "seed", str(seed))

    run = _set(_set(base, "t_end", repr(RUN_T_END)), "snapshot_times", repr(RUN_T_END))
    uq = _set(_set(base, "t_end", repr(UQ_T_END)), "snapshot_times", repr(UQ_T_END))
    uq = _set(uq, "workers", str(UQ_WORKERS))
    mc = _set(_set(uq, "cells", "32 32"), "functionals", MC_FUNCTIONALS)
    levels = len(MLMC_LEVEL_SAMPLES.split())
    if uq.count("[uq]\n") != 1:
        raise BenchError("kh2d preset has no single [uq] section")
    mlmc = uq.replace(
        "[uq]\n", f"[uq]\nlevels = {levels}\nlevel_samples = {MLMC_LEVEL_SAMPLES}\n"
    )
    paths = {}
    for name, text in (("run", run), ("mc", mc), ("mlmc", mlmc)):
        paths[name] = WORK / f"{name}.cfg"
        paths[name].write_text(text)
    return paths


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _payload(path: Path) -> bytes:
    """Snapshot data after the header, or a CSV without its comment lines;
    headers carry a creation time, so only payloads compare bitwise."""
    blob = path.read_bytes()
    if path.suffix == ".snap":
        return blob.split(b"\n\n", 1)[1]
    return b"\n".join(l for l in blob.splitlines() if not l.startswith(b"#"))


def outputs(directory: Path) -> dict:
    return {p.name: _payload(p) for p in sorted(directory.iterdir())}


def compare(found: dict, expected: dict, what: str) -> list[str]:
    if sorted(found) != sorted(expected):
        return [f"{what}: files {sorted(found)} != {sorted(expected)}"]
    return [f"{what}: {name} differs" for name in expected if found[name] != expected[name]]


def check_run_output(directory: Path, t_end: float) -> tuple[int, list[str]]:
    """(steps, problems) of a periodic ``conslaw run``: conservation drift and
    final time.  Steps come from timing.csv; summary.txt prints final_time as
    a numpy repr."""
    rows = [
        line for line in (directory / "timing.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ][1:]
    summary = (directory / "summary.txt").read_text()
    drift = float(re.search(r"^conservation_drift: (\S+)$", summary, re.M).group(1))
    t_final = float(rows[-1].split(",")[1]) if rows else 0.0
    problems = []
    if not drift <= MAX_DRIFT:
        problems.append(f"conservation drift {drift:g} > {MAX_DRIFT:g}")
    # the solver stops once t_end - t <= 1e-14 t_end
    if not abs(t_final - t_end) <= 1e-14 * t_end:
        problems.append(f"final time {t_final!r} != t_end {t_end!r}")
    return len(rows), problems


def negative_variance_cells(path: Path) -> int:
    """Cells of a variance snapshot with a negative value in any component."""
    blob = path.read_bytes()
    head, data = blob.split(b"\n\n", 1)
    header = dict(
        line.split(": ", 1) for line in head.decode().splitlines()[1:] if ": " in line
    )
    ncomp = int(header["ncomp"])
    values = array("d")
    values.frombytes(data)
    ncell = len(values) // ncomp
    return sum(
        any(values[c * ncell + i] < 0.0 for c in range(ncomp)) for i in range(ncell)
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """One workload run: every command of it, in order."""

    commands: list
    traced: bool
    problems: list = field(default_factory=list)
    cell_steps: int = 0
    solves: int = 0
    negative_variance_cells: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)


class Workload:
    name = ""
    configs: tuple = ()
    ranks: str | None = None

    def __init__(self, paths: dict):
        self.paths = paths
        # interior cells of each config's grid, from the set-up probe
        self.cells: dict = {}
        # a failed reference run fails every timed run's check
        self.reference_problems: list = []

    def reference(self, deadline: float) -> None:
        """Untimed runs the timed runs are checked against."""

    def command_args(self, outdir: Path) -> list:
        raise NotImplementedError

    def check(self, record: RunRecord, outdir: Path) -> None:
        raise NotImplementedError


class SerialRun(Workload):
    name = "kh2d-serial"
    configs = ("run",)
    # without a reference run, every run must reproduce the first one
    reference_name = "first run"

    def __init__(self, paths):
        super().__init__(paths)
        self.expected = None

    def command_args(self, outdir):
        args = ["run", str(self.paths["run"]), "--output", str(outdir / "run")]
        if self.ranks:
            args += ["--ranks", self.ranks]
        return [args]

    def check(self, record, outdir):
        steps, problems = check_run_output(outdir / "run", RUN_T_END)
        record.problems += self.reference_problems + problems
        record.cell_steps = steps * self.cells["run"]
        record.solves = 1
        final = _payload(outdir / "run" / "final.snap")
        if self.expected is None:
            self.expected = final
        elif final != self.expected:
            record.problems.append(f"final.snap differs from the {self.reference_name}")


class TwoRankRun(SerialRun):
    name = "kh2d-2rank"
    ranks = "2x1"
    reference_name = "serial run"

    def reference(self, deadline):
        outdir = WORK / "reference"
        args = ["run", str(self.paths["run"]), "--output", str(outdir)]
        cmd = spawn(["run", "--"] + args, "reference", deadline)
        if cmd.rc == 0:
            self.expected = _payload(outdir / "final.snap")
        else:
            self.reference_problems.append(f"serial reference failed: {_log_tail(cmd)}")


class UqCampaigns(Workload):
    name = "uq-kh2d"
    configs = ("mc", "mlmc")

    def __init__(self, paths):
        super().__init__(paths)
        self.expected = {}
        self.cell_steps = 0
        self.solves = 0

    def command_args(self, outdir):
        return [
            ["uq", str(self.paths[c]), "--output", str(outdir / c)] for c in self.configs
        ]

    def reference(self, deadline):
        """Workers = 1 runs of both campaigns, which also count the solves:
        the count repeats exactly for a seed, and timed runs must match these
        outputs bitwise."""
        for c in self.configs:
            outdir = WORK / "reference" / c
            args = ["uq", str(self.paths[c]), "--workers", "1", "--output", str(outdir)]
            cmd = spawn(["run", "--count", "--"] + args, f"reference-{c}", deadline)
            if cmd.rc != 0 or cmd.out is None:
                self.reference_problems.append(
                    f"workers = 1 reference of {c} failed: {_log_tail(cmd)}"
                )
                continue
            if not cmd.out["solves"]:
                raise BenchError(f"{c}: no run_simulation call counted; update child.py")
            self.expected[c] = outputs(outdir)
            self.cell_steps += sum(cells * steps for cells, steps in cmd.out["solves"])
            self.solves += len(cmd.out["solves"])

    def check(self, record, outdir):
        record.problems += self.reference_problems
        for c in self.expected:
            record.problems += compare(outputs(outdir / c), self.expected[c], f"uq {c}")
        record.cell_steps = self.cell_steps
        record.solves = self.solves
        record.negative_variance_cells = negative_variance_cells(
            outdir / "mlmc" / "variance.snap"
        )


WORKLOADS = {w.name: w for w in (SerialRun, TwoRankRun, UqCampaigns)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_once(workload: Workload, index: int, traced: bool, deadline: float) -> RunRecord:
    outdir = WORK / f"run-{index}"
    mode = ["--trace"] if traced else []
    record = RunRecord(commands=[], traced=traced)
    for k, args in enumerate(workload.command_args(outdir)):
        cmd = spawn(["run"] + mode + ["--"] + args, f"run-{index}-{k}", deadline, index // 2 + k)
        record.commands.append(cmd)
        if cmd.rc != 0:
            record.problems.append(f"{args[0]} exited {cmd.rc}: {_log_tail(cmd)}")
            break
        if traced and cmd.out is None:
            record.problems.append("traced command left no spans")
            break
    if record.ok:
        try:
            workload.check(record, outdir)
        except (OSError, ValueError, AttributeError, IndexError, KeyError) as exc:
            record.problems.append(f"unreadable output: {exc!r}")
    shutil.rmtree(outdir, ignore_errors=True)
    return record


def setup_probe(workload: Workload, index: int, deadline: float) -> tuple[float, dict]:
    """Seconds from process spawn until conslaw is imported, each config
    parsed and its initial data evaluated; and the probe's report."""
    configs = [str(workload.paths[c]) for c in workload.configs]
    cmd = spawn(["setup"] + configs, f"setup-{index}", deadline, index)
    if cmd.rc != 0 or cmd.out is None:
        raise BenchError(f"set-up probe failed: {_log_tail(cmd)}")
    return cmd.out["done"] - cmd.started, cmd.out


def working_set(report: dict, ranks: str | None) -> dict:
    """Computed bytes of one field (all components, ghosts included) for
    every grid the workload solves on: each MLMC level, or one rank's part."""
    out = {}

    def add(label, cells, g, ncomp):
        out[label] = ncomp * 8 * math.prod(n + 2 * g for n in cells)

    for grid in report["grids"]:
        cells, g, ncomp = grid["cells"], grid["ghost_width"], grid["ncomp"]
        for level in range(grid["levels"]):
            level_cells = [n // 2 ** (grid["levels"] - 1 - level) for n in cells]
            add("x".join(map(str, level_cells)), level_cells, g, ncomp)
        if ranks:
            local = [n // int(r) for n, r in zip(cells, ranks.split("x"))]
            add("x".join(map(str, local)) + f" (one rank of {ranks})", local, g, ncomp)
    return out


def end_to_end(runs: list, setup_times: list) -> dict:
    good = [r for r in runs if r.ok] or runs
    return {
        "wall_s": statistics.median(r.wall_s for r in good),
        "mcell_steps_per_s": statistics.median(r.cell_steps / r.wall_s / 1e6 for r in good),
        "samples_per_s": statistics.median(r.solves / r.wall_s for r in good),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(max(c.maxrss_mb for c in r.commands) for r in good),
    }


def per_layer(runs: list) -> tuple[dict, dict, list]:
    traced = [r for r in runs if r.traced and r.ok]
    plain = [r for r in runs if not r.traced and r.ok]
    if not traced or not plain:
        # a failing program still reports what its spans show
        traced = [r for r in runs if r.traced and all(c.out for c in r.commands)]
        plain = [r for r in runs if not r.traced]
    if not traced or not plain:
        raise BenchError("no traced run left spans to report")
    per_run, self_times, absent = [], [], set()
    for r in traced:
        totals = SpanTotals()
        for c in r.commands:
            totals.add_command(c.out)
        m = totals.metrics()
        m["uq.mlmc.negative_variance_cells"] = r.negative_variance_cells
        per_run.append(m)
        self_times.append({n: t for n, t in totals.self_s.items() if totals.calls[n]})
        absent |= totals.absent
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    traced_wall = statistics.median(r.wall_s for r in traced)
    plain_wall = statistics.median(r.wall_s for r in plain)
    metrics.update({
        "cpu_per_wall": sum(c.cpu_s for r in plain for c in r.commands)
        / sum(r.wall_s for r in plain),
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_ratio": traced_wall / plain_wall,
        "trace.absent_targets": len(absent),
    })
    names = sorted({n for s in self_times for n in s})
    self_median = {n: statistics.median(s.get(n, 0.0) for s in self_times) for n in names}
    return metrics, self_median, sorted(absent)


def print_self_times(self_median: dict) -> None:
    total = sum(self_median.values()) or 1.0
    by_layer: dict = {}
    for name, s in self_median.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s
    print("self time per span (median over traced runs, summed over threads):")
    for name, s in sorted(self_median.items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {s:10.4f} s  {100 * s / total:5.1f}%")
    print("self time per layer:")
    for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:28s} {s:10.4f} s  {100 * s / total:5.1f}%")


def measure(args, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    workload = WORKLOADS[args.workload](write_configs(args.seed, deadline))
    first_setup, probe = setup_probe(workload, 0, deadline)
    setup_times = [first_setup]
    for name, grid in zip(workload.configs, probe["grids"]):
        workload.cells[name] = math.prod(grid["cells"])
    workload.reference(deadline)

    runs: list[RunRecord] = []
    start = time.monotonic()
    # The machine's speed drifts over seconds, so set-up is probed before
    # every run, not only up front.  A run may start while the window is
    # open and the budget allows twice the slowest run so far.
    while True:
        elapsed = time.monotonic() - start
        slowest = max((r.wall_s for r in runs), default=0.0)
        traced_done = any(r.traced for r in runs)
        enough = len(setup_times) >= SETUP_PROBES and (traced_done or not args.trace)
        if runs and elapsed >= args.seconds and enough:
            break
        if runs and time.monotonic() + 2 * slowest > deadline:
            break
        setup_times.append(setup_probe(workload, len(setup_times), deadline)[0])
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(run_once(workload, len(runs), traced, deadline))

    failed = sum(not r.ok for r in runs)
    e2e = end_to_end(runs, setup_times)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": len(runs),
        "failed": failed,
        "failed_share": failed / len(runs),
        "problems": sorted({p for r in runs for p in r.problems}),
        "machine": describe(ROOT, probe),
        "working_set_bytes": working_set(probe, workload.ranks),
        "end_to_end": e2e,
        "setup_s_samples": setup_times,
        "wall_s_samples": [r.wall_s for r in runs],
        "cpu_s_samples": [sum(c.cpu_s for c in r.commands) for r in runs],
    }
    print(f"perfbench {args.workload} seed={args.seed} runs={len(runs)} "
          f"failed={failed} failed_share={failed / len(runs):.3f}")
    for p in record["problems"]:
        print(f"  check failed: {p}")
    l2 = record["machine"]["cache_bytes"].get("L2")
    print("machine: " + json.dumps(record["machine"]))
    for label, size in record["working_set_bytes"].items():
        share = f" ({100 * size / l2:.1f}% of per-core L2)" if l2 else ""
        print(f"working set per field {label}: {size} B{share}")
    if args.trace:
        metrics, self_median, absent = per_layer(runs)
        record["per_layer"] = metrics
        record["self_s"] = self_median
        for name in absent:
            print(f"trace target absent: {name}")
        print_self_times(self_median)
        print(f"tracing overhead: traced wall_s {metrics['trace.traced_wall_s']:.4f} s "
              f"vs untraced {metrics['trace.untraced_wall_s']:.4f} s "
              f"(x{metrics['trace.overhead_ratio']:.3f})")
    else:
        metrics = e2e
    for m in names:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(WORK, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must lie in [0, 2**63)")
    if not (ROOT / "src" / "conslaw" / "__init__.py").is_file():
        print(f"error: no conslaw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        result = measure(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
