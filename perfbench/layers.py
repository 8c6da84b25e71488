"""Per-layer metrics from the spans of traced benchmark commands.

A span's self time is its duration minus the part of it that its children
cover.  Children on the same thread nest, so that part is the sum of their
durations.  Children on other threads (rank threads, the overlap helper, UQ
workers) run concurrently, so a span that starts threads and waits for them
has as self time only the part of its interval during which none of them is
inside a span.  Self times summed over threads can exceed the wall time.
"""

from __future__ import annotations

import re
from collections import defaultdict

_RANK = re.compile(r"^rank-(\d+)")


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0 <= q <= 100); 0 when empty."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _rank_of(thread: str):
    m = _RANK.match(thread)
    return int(m.group(1)) if m else None


class SpanTotals:
    """Sums over the spans of one or more commands (one workload run)."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.value = defaultdict(int)
        self.counts = defaultdict(int)
        self.durations = defaultdict(list)
        self.rank_residual_s = defaultdict(float)
        self.campaign_worker_s = 0.0
        self.steps = 0
        self.absent: set[str] = set()

    def add_command(self, dump: dict) -> None:
        spans = dump["spans"]
        children = defaultdict(list)
        for sid, name, thread, parent, start, end, value in spans:
            if parent is not None:
                children[parent].append((start, end))
        for sid, name, thread, parent, start, end, value in spans:
            d = end - start
            self.self_s[name] += d - _covered(children.get(sid, ()), start, end)
            self.incl_s[name] += d
            self.calls[name] += 1
            self.durations[name].append(d)
            if value is not None:
                self.value[name] += value
            rank = _rank_of(thread)
            if name == "solver.step" and not rank:
                # one step per solve on the serial path or rank 0
                self.steps += 1
            if name == "solver.residual":
                self.rank_residual_s[rank or 0] += d
            if name == "uq.campaign":
                # value is the worker count; None if the campaign raised
                self.campaign_worker_s += d * (value or 1)
        for name, n in dump["counts"].items():
            self.counts[name] += n
        self.absent.update(dump["absent"])

    def metrics(self) -> dict:
        s, c, v = self.self_s, self.calls, self.value
        steps = self.steps
        faces = v["numerics.flux"]
        busy = list(self.rank_residual_s.values())
        sample_s = self.durations["uq.sample"]
        return {
            "numerics.reconstruct.self_s": s["numerics.reconstruct"],
            "numerics.reconstruct.calls": c["numerics.reconstruct"],
            "numerics.flux.self_s": s["numerics.flux"],
            "numerics.flux.calls": c["numerics.flux"],
            "numerics.flux.ns_per_face": _ratio(self.incl_s["numerics.flux"] * 1e9, faces),
            "numerics.faces": faces,
            "equations.pressure.calls_per_step": _ratio(self.counts["equations.pressure"], steps),
            "equations.physical_mask.self_s": s["equations.physical_mask"],
            "solver.residual.self_s": s["solver.residual"],
            "solver.cfl.self_s": s["solver.cfl"],
            "solver.rk.self_s": s["solver.rk"],
            "solver.stage_alloc.self_s": s["solver.stage_alloc"],
            "solver.fallback.activations": v["numerics.reconstruct"],
            "solver.steps": steps,
            "solver.step_ms.p50": 1e3 * percentile(self.durations["solver.step"], 50),
            "solver.step_ms.p90": 1e3 * percentile(self.durations["solver.step"], 90),
            "grid.fill.self_s": s["grid.fill"],
            "parallel.exchange.self_s": s["parallel.exchange"],
            "parallel.exchange.calls": c["parallel.exchange"],
            "parallel.halo.messages_per_step": _ratio(c["parallel.send"], steps),
            "parallel.halo.bytes_per_step": _ratio(v["parallel.send"], steps),
            "parallel.recv_wait_s": self.incl_s["parallel.recv"],
            "parallel.allreduce_wait_s": self.incl_s["parallel.allreduce"],
            "parallel.overlap_residual.self_s": s["parallel.overlap_residual"],
            "parallel.rank_imbalance": _ratio(max(busy), sum(busy) / len(busy)) if busy else 0.0,
            "uq.sample_s.p50": percentile(sample_s, 50),
            "uq.sample_s.p90": percentile(sample_s, 90),
            "uq.draw_s": self.incl_s["uq.draw"],
            "uq.functional.update_s": s["uq.functional.update"],
            "uq.functional.merge_s": s["uq.functional.merge"],
            "uq.worker_busy_frac": _ratio(sum(sample_s), self.campaign_worker_s),
            "iodsl.parse_config_s": self.incl_s["iodsl.parse_config"],
            "iodsl.eval_init_s": self.incl_s["iodsl.eval_init"],
            "iodsl.write_snapshot_s": self.incl_s["iodsl.write_snapshot"],
            "iodsl.write_snapshot_bytes": v["iodsl.write_snapshot"],
            "iodsl.write_stats_s": self.incl_s["iodsl.write_stats"],
            "cli.other_s": s["cli.main"],
        }


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0
