"""Span tracer that wraps conslaw's functions where their callers look them up.

The tracer is installed in a benchmark child process before
``conslaw.cli.main`` runs; no file under ``src/`` knows about it.  Each span
records its name, start, end, parent span and thread (rank or worker).  Spans
stay in memory and are written out when the command ends.

Wrapping happens at the module attribute a caller resolves at call time
(``conslaw.solver.reconstruct_axis`` for ``spatial_residual``,
``conslaw.parallel.ssp_rk_step`` for the rank loop, and so on).  A target that
no longer exists is reported as absent, so the benchmark keeps running after a
later change removes or fuses a function.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time


def _faces(args, kwargs, result):
    return int(result[0].size)


def _payload_bytes(args, kwargs, result):
    msg = args[1] if len(args) > 1 else kwargs["msg"]
    return int(msg.payload.nbytes)


def _file_bytes(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return os.path.getsize(path)


def _is_first_order(args, kwargs, result):
    recon = args[4] if len(args) > 4 else kwargs["recon"]
    return int(recon.kind.value == "none")


def _workers(args, kwargs, result):
    return int(kwargs.get("workers", 1))


# (span name, module, attribute, value recorded with each span)
SPAN_TARGETS = (
    ("iodsl.parse_config", "conslaw.cli", "parse_config", None),
    ("iodsl.eval_init", "conslaw.cli", "eval_init", None),
    ("iodsl.write_snapshot", "conslaw.cli", "write_snapshot", _file_bytes),
    ("iodsl.write_snapshot", "conslaw.iodsl.output", "write_snapshot", _file_bytes),
    ("iodsl.write_stats", "conslaw.cli", "write_stats", None),
    ("solver.run", "conslaw.cli", "run_simulation", None),
    ("parallel.run", "conslaw.cli", "run_parallel", None),
    ("uq.campaign", "conslaw.cli", "run_mc", _workers),
    ("uq.campaign", "conslaw.cli", "run_mlmc", _workers),
    ("uq.sample", "conslaw.uq", "run_simulation", None),
    ("uq.draw", "conslaw.uq", "draw_sample", None),
    ("uq.functional.update", "conslaw.uq", "MomentAccumulator.update", None),
    ("uq.functional.update", "conslaw.uq", "FieldMoments.update", None),
    ("uq.functional.update", "conslaw.uq", "Histogram.update", None),
    ("uq.functional.update", "conslaw.uq", "StructureFunctionAccumulator.update", None),
    ("uq.functional.merge", "conslaw.uq", "MomentAccumulator.merge", None),
    ("uq.functional.merge", "conslaw.uq", "FieldMoments.merge", None),
    ("uq.functional.merge", "conslaw.uq", "Histogram.merge", None),
    ("uq.functional.merge", "conslaw.uq", "StructureFunctionAccumulator.merge", None),
    ("solver.step", "conslaw.solver", "ssp_rk_step", None),
    ("solver.step", "conslaw.parallel", "ssp_rk_step", None),
    ("solver.rk", "conslaw.solver", "ssp_rk_advance", None),
    ("solver.stage_alloc", "conslaw.solver", "field_from_interior", None),
    ("solver.residual", "conslaw.solver", "spatial_residual", None),
    ("solver.residual", "conslaw.parallel", "spatial_residual", None),
    ("solver.cfl", "conslaw.solver", "stable_dt", None),
    ("solver.cfl", "conslaw.solver", "wave_speed_maxima", None),
    ("solver.cfl", "conslaw.solver", "dt_from_maxima", None),
    ("solver.cfl", "conslaw.parallel", "wave_speed_maxima", None),
    ("solver.cfl", "conslaw.parallel", "dt_from_maxima", None),
    ("grid.fill", "conslaw.solver", "fill_boundary", None),
    ("grid.fill", "conslaw.parallel", "fill_axis", None),
    ("numerics.reconstruct", "conslaw.solver", "reconstruct_axis", _is_first_order),
    ("numerics.flux", "conslaw.solver", "numerical_flux", _faces),
    ("equations.physical_mask", "conslaw.solver", "physical_mask", None),
    ("equations.physical_mask", "conslaw.equations", "physical_mask", None),
    ("parallel.exchange", "conslaw.parallel", "exchange_halos", None),
    ("parallel.send", "conslaw.parallel", "InProcessTransport.send", _payload_bytes),
    ("parallel.recv", "conslaw.parallel", "InProcessTransport.receive", None),
    ("parallel.allreduce", "conslaw.parallel", "Reducer.allreduce", None),
    ("parallel.overlap_residual", "conslaw.parallel", "overlapped_residual", None),
)

# Called too often for a span each; only the calls are counted.
COUNT_TARGETS = (
    ("equations.pressure", "conslaw.equations", "pressure"),
    ("equations.pressure", "conslaw.numerics", "pressure"),
)


def _resolve(module: str, attr: str):
    """(owner, name) of a dotted attribute, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


class Tracer:
    def __init__(self):
        # (id, name, thread, parent id, start, end, value)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._counters: dict[str, itertools.count] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def current(self):
        """Innermost open span on this thread (or the span that started it)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "base", None)

    def adopt(self, parent) -> None:
        """Make ``parent`` (a span on another thread) the parent of this
        thread's outermost spans."""
        self._local.base = parent
        self._local.stack = []

    def call(self, name, fn, args, kwargs, measure=None):
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else getattr(local, "base", None)
        sid = next(self._ids)
        stack.append(sid)
        value = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                value = measure(args, kwargs, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, threading.current_thread().name, parent, start, end, value)
            )

    def _span_wrapper(self, name, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)

        return wrapper

    def _count_wrapper(self, name, fn):
        # next() on an itertools.count is atomic under the GIL, so rank and
        # worker threads need no lock, which would make them contend
        counter = self._counters.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, module, attr, measure in SPAN_TARGETS:
            self._patch(module, attr, functools.partial(self._span_wrapper, name, measure=measure))
        for name, module, attr in COUNT_TARGETS:
            self._patch(module, attr, functools.partial(self._count_wrapper, name))
        self._patch("conslaw.parallel", "threading", self._thread_module)
        self._patch("conslaw.uq", "ThreadPoolExecutor", self._pool_class)

    def _patch(self, module, attr, make):
        found = _resolve(module, attr)
        if found is None:
            self.absent.append(f"{module}.{attr}")
            return
        owner, name = found
        setattr(owner, name, make(getattr(owner, name)))

    def _thread_module(self, real_threading):
        """Stand-in for the ``threading`` module seen by one conslaw module:
        threads it starts inherit the creating thread's span as parent."""
        tracer = self

        class TracedThread(real_threading.Thread):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._trace_parent = tracer.current()
                if kwargs.get("name") is None:
                    self.name = f"{real_threading.current_thread().name}/{self.name}"

            def run(self):
                tracer.adopt(self._trace_parent)
                tracer.call("parallel.thread", super().run, (), {})

        class ThreadingProxy:
            Thread = TracedThread

            def __getattr__(self, item):
                return getattr(real_threading, item)

        return ThreadingProxy()

    def _pool_class(self, real_pool):
        tracer = self

        class TracedPool(real_pool):
            def __init__(self, max_workers=None, thread_name_prefix="", *args, **kwargs):
                super().__init__(
                    max_workers, thread_name_prefix or "worker", *args, **kwargs
                )

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run_adopted():
                    tracer.adopt(parent)
                    return fn(*args, **kwargs)

                return super().submit(run_adopted)

        return TracedPool

    def dump(self) -> dict:
        # a fresh count() yields 0, so next() returns the number of calls so far
        counts = {name: next(c) for name, c in self._counters.items()}
        return {"spans": self.spans, "counts": counts, "absent": self.absent}

