"""Sweeps that ``_faces.c`` shares with its helper thread: the residuals and
runs of grids above the sharing threshold against the face-by-face
reference and against a process pinned to one CPU, where no helper exists;
the failure of the lowest failing line whichever thread meets it; calls from
several threads; and the helper across ``fork``.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conslaw import numerics
from conslaw.errors import SimulationError, UnphysicalStateError
from conslaw.iodsl import eval_init, parse_config
from conslaw.numerics import SWEEP_DEGENERATE, EulerStack
from conslaw.parallel import exchange_halos, halo_plan, scatter_field
from conslaw.presets import KH2D, KH3D
from conslaw.solver import run_simulation, spatial_residual
from conslaw.uq import draw_sample
from test_compiled_sweep import _reference_residual

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs Linux CPU affinity"
)


def _constant(name):
    """A ``#define`` of ``_faces.c``."""
    return int(re.search(rf"#define {name} (\d+)", numerics._SOURCE.read_text()).group(1))


#: a sweep of at least these faces and more than these lines is shared
SHARE_MIN_FACES, CHUNK_LINES = _constant("SHARE_MIN_FACES"), _constant("CHUNK_LINES")

#: (config text, rank layouts) of the grids whose every sweep is shared
CASES = {
    "kh2d-64": (KH2D, [(1, 1), (2, 1), (2, 2)]),
    "kh3d-16": (KH3D.replace("cells = 32 32 32", "cells = 16 16 16"),
                [(1, 1, 1), (2, 1, 1), (2, 2, 1)]),
}
STEPS = 10


def _setup(name, ranks):
    """The ghost-filled stack of a case's first sample on ``ranks``, its
    scheme and the global initial field."""
    cfg = parse_config(CASES[name][0])
    plan = cfg.uq.plan(cfg.grid, None)
    init = eval_init(
        cfg.initial_exprs, cfg.scheme.model, cfg.grid, draw_sample(plan, 0),
        primitive=cfg.initial_primitive,
    )
    stack = EulerStack(scatter_field(init, ranks), cfg.scheme)
    exchange_halos(halo_plan(stack, ranks, cfg.scheme.bc))
    return stack, cfg.scheme, init




def _results(name, ranks):
    """The first residual, the cell pass's maxima and the field after STEPS
    steps of a case on ``ranks``."""
    stack, cfg, init = _setup(name, ranks)
    residual = spatial_residual(stack, cfg).copy()
    assert stack.cell_pass() == 0
    final, _ = run_simulation(init, cfg, ranks, steps=STEPS)
    return residual, stack.maxima.copy(), final.data


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _python(tmp_path, script, one_cpu):
    """Run ``script`` in a fresh interpreter, with ``one_cpu`` allowed one
    CPU before anything is imported; returns the JSON it prints last."""
    code = textwrap.dedent(script)
    if one_cpu:
        code = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" + code
    paths = [Path(numerics.__file__).parents[1], Path(__file__).parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _task_count():
    return len(os.listdir("/proc/self/task"))


def test_every_sweep_of_the_cases_is_shared():
    for name, (_, layouts) in CASES.items():
        for ranks in layouts:
            stack, _, _ = _setup(name, ranks)
            for n in stack.grid.cells:
                lines = stack.data.shape[1] * np.prod(stack.grid.cells) // n
                assert lines > CHUNK_LINES and lines * (n + 1) >= SHARE_MIN_FACES, (name, ranks)


def test_shared_sweeps_are_bitwise_equal_to_the_reference_and_to_one_cpu(tmp_path):
    here = {
        (name, ranks): _results(name, ranks)
        for name, (_, layouts) in CASES.items() for ranks in layouts
    }
    for (name, ranks), (residual, maxima, final) in here.items():
        stack, cfg, _ = _setup(name, ranks)
        want = _reference_residual(stack, cfg)
        assert np.array_equal(residual.view(np.int64), want.view(np.int64)), (name, ranks)
        # a decomposed run has the serial run's maxima and ends bitwise where it does
        _, serial_maxima, serial = here[(name, CASES[name][1][0])]
        assert np.array_equal(maxima.view(np.int64), serial_maxima.view(np.int64)), (name, ranks)
        assert np.array_equal(final.view(np.int64), serial.view(np.int64)), (name, ranks)
    # the same, computed where the process may run on one CPU only
    pinned = _python(tmp_path, """
        import json
        import test_shared_sweep as t
        out = {
            f"{name} {ranks}": [t._digest(a) for a in t._results(name, ranks)]
            for name, (_, layouts) in t.CASES.items() for ranks in layouts
        }
        out["tasks"] = t._task_count()
        print(json.dumps(out))
    """, one_cpu=True)
    # no helper started: the interpreter's own thread is the only one
    assert pinned.pop("tasks") == 1
    assert pinned == {
        f"{name} {ranks}": [_digest(a) for a in arrays] for (name, ranks), arrays in here.items()
    }


def test_a_shared_sweep_starts_one_helper_thread_and_keeps_it(tmp_path):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: no helper starts")
    before, first, later = _python(tmp_path, """
        import json
        import test_shared_sweep as t
        before = t._task_count()
        stack, cfg, _ = t._setup("kh2d-64", (1, 1))
        stack.compute_residual()
        first = t._task_count()
        for _ in range(20):
            stack.compute_residual()
        print(json.dumps([before, first, t._task_count()]))
    """, one_cpu=False)
    assert first == later == before + 1


# ---------------------------------------------------------------------------
# Failures: the lowest failing line decides, whichever thread meets it
# ---------------------------------------------------------------------------

#: rho = inf at rest: a physical cell whose HLLC wave fan with a neighbour
#: like it is degenerate (no sound speed, sL == sR)
DENSE = [np.inf, 0.0, 0.0, 2.5]
#: negative total energy; as a ghost, negative enough that the WENO states
#: of the face it borders are unphysical too
BAD = [1.0, 0.0, 0.0, -1e3]


def _mark(stack, marks):
    """Write states into the stack after its halo pass: marks pairs
    (rank, y, x) with a state, where y and x index the interior cells (a
    slice marks a row or a column), and x = -1 is the x ghost left of cell 0."""
    g = stack.grid.ghost_width
    for (rank, y, x), state in marks:
        y, x = (slice(g + i.start, g + i.stop) if isinstance(i, slice) else g + i for i in (y, x))
        sliced = isinstance(y, slice) + isinstance(x, slice)
        stack.data[:, rank, y, x] = np.reshape(state, (-1,) + (1,) * sliced)


def _failures(ny, nx, R):
    """By name, the marks of a failure on a stack of R ranks of ny x nx
    cells, the kernel's (status, stop axis, stop rank), and the message
    pattern and the rank of the error that spatial_residual raises."""
    first_row, last_row = (0, 0, slice(0, nx)), (R - 1, ny - 1, slice(0, nx))
    every = [((r, slice(0, ny), slice(0, nx)), DENSE) for r in range(R)]
    column = [((r, slice(0, ny), 0), BAD) for r in range(R)]
    return {
        # x sweep: a bad interior cell on line 0, a degenerate row last
        "x-cell-then-degenerate": (
            [((0, 0, 5), BAD), (last_row, DENSE)],
            (4, 0, 0), r"^unphysical state in interior cell \(0, 5\)$", 0,
        ),
        # x sweep: a degenerate row on line 0, a bad cell on the last line;
        # the kernel stops at line 0, the message names the bad cell
        "x-degenerate-then-cell": (
            [(first_row, DENSE), ((R - 1, ny - 1, nx - 2), BAD)],
            (SWEEP_DEGENERATE, 0, 0),
            rf"^unphysical state in interior cell \({ny - 1}, {nx - 2}\)$", R - 1,
        ),
        # x sweep: every line fails, line 0 at once (a bad cell), every
        # other line only once its faces are computed (a degenerate row)
        "x-every-line-cell-first": (
            every + [((0, 0, 5), BAD)],
            (4, 0, 0), r"^unphysical state in interior cell \(0, 5\)$", 0,
        ),
        # x sweep: every line fails, line 0 only once its faces are computed
        # (a degenerate row), every other line at once (a bad cell)
        "x-every-line-degenerate-first": (
            column + [(first_row, DENSE)],
            (SWEEP_DEGENERATE, 0, 0), r"^unphysical state in interior cell \(1, 0\)$", 0,
        ),
        # y sweep: the first and the last y line are degenerate columns
        "y-degenerate-first-and-last": (
            [((0, slice(0, ny), 0), DENSE), ((R - 1, slice(0, ny), nx - 1), DENSE)],
            (SWEEP_DEGENERATE, 1, 0), r"^degenerate HLLC wave fan \(sL >= sR\)$", 0,
        ),
        # x sweep: an unphysical face on line 0 (a bad ghost), a degenerate
        # row on the last line
        "x-face-then-late-degenerate": (
            [((0, 0, -1), BAD), (last_row, DENSE)],
            (1, 0, 0), r"^unphysical state at cell \(0, 0\): u = ", 0,
        ),
    }


@pytest.mark.parametrize("ranks", CASES["kh2d-64"][1], ids=lambda r: "x".join(map(str, r)))
@pytest.mark.parametrize("failure", list(_failures(64, 64, 1)))
def test_the_lowest_failing_line_decides_the_stop_and_the_error(failure, ranks):
    warm, _, _ = _setup("kh2d-64", ranks)
    for _ in range(20):
        stack, cfg, _ = _setup("kh2d-64", ranks)
        R, ny, nx = stack.interior.shape[1:]
        marks, stop, message, rank = _failures(ny, nx, R)[failure]
        _mark(stack, marks)
        # a helper that has just swept spins, so it takes lines of the next
        # sweep at once
        warm.compute_residual()
        with np.errstate(invalid="ignore", divide="ignore"):
            assert (stack.compute_residual(), *stack.stop) == stop
            with pytest.raises((SimulationError, UnphysicalStateError), match=message) as err:
                spatial_residual(stack, cfg)
        assert err.value.rank == rank


@pytest.mark.parametrize("row", [0, 31, 63])
def test_a_shared_cell_pass_fails_whichever_thread_meets_the_bad_cell(row):
    warm, _, _ = _setup("kh2d-64", (1, 1))
    stack, _, _ = _setup("kh2d-64", (1, 1))
    stack.interior[3, 0, row, 5] = -1.0
    # a helper that has just swept spins, so it takes lines of the pass at once
    warm.compute_residual()
    assert stack.cell_pass() == 1


# ---------------------------------------------------------------------------
# Several calling threads, and fork
# ---------------------------------------------------------------------------


def test_threads_sharing_the_helper_get_the_bits_of_one_thread():
    # four threads (more than the host's cores) sweep at once; while one
    # holds the helper the others run alone, and every residual keeps its bits
    stacks = [_setup("kh2d-64", ranks)[:2] for ranks in CASES["kh2d-64"][1] + [(1, 1)]]
    want = [_digest(spatial_residual(stack, cfg)) for stack, cfg in stacks]
    got = [[] for _ in stacks]

    def sweep(i):
        stack, cfg = stacks[i]
        for _ in range(50):
            got[i].append(_digest(spatial_residual(stack, cfg)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(stacks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 50 for w in want]


def test_a_forked_child_sweeps_with_its_own_helper():
    stack, cfg, _ = _setup("kh2d-64", (1, 1))
    want = _digest(spatial_residual(stack, cfg))
    helpers = 1 if len(os.sched_getaffinity(0)) >= 2 else 0
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            # the forking thread is the child's only one: the parent's
            # helper did not survive the fork, and the child starts its own
            same = _digest(spatial_residual(stack, cfg)) == want
            code = 0 if same and _task_count() == 1 + helpers else 3
        finally:
            os._exit(code)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its residual within 60 s")
    assert os.waitstatus_to_exitcode(status) == 0
