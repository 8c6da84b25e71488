"""The shared jobs of ``_faces.c``: ``tsan_sweeps.c`` built twice.

``tsan_sweeps.c`` includes the kernel and runs a few thousand residuals and
whole steps that the caller shares with the helper thread, each of which
must give the bits, status and stopping rank of the first (see its header).
Built with ``-fsanitize=thread``, it reports data races; built with the
library's own flags, it runs at full speed, so that a logic race among the
atomics, which leaves no plain access unsynchronised and which the
sanitizer's slowdown can hide, shows as a call that differs.  Each test
skips where its build does not run, or where no helper thread starts.
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

from conslaw import numerics

DRIVER = Path(__file__).with_name("tsan_sweeps.c")

#: the driver's exit status when no helper thread started
NOTHING_SHARED = 77


def _build(tmp_path, flags):
    """The driver built with ``flags``: the executable, and the compiler's
    errors (empty when it built).  Skips where there is no gcc."""
    compiler = shutil.which("gcc")
    if compiler is None:
        pytest.skip("no gcc to build the driver")
    exe = tmp_path / "sweeps"
    build = subprocess.run(
        [compiler, *flags, "-o", str(exe), str(DRIVER), "-lm"],
        capture_output=True, text=True, timeout=300,
    )
    return exe, build.stderr.strip() if build.returncode else ""


def _run(exe, env=None):
    """One run of the driver; skips where no helper thread starts."""
    run = subprocess.run([str(exe)], capture_output=True, text=True, timeout=600, env=env)
    if run.returncode == NOTHING_SHARED:
        pytest.skip("fewer than 2 CPUs: no helper thread, nothing shared")
    return run


def test_shared_sweeps_have_no_data_race(tmp_path):
    exe, errors = _build(tmp_path, ["-fsanitize=thread", "-O1", "-g", "-pthread"])
    if errors:
        pytest.skip(f"no ThreadSanitizer build: {errors[-300:]}")
    run = _run(exe, {**os.environ, "TSAN_OPTIONS": "halt_on_error=1"})
    if "FATAL: ThreadSanitizer" in run.stderr:
        pytest.skip(f"the ThreadSanitizer runtime cannot start: {run.stderr.strip()[-300:]}")
    assert "ThreadSanitizer" not in run.stderr, run.stderr
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.count("every call agreed") == 6


def test_shared_sweeps_agree_bit_for_bit_at_full_speed(tmp_path):
    # the library's own flags, less those of a shared library
    exe, errors = _build(tmp_path, [f for f in numerics._CFLAGS if f not in ("-shared", "-fPIC")])
    assert not errors, errors
    run = _run(exe)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.count("every call agreed") == 6
