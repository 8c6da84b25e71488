"""The shared jobs of ``_faces.c`` under ThreadSanitizer.

``tsan_sweeps.c`` includes the kernel, is built with ``-fsanitize=thread``
and runs a few thousand residuals and whole steps that the caller shares
with the helper thread (see its header for what it catches and what it does
not).  The test
skips where no ThreadSanitizer build runs, or where no helper thread starts.
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

DRIVER = Path(__file__).with_name("tsan_sweeps.c")

#: the driver's exit status when no helper thread started
NOTHING_SHARED = 77


def test_shared_sweeps_have_no_data_race(tmp_path):
    compiler = shutil.which("gcc")
    if compiler is None:
        pytest.skip("no gcc for the ThreadSanitizer build")
    exe = tmp_path / "tsan_sweeps"
    build = subprocess.run(
        [compiler, "-fsanitize=thread", "-O1", "-g", "-pthread", "-o", str(exe), str(DRIVER),
         "-lm"],
        capture_output=True, text=True, timeout=300,
    )
    if build.returncode:
        pytest.skip(f"no ThreadSanitizer build: {build.stderr.strip()[-300:]}")
    env = {**os.environ, "TSAN_OPTIONS": "halt_on_error=1"}
    run = subprocess.run([str(exe)], capture_output=True, text=True, timeout=600, env=env)
    if "FATAL: ThreadSanitizer" in run.stderr:
        pytest.skip(f"the ThreadSanitizer runtime cannot start: {run.stderr.strip()[-300:]}")
    if run.returncode == NOTHING_SHARED:
        pytest.skip("fewer than 2 CPUs: no helper thread, nothing shared")
    assert "ThreadSanitizer" not in run.stderr, run.stderr
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.count("every call agreed") == 6
