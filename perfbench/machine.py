"""Description of the machine and source tree a benchmark result came from."""

from __future__ import annotations

import hashlib
import os
import subprocess
from pathlib import Path

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_UNITS = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cache_bytes() -> dict:
    """Per-core data/unified cache sizes of CPU 0, keyed L1d, L2, L3."""
    out = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        key = f"L{level}" + ("d" if kind == "Data" else "")
        out[key] = int(size[:-1]) * _UNITS[size[-1]] if size[-1] in _UNITS else int(size)
    return out


def _git_revision(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def describe(root: Path, probe: dict) -> dict:
    """``probe`` is a set-up child's report (interpreter and numpy versions)."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_bytes": cache_bytes(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "git_revision": _git_revision(root),
        "source_digest": source_digest(root / "src"),
    }
