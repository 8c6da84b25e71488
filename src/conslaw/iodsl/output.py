"""Reproducibility-stamped output files.

Snapshot format: a text header of ``key: value`` lines terminated by a blank
line, then the interior cell values as raw little-endian binary64 in
component-major, x-fastest order.  Every file carries the tool version, a
source revision identifier, the canonical config digest and the seed, so any
output can be traced back to the exact run that produced it.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .. import __version__ as _version
from ..errors import ConfigError, SnapshotError
from ..grid import Field, GridSpec, field_from_interior

FORMAT_MAGIC = "conslaw-snapshot"
FORMAT_VERSION = 1


#: the checkout root, the directory above ``src/``
_CHECKOUT = Path(__file__).resolve().parents[3]

#: a full commit id: 40 hex digits (SHA-1) or 64 (SHA-256)
_COMMIT_RE = re.compile(r"[0-9a-f]{40}([0-9a-f]{24})?")


def source_revision() -> str:
    """The commit of the checkout that holds this package, as its first 7
    hex digits, else 'unknown' (a package outside a checkout, or a ``.git``
    that cannot be read).

    It reads ``.git`` at the checkout root, as ``git rev-parse --short
    HEAD`` would, and starts no process: ``HEAD``, then the ref it names,
    as a loose file or a line of ``packed-refs``; a ``.git`` file (of a
    worktree or a submodule) names the git directory on its ``gitdir:``
    line.  Git itself prints more than 7 digits where 7 are ambiguous among
    the objects of the repository; only there do the two differ."""
    try:
        gitdir = _CHECKOUT / ".git"
        if gitdir.is_file():
            key, _, path = gitdir.read_text().partition(":")
            if key != "gitdir":
                return "unknown"
            gitdir = _CHECKOUT / path.strip()
        # a worktree's refs live in the common directory of its repository
        common = gitdir / "commondir"
        common = gitdir / common.read_text().strip() if common.is_file() else gitdir
        head = (gitdir / "HEAD").read_text().strip()
        if head.startswith("ref:"):
            ref = head[len("ref:"):].strip()
            loose = [p for p in (gitdir / ref, common / ref) if p.is_file()]
            if loose:
                head = loose[0].read_text().strip()
            else:
                packed = (common / "packed-refs").read_text().splitlines()
                head = next((sha for sha, _, name in (line.partition(" ") for line in packed)
                             if name == ref), "")
    except (OSError, UnicodeDecodeError):
        return "unknown"
    return head[:7] if _COMMIT_RE.fullmatch(head) else "unknown"


@dataclass
class OutputHeader:
    config_digest: str
    seed: int
    tool_version: str = _version
    revision: str = dc_field(default_factory=source_revision)
    sample: int | None = None
    created: str = dc_field(
        default_factory=lambda: _dt.datetime.now(_dt.timezone.utc).isoformat()
    )

    def lines(self) -> list[str]:
        out = [
            f"tool_version: {self.tool_version}",
            f"source_revision: {self.revision}",
            f"config_digest: {self.config_digest}",
            f"seed: {self.seed}",
        ]
        if self.sample is not None:
            out.append(f"sample: {self.sample}")
        out.append(f"created: {self.created}")
        return out

    def comments(self) -> str:
        """The header as ``# key: value`` comment lines, for text outputs."""
        return "".join(f"# {line}\n" for line in self.lines())


def write_snapshot(field: Field, header: OutputHeader, path, components=None) -> None:
    """Self-describing snapshot of the interior cells; read back bitwise.
    The parent directory is made if it is missing.

    The payload is written one component at a time, each as one contiguous
    array (a copy of it only where the interior is strided, as a padded
    field's is), so a write holds at most one component besides the field."""
    _write_cells(field.grid, field.interior, header, path, components)


def _write_cells(grid: GridSpec, interior: np.ndarray, header: OutputHeader, path,
                 components=None) -> None:
    """``write_snapshot`` of cell values without ghosts, ``interior`` of
    shape ``(ncomp, *grid.interior_shape)``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{FORMAT_MAGIC} {FORMAT_VERSION}"]
    lines += header.lines()
    lines += [
        f"dim: {grid.dim}",
        f"cells: {' '.join(str(c) for c in grid.cells)}",
        f"origin: {' '.join(repr(v) for v in grid.origin)}",
        f"extent: {' '.join(repr(v) for v in grid.extent)}",
        f"ghost_width: {grid.ghost_width}",
        f"ncomp: {len(interior)}",
    ]
    if components:
        lines.append(f"components: {' '.join(components)}")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n\n").encode())
        for values in interior:
            fh.write(np.ascontiguousarray(values, dtype="<f8"))


def _parse_header(blob: bytes, path) -> tuple[dict, int]:
    end = blob.find(b"\n\n")
    if end < 0:
        raise SnapshotError(f"{path}: missing header terminator")
    header: dict[str, str] = {}
    text_lines = blob[:end].decode(errors="replace").splitlines()
    if not text_lines:
        raise SnapshotError(f"{path}: empty header")
    magic = text_lines[0].split()
    if len(magic) != 2 or magic[0] != FORMAT_MAGIC:
        raise SnapshotError(f"{path}: not a snapshot file")
    if magic[1] != str(FORMAT_VERSION):
        raise SnapshotError(
            f"{path}: unsupported format version {magic[1]} (expected {FORMAT_VERSION})"
        )
    for line in text_lines[1:]:
        key, sep, value = line.partition(":")
        if not sep:
            raise SnapshotError(f"{path}: malformed header line {line!r}")
        header[key.strip()] = value.strip()
    return header, end + 2


def read_snapshot(path) -> tuple[Field, dict]:
    """Read a snapshot; ``read(write(f))`` reproduces the field bitwise."""
    path = Path(path)
    blob = path.read_bytes()
    header, offset = _parse_header(blob, path)
    for required in ("config_digest", "seed", "dim", "cells", "ncomp"):
        if required not in header:
            raise SnapshotError(f"{path}: header is missing {required!r}")
    try:
        cells = tuple(int(c) for c in header["cells"].split())
        # defaults sized by the cells, so a huge dim cannot build a huge string
        origin = tuple(float(v) for v in header.get("origin", "0 " * len(cells)).split())
        extent = tuple(float(v) for v in header.get("extent", "1 " * len(cells)).split())
        ncomp = int(header["ncomp"])
        if ncomp < 1:
            raise SnapshotError(f"{path}: ncomp must be >= 1, got {ncomp}")
        grid = GridSpec(int(header["dim"]), cells, origin, extent,
                        ghost_width=int(header.get("ghost_width", 1)))
    except (ValueError, ConfigError) as exc:
        raise SnapshotError(f"{path}: malformed header: {exc}") from None
    expected = ncomp * math.prod(cells)
    raw = blob[offset:]
    found = len(raw) // 8
    if found != expected or len(raw) % 8 != 0:
        raise SnapshotError(f"{path}: expected {expected} floats, found {found}")
    values = np.frombuffer(raw, dtype="<f8").reshape((ncomp,) + grid.interior_shape)
    return field_from_interior(grid, values), header


def write_csv(path, header: OutputHeader, columns: str, rows) -> Path:
    """A CSV file: the header as comment lines, the column names, then one
    line per row.  A numpy scalar is written as the Python number it holds,
    so every field parses with ``float``.  The parent directory is made if it
    is missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header.comments())
        fh.write(columns + "\n")
        for row in rows:
            fh.write(",".join(
                str(v.item() if isinstance(v, np.generic) else v) for v in row) + "\n")
    return path


def write_stats(results, header: OutputHeader, directory) -> list[Path]:
    """Write the files of finalized functionals, in order, and return their
    paths.  Each entry of a functional's ``files()`` is a file name with a
    cell array on the functional's ``grid``, written in snapshot format, or
    with CSV columns and rows, written with the header in comment lines."""
    written = []
    for res in results:
        for name, *payload in res.files():
            path = Path(directory) / name
            if len(payload) == 1:
                _write_cells(res.grid, payload[0], header, path)
            else:
                write_csv(path, header, *payload)
            written.append(path)
    return written
