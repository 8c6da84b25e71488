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
import subprocess
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .. import __version__ as _version
from ..errors import ConfigError, SnapshotError
from ..grid import Field, GridSpec, field_from_interior
from ..uq import FieldMoments, Histogram, StructureFunctionAccumulator

FORMAT_MAGIC = "conslaw-snapshot"
FORMAT_VERSION = 1


def source_revision() -> str:
    """Best-effort git revision of the source tree, else 'unknown'."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


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
    The parent directory is made if it is missing."""
    grid = field.grid
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
        f"ncomp: {field.ncomp}",
    ]
    if components:
        lines.append(f"components: {' '.join(components)}")
    payload = np.ascontiguousarray(field.interior, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n\n").encode())
        fh.write(payload.tobytes())


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
    """Write finalized accumulators, one file per functional.

    The mean and variance of ``FieldMoments`` become snapshot-format field
    files; histograms and structure functions become CSV with the header
    carried in comment lines.
    """
    directory = Path(directory)
    written: list[Path] = []
    for res in results:
        if isinstance(res, FieldMoments):
            for name, values in (("mean", res.mean), ("variance", res.variance())):
                path = directory / f"{name}.snap"
                write_snapshot(field_from_interior(res.grid, values), header, path)
                written.append(path)
        elif isinstance(res, Histogram):
            # bin b of a probe spans bounds[b] .. bounds[b + 1], overflow bins included
            bounds = [-math.inf, *res.edges, math.inf]
            written.append(write_csv(
                directory / "histogram.csv", header, "probe,bin_lo,bin_hi,count",
                [(p, bounds[b], bounds[b + 1], res.counts[p, b])
                 for p in range(len(res.probe_cells)) for b in range(res.bins + 2)],
            ))
        elif isinstance(res, StructureFunctionAccumulator):
            written.append(write_csv(directory / "structure_function.csv", header,
                                     "offset,value", enumerate(res.values())))
        else:
            raise TypeError(f"cannot write functional of type {type(res).__name__}")
    return written
