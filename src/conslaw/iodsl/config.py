"""Run-configuration files.

Line-oriented format: ``[section]`` headers, ``key = value`` pairs, UTF-8,
``#`` comments.  Unknown sections and keys are rejected, not ignored, and
every diagnostic carries the offending line.  The canonical digest is stable
under comments, whitespace and reordering, and changes with any value.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from ..equations import ADVECTION, BURGERS, EULER, EquationModel
from ..errors import ConfigError, ConslawError, ExprError
from ..grid import BoundaryKind, GridSpec
from ..numerics import FluxKind, Reconstruction, ReconstructionKind
from ..parallel import check_boundary, local_grid
from ..solver import SchemeConfig, check_scheme
from ..uq import FieldMoments, Histogram, MlmcPlan, SamplePlan, level_grids
from ..uq import StructureFunctionAccumulator
from .expr import eval_init, max_random_index, parse_expr

_SECTIONS = ("grid", "scheme", "initial", "parallel", "uq", "output")

_KEYS = {
    "grid": {"dim", "cells", "origin", "extent"},
    "scheme": {
        "equation", "gamma", "advection_speed", "flux", "reconstruction",
        "weno_epsilon", "rk_order", "cfl", "t_end", "boundary",
    },
    "initial": {
        "variables", "rho", "vx", "vy", "vz", "p", "u",
        "mx", "my", "mz", "E",
    },
    "parallel": {"ranks"},
    "uq": {
        "method", "samples", "seed", "stochastic_dim", "workers",
        "levels", "level_samples", "functionals",
        "histogram_component", "histogram_points", "histogram_range",
        "histogram_bins",
        "structure_p", "structure_max_offset", "structure_component",
    },
    "output": {"directory", "snapshot_times"},
}

_FUNCTIONAL_NAMES = ("moments", "histogram", "structure_function")


@dataclass
class UqSettings:
    method: str = "mc"
    samples: int = 1
    seed: int = 0
    stochastic_dim: int = 1
    workers: int = 1  # checked, no effect (see check_workers)
    levels: int = 1
    level_samples: tuple = ()  # () is ``samples`` on every level
    functionals: tuple = ("moments",)
    histogram_component: int = 0
    histogram_points: tuple = ()
    histogram_range: tuple = (0.0, 1.0)
    histogram_bins: int = 64
    structure_p: float = 2.0
    structure_max_offset: int = 8
    structure_component: int = 0

    def plan(self, grid: GridSpec, seed: int | None = None):
        """The campaign's sample plan, with ``seed`` for the config's when
        given.  Level l runs ``level_samples[l]`` samples when that is set,
        else ``samples``, whatever the number of levels.  The counts are
        checked as those of an ``MlmcPlan`` on the level grids of ``grid``,
        which is the plan of two or more levels; one level is a
        ``SamplePlan`` of its count.  ``samples``, each level's default, is
        checked too."""
        single = SamplePlan(
            self.method, self.samples, self.seed if seed is None else seed, self.stochastic_dim
        )
        if self.levels > 1 and any(f != "moments" for f in self.functionals):
            raise ConfigError(
                "multilevel estimation supports only the 'moments' functional", key="functionals"
            )
        multi = MlmcPlan(
            level_grids(grid, self.levels), self.level_samples or (self.samples,) * self.levels,
            single.method, single.seed, single.stochastic_dim,
        )
        return multi if multi.levels > 1 else replace(single, samples=multi.samples_per_level[0])

    def build_functionals(self, grid: GridSpec, ncomp: int, bc: tuple) -> list:
        """Fresh functionals of the campaign on ``grid`` with the boundary
        kinds ``bc``, in ``functionals`` order.  The histogram and the
        structure function are built either way, so their settings are
        checked even when they are not selected."""
        center = tuple(o + 0.5 * e for o, e in zip(grid.origin, grid.extent))
        points = self.histogram_points or (center,)
        # the cell of each point, x-first, clamped to the grid
        probes = [tuple(min(max(int((x - o) / d), 0), n - 1) for x, o, d, n in
                        zip(pt, grid.origin, grid.deltas, grid.cells)) for pt in points]
        built = {f.name: f for f in (
            Histogram(probes, self.histogram_component, *self.histogram_range,
                      self.histogram_bins),
            # the grid bounds the offset only where the functional runs:
            # the default offset is longer than a small grid
            StructureFunctionAccumulator(
                self.structure_p, self.structure_max_offset, self.structure_component,
                grid, bc if "structure_function" in self.functionals else (),
            ),
        )}
        return [FieldMoments(grid, ncomp) if name == "moments" else built[name]
                for name in self.functionals]


@dataclass
class OutputSettings:
    directory: str = "out"
    snapshot_times: tuple = ()


@dataclass
class RunConfig:
    grid: GridSpec
    scheme: SchemeConfig
    initial_exprs: tuple
    initial_primitive: bool
    ranks_per_axis: tuple
    uq: UqSettings
    has_uq_section: bool
    output: OutputSettings
    digest: str


def canonical_digest(text: str) -> str:
    """SHA-256 of the canonicalized config: sections and keys sorted, values
    whitespace-normalized, comments dropped."""
    sections = _parse_sections(text)
    pieces = []
    for name in sorted(sections):
        pieces.append(f"[{name}]")
        entries, _ = sections[name]
        for key in sorted(entries):
            value, _line = entries[key]
            pieces.append(f"{key} = {' '.join(value.split())}")
    canon = "\n".join(pieces) + "\n"
    return hashlib.sha256(canon.encode()).hexdigest()


def _parse_sections(text: str):
    sections: dict[str, tuple[dict, int]] = {}
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", line=lineno)
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", line=lineno)
            current = {}
            sections[name] = (current, lineno)
        else:
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"expected 'key = value', found {line!r}", line=lineno)
            if current is None:
                raise ConfigError("key outside any [section]", line=lineno)
            key = key.strip()
            if key in current:
                raise ConfigError(f"duplicate key {key!r}", line=lineno, key=key)
            current[key] = (value.strip(), lineno)
    return sections


class _Section:
    def __init__(self, name: str, entries: dict):
        self.name = name
        self.entries = entries

    def has(self, key: str) -> bool:
        return key in self.entries

    def raw(self, key: str, default=None):
        if key not in self.entries:
            if default is None:
                raise ConfigError(f"[{self.name}] is missing required key {key!r}", key=key)
            return default, None
        return self.entries[key]

    def _convert(self, key, conv, default, what):
        value, line = self.raw(key, default)
        if line is None:
            return value
        try:
            return conv(value)
        except (ValueError, TypeError):
            raise ConfigError(
                f"{key!r} must be {what}, got {value!r}", line=line, key=key
            ) from None

    def int(self, key, default=None):
        return self._convert(key, int, default, "an integer")

    def float(self, key, default=None):
        return self._convert(key, float, default, "a number")

    def floats(self, key, default=None):
        return self._convert(
            key, lambda v: tuple(float(x) for x in v.replace(",", " ").split()),
            default, "a list of numbers",
        )

    def ints(self, key, default=None):
        return self._convert(
            key, lambda v: tuple(int(x) for x in v.replace(",", " ").split()),
            default, "a list of integers",
        )

    def choice(self, key, choices, default=None):
        value, line = self.raw(key, default)
        if line is None:
            return value
        if value not in choices:
            raise ConfigError(
                f"{key!r} must be one of {sorted(choices)}, got {value!r}",
                line=line, key=key,
            )
        return value

    def words(self, key, default=None):
        return self._convert(
            key, lambda v: tuple(x for x in v.replace(",", " ").split()),
            default, "a list of words",
        )


def _with_line(exc: ConfigError, section: _Section, key) -> ConfigError:
    """``exc`` naming the line that sets ``key`` in ``section``, unless it
    names a line already or the key is not set."""
    line = section.raw(key, "")[1] if key and exc.line is None else None
    return exc if line is None else ConfigError(str(exc), line=line, key=key)


def _check_known(sections) -> None:
    for name, (entries, line) in sections.items():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]", line=line)
        for key, (_value, kline) in entries.items():
            if key not in _KEYS[name]:
                raise ConfigError(
                    f"unknown key {key!r} in [{name}]", line=kline, key=key
                )


def _section(sections, name) -> _Section:
    entries, _line = sections.get(name, ({}, None))
    return _Section(name, entries)


def _build_model(scheme: _Section, dim: int) -> EquationModel:
    kind = scheme.choice("equation", (EULER, BURGERS, ADVECTION), EULER)
    for key, owner in (("gamma", EULER), ("advection_speed", ADVECTION)):
        if kind != owner and scheme.has(key):
            raise ConfigError(f"{key} only applies to the {owner} equation",
                              line=scheme.raw(key)[1], key=key)
    gamma = scheme.float("gamma", 1.4)
    speed = scheme.floats("advection_speed", (1.0,) * dim)
    return EquationModel(
        kind, dim, gamma=gamma, advection_speed=speed if kind == ADVECTION else ()
    )


def _build_initial(initial: _Section, model: EquationModel):
    choices = ("primitive", "conserved") if model.kind == EULER else ("scalar",)
    variables = initial.choice("variables", choices, choices[0])
    if variables == "primitive":
        keys = ("rho",) + tuple(f"v{'xyz'[k]}" for k in range(model.dim)) + ("p",)
    else:
        keys = model.component_names
    exprs = []
    for key in keys:
        value, line = initial.raw(key, default=None) if initial.has(key) else (None, None)
        if value is None:
            raise ConfigError(f"[initial] is missing component {key!r}", key=key)
        try:
            exprs.append(parse_expr(value))
        except ExprError as exc:
            raise ConfigError(f"in expression for {key!r}: {exc}", line=line, key=key)
    for key, (_value, line) in initial.entries.items():
        if key != "variables" and key not in keys:
            raise ConfigError(
                f"{key!r} in [initial] is not read: {variables} {model.kind} data in "
                f"{model.dim}D uses {' '.join(keys)}", line=line, key=key,
            )
    return tuple(exprs), variables != "conserved"


def _spot_check_initial(exprs, model, grid, needed, primitive) -> None:
    """Evaluate the initial data for a few corner random vectors, of the
    ``needed`` symbols the expressions use."""
    for fill in (0.0, 0.5, 0.999):
        vector = (fill,) * needed
        try:
            eval_init(exprs, model, grid, vector, primitive=primitive)
        except ConslawError as exc:
            raise ConfigError(f"initial data fails validation: {exc}") from exc


def check_workers(workers: int) -> None:
    """Check the worker count of ``[uq] workers`` or ``uq --workers``.  It
    selects nothing: every sample runs on the calling thread."""
    if workers < 1:
        raise ConfigError("worker count must be >= 1", key="workers")


def _build_uq(uq: _Section, grid: GridSpec, model) -> UqSettings:
    settings = UqSettings(
        method=uq.choice("method", ("mc", "qmc"), "mc"),
        samples=uq.int("samples", 1),
        seed=uq.int("seed", 0),
        stochastic_dim=uq.int("stochastic_dim", 1),
        workers=uq.int("workers", 1),
        levels=uq.int("levels", 1),
        level_samples=uq.ints("level_samples", ()),
        # listed once each: a functional listed twice would see every sample twice
        functionals=tuple(dict.fromkeys(uq.words("functionals", ("moments",)))),
        histogram_component=uq.int("histogram_component", 0),
        histogram_bins=uq.int("histogram_bins", 64),
        structure_p=uq.float("structure_p", 2.0),
        structure_max_offset=uq.int("structure_max_offset", 8),
        structure_component=uq.int("structure_component", 0),
    )
    for key in ("histogram_component", "structure_component"):
        component = getattr(settings, key)
        if not 0 <= component < model.ncomp:
            raise ConfigError(
                f"{key} {component} is not a component of {model.kind} in "
                f"{model.dim}D (0..{model.ncomp - 1}: {' '.join(model.component_names)})",
                key=key,
            )
    check_workers(settings.workers)
    for f in settings.functionals:
        if f not in _FUNCTIONAL_NAMES:
            raise ConfigError(
                f"unknown functional {f!r} (choose from {_FUNCTIONAL_NAMES})",
                key="functionals",
            )
    rng = settings.histogram_range = uq.floats("histogram_range", (0.0, 1.0))
    if len(rng) != 2:
        raise ConfigError(
            f"histogram_range must be 'lo hi' with lo < hi, got {rng}", key="histogram_range"
        )
    if uq.has("histogram_points"):
        value, line = uq.raw("histogram_points")
        points = []
        for part in value.split(";"):
            try:
                coords = tuple(float(x) for x in part.replace(",", " ").split())
            except ValueError:
                raise ConfigError(
                    f"histogram point {part.strip()!r} must be numbers", line=line
                ) from None
            if len(coords) != grid.dim:
                raise ConfigError(
                    f"histogram point {part.strip()!r} needs {grid.dim} coordinates",
                    line=line,
                )
            if not all(
                o <= x <= o + e for x, o, e in zip(coords, grid.origin, grid.extent)
            ):
                raise ConfigError(
                    f"histogram point {part.strip()!r} lies outside the domain",
                    line=line,
                )
            points.append(coords)
        settings.histogram_points = tuple(points)
    return settings


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration.  Each setting is checked
    once, by the object that owns it, and a ConfigError names the line that
    sets the value at fault (none for a missing key or a check across
    sections), so ``run``, ``uq`` and ``bench`` reject the same configs."""
    sections = _parse_sections(text)
    _check_known(sections)

    grid_s = _section(sections, "grid")
    cells = grid_s.ints("cells")
    dim = grid_s.int("dim", len(cells))
    if dim != len(cells):
        _value, line = grid_s.raw("dim")
        raise ConfigError(
            f"dim = {dim} does not match {len(cells)} cell counts", line=line
        )
    origin = grid_s.floats("origin", (0.0,) * dim)
    extent = grid_s.floats("extent", (1.0,) * dim)

    scheme_s = _section(sections, "scheme")
    try:
        model = _build_model(scheme_s, dim)
        flux = FluxKind(scheme_s.choice("flux", ("rusanov", "hllc"), "rusanov"))
        recon_name = scheme_s.choice("reconstruction", ("none", "weno2", "weno3"), "none")
        recon = Reconstruction(
            ReconstructionKind(recon_name), scheme_s.float("weno_epsilon", 1e-6)
        )
        bc_words = scheme_s.words("boundary", ("periodic",))
        if len(bc_words) == 1:
            bc_words = bc_words * dim
        try:
            bc = tuple(BoundaryKind(w) for w in bc_words)
        except ValueError:
            _value, line = scheme_s.raw("boundary")
            raise ConfigError(f"boundary entries must be periodic/outflow, got {bc_words}",
                              line=line) from None
        scheme = SchemeConfig(
            model=model,
            flux=flux,
            recon=recon,
            rk_order=scheme_s.int("rk_order", 2),
            cfl=scheme_s.float("cfl", 0.475),
            t_end=scheme_s.float("t_end", 1.0),
            bc=bc,
        )
    except ConfigError as exc:
        raise _with_line(exc, scheme_s, exc.key) from None
    try:
        grid = GridSpec(dim, cells, origin, extent, ghost_width=max(recon.radius, 1))
    except ConfigError as exc:
        raise _with_line(exc, grid_s, exc.key) from None
    check_scheme(grid, scheme)

    initial_s = _section(sections, "initial")
    if not initial_s.entries:
        raise ConfigError("missing [initial] section with the initial data")
    exprs, primitive = _build_initial(initial_s, model)

    parallel_s = _section(sections, "parallel")
    ranks = parallel_s.ints("ranks", (1,) * dim)
    try:
        local_grid(grid, ranks)
    except ConfigError as exc:
        raise _with_line(exc, parallel_s, "ranks") from None

    uq_s = _section(sections, "uq")
    try:
        uq = _build_uq(uq_s, grid, model)
        plan = uq.plan(grid)
        for level in plan.grids if isinstance(plan, MlmcPlan) else ():
            check_boundary(level, scheme.bc, key="levels")
        uq.build_functionals(grid, model.ncomp, scheme.bc)
    except ConfigError as exc:
        raise _with_line(exc, uq_s, exc.key) from None

    needed = 1 + max(max_random_index(e) for e in exprs)
    if needed > uq.stochastic_dim:
        raise ConfigError(
            f"initial data uses random symbol X{needed - 1} but stochastic_dim "
            f"is {uq.stochastic_dim}", line=uq_s.raw("stochastic_dim", "")[1],
        )
    _spot_check_initial(exprs, model, grid, needed, primitive)

    output_s = _section(sections, "output")
    output = OutputSettings(
        directory=output_s.raw("directory", "out")[0],
        snapshot_times=output_s.floats("snapshot_times", ()),
    )
    for t in output.snapshot_times:
        if not t >= 0:
            raise ConfigError(f"snapshot_times must be >= 0, got {t}",
                              line=output_s.raw("snapshot_times")[1])

    return RunConfig(
        grid=grid,
        scheme=scheme,
        initial_exprs=exprs,
        initial_primitive=primitive,
        ranks_per_axis=ranks,
        uq=uq,
        has_uq_section="uq" in sections,
        output=output,
        digest=canonical_digest(text),
    )
