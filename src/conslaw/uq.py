"""Sampling-based uncertainty quantification over solver runs.

Single-level estimates average a statistical functional G over M independent
samples.  A multilevel estimate is the single-level estimate on the coarsest
grid of a hierarchy of nested grids plus, per finer level, the
fine-minus-coarse difference of G, both runs of each correction pair driven
by the same random vector.

Random numbers come from a counter-based generator keyed by (seed, level,
sample index), so any sample is reproducible in isolation.  Every estimator
runs its samples through one loop, in sample-index order on the calling
thread, and updates each functional once with every final field as soon as
its sample finishes.  There are no worker threads: the ``workers`` setting of
a campaign is accepted but has no effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError
from .grid import BoundaryKind, Field, GridSpec, slab
from .solver import SchemeConfig, run_simulation

MC = "mc"
QMC = "qmc"

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _check_draws(plan) -> None:
    """The draw settings of either plan, checked before any sample is solved;
    the generator key is a uint64, so it bounds the seed."""
    if plan.method not in (MC, QMC):
        raise ConfigError(f"unknown sampling method {plan.method!r}", key="method")
    if plan.stochastic_dim < 1:
        raise ConfigError(
            f"stochastic_dim must be >= 1, got {plan.stochastic_dim}", key="stochastic_dim"
        )
    if plan.method == QMC and plan.stochastic_dim > len(_PRIMES):
        raise ConfigError(f"Halton supports up to {len(_PRIMES)} dimensions", key="stochastic_dim")
    if not 0 <= plan.seed < 2 ** 64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {plan.seed}", key="seed")


@dataclass(frozen=True)
class SamplePlan:
    method: str = MC
    samples: int = 1
    seed: int = 0
    stochastic_dim: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.samples}", key="samples")
        _check_draws(self)


@dataclass(frozen=True)
class MlmcPlan:
    """Level grids run coarsest to finest; every axis doubles per level."""

    grids: tuple
    samples_per_level: tuple
    method: str = MC
    seed: int = 0
    stochastic_dim: int = 1

    def __post_init__(self):
        if len(self.grids) < 1:
            raise ConfigError("levels must be >= 1", key="levels")
        if len(self.grids) != len(self.samples_per_level):
            raise ConfigError(f"level_samples needs {len(self.grids)} entries, got "
                              f"{len(self.samples_per_level)}", key="level_samples")
        if any(m < 1 for m in self.samples_per_level):
            raise ConfigError("per-level sample counts must be >= 1", key="level_samples")
        _check_draws(self)
        for l in range(1, len(self.grids)):
            coarse, fine = self.grids[l - 1], self.grids[l]
            same = all(f == c for f, c in zip(fine.cells, coarse.cells))
            doubled = all(f == 2 * c for f, c in zip(fine.cells, coarse.cells))
            if not (same or doubled):
                raise ConfigError(
                    f"level {l} cells {fine.cells} are neither equal to nor "
                    f"double the level {l - 1} cells {coarse.cells}"
                )

    @property
    def levels(self) -> int:
        return len(self.grids)


def level_grids(grid: GridSpec, levels: int) -> tuple:
    """The grids of an MLMC hierarchy of ``levels`` levels whose finest is
    ``grid``, coarsest first, every axis halving per level down (none for
    ``levels`` < 1, which ``MlmcPlan`` rejects)."""
    for axis, n in enumerate(grid.cells):
        # a multiple of 2**(levels - 1), tested by shifts: no huge power of two
        if levels > 1 and n >> (levels - 1) << (levels - 1) != n:
            raise ConfigError(
                f"{n} cells on axis {axis} cannot be coarsened {levels - 1} times", key="levels"
            )
    return tuple(
        GridSpec(grid.dim, tuple(n >> (levels - 1 - l) for n in grid.cells), grid.origin,
                 grid.extent, grid.ghost_width)
        for l in range(levels)
    )


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse of ``index`` in the given base."""
    inv = 0.0
    factor = 1.0 / base
    while index > 0:
        inv += factor * (index % base)
        index //= base
        factor /= base
    return inv


def halton_point(index: int, dim: int) -> np.ndarray:
    """Point ``index`` (1-based) of the Halton sequence in [0,1)^dim; the plans bound dim."""
    return np.array([radical_inverse(index, _PRIMES[d]) for d in range(dim)])


def _sample_count(plan, level: int) -> int:
    return plan.samples_per_level[level] if isinstance(plan, MlmcPlan) else plan.samples


def draw_sample(plan, k: int, level: int = 0) -> np.ndarray:
    """Random vector in [0,1)^d for sample k of a level."""
    samples = _sample_count(plan, level)
    if not 0 <= k < samples:
        raise ConfigError(f"sample index {k} out of range [0, {samples})")
    if plan.method == QMC:
        return halton_point(k + 1, plan.stochastic_dim)
    key = [np.uint64(plan.seed), np.uint64((level << 48) + k)]
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.random(plan.stochastic_dim)


# ---------------------------------------------------------------------------
# Streaming statistical functionals
# ---------------------------------------------------------------------------


class MomentAccumulator:
    """Streaming per-cell mean and M2.

    Each update adds one sample as Chan et al.'s pairwise combination of the
    running moments with a one-sample set (mean ``value``, M2 zero).  The
    textbook Welford form ``m2 += delta * (value - mean)`` is algebraically
    the same but rounds differently, so it would change the written bits.
    """

    def __init__(self, shape):
        self.count = 0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def update(self, value: np.ndarray) -> None:
        if value.shape != self.mean.shape:
            raise ConfigError(
                f"accumulator shape {self.mean.shape} does not match value {value.shape}"
            )
        delta = value - self.mean
        frac = 1 / (self.count + 1)
        self.mean += delta * frac
        if self.count:
            # a first sample has no spread; skipping it also keeps m2 at 0
            # where delta ** 2 overflows
            self.m2 += delta ** 2 * self.count * frac
        self.count += 1

    def variance(self, ddof: int = 1) -> np.ndarray:
        if self.count <= ddof:
            return np.zeros_like(self.m2)
        return self.m2 / (self.count - ddof)

    def second_moment(self) -> np.ndarray:
        if self.count == 0:
            return np.zeros_like(self.m2)
        return self.m2 / self.count + self.mean ** 2


class FieldMoments:
    """Mean/variance of the full conserved field."""

    name = "moments"

    def __init__(self, grid: GridSpec, ncomp: int):
        self.grid = grid
        self.ncomp = ncomp
        self.acc = MomentAccumulator((ncomp,) + grid.interior_shape)

    def update(self, field: Field) -> None:
        self.acc.update(np.asarray(field.interior))


class Histogram:
    """Per-probe-point histogram of one component, with overflow bins.

    ``counts[p, 0]`` and ``counts[p, -1]`` hold under/overflow.
    """

    name = "histogram"

    def __init__(self, probe_cells, component: int, lo: float, hi: float, bins: int = 64):
        if not -np.inf < lo < hi < np.inf:  # an infinite bin width makes nan bins
            raise ConfigError(f"histogram_range must be 'lo hi' with lo < hi, got {(lo, hi)}",
                              key="histogram_range")
        if bins < 1:
            raise ConfigError(f"histogram needs >= 1 bins, got {bins}", key="histogram_bins")
        self.probe_cells = tuple(tuple(int(i) for i in p) for p in probe_cells)
        self.component = component
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        self.counts = np.zeros((len(self.probe_cells), bins + 2), dtype=np.int64)
        self.samples = 0

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bins + 1)

    def update(self, field: Field) -> None:
        interior = field.interior
        width = (self.hi - self.lo) / self.bins
        for p, cell in enumerate(self.probe_cells):
            # cell is x-first; data is x-last
            idx = (self.component,) + tuple(reversed(cell))
            v = float(interior[idx])
            if v < self.lo:
                self.counts[p, 0] += 1
            elif v >= self.hi:
                self.counts[p, -1] += 1
            else:
                self.counts[p, 1 + min(int((v - self.lo) / width), self.bins - 1)] += 1
        self.samples += 1


class StructureFunctionAccumulator:
    """Mean two-point structure function |u(x + h e_k) - u(x)|^p.

    Averaged over the pairs of interior cells h apart along each axis, then
    over the axes, for integer offsets h = 0..max_offset, one component.  A
    periodic axis (the default) pairs all n cells, wrapping around; an
    outflow axis of ``bc`` (one kind per axis of ``grid``, x first) pairs
    only the n - h inside the domain.  Every axis of ``bc`` needs
    max_offset < n: on a periodic axis offset n pairs each cell with itself,
    and a larger one repeats a smaller one.
    """

    name = "structure_function"

    def __init__(self, p: float, max_offset: int, component: int = 0,
                 grid: GridSpec | None = None, bc: tuple = ()):
        if not p >= 1:
            raise ConfigError(
                f"structure-function exponent must be >= 1, got {p}", key="structure_p"
            )
        if max_offset < 0:
            raise ConfigError(
                f"max offset must be >= 0, got {max_offset}", key="structure_max_offset"
            )
        # outflow axes are named first: there the offset leaves no pair at all
        for axis, kind in sorted(enumerate(bc), key=lambda a: a[1] is not BoundaryKind.OUTFLOW):
            if max_offset >= grid.cells[axis]:
                raise ConfigError(
                    f"structure_max_offset {max_offset} leaves no pair of cells inside "
                    f"{kind.value} axis {axis} of {grid.cells[axis]} cells",
                    key="structure_max_offset",
                )
        self.p = float(p)
        self.max_offset = int(max_offset)
        self.component = int(component)
        # numpy axis j of a field's component is spatial axis dim - 1 - j
        self._outflow = tuple(kind is BoundaryKind.OUTFLOW for kind in reversed(bc))
        self.sums = np.zeros(self.max_offset + 1)
        self.samples = 0

    def update(self, field: Field) -> None:
        w = np.asarray(field.interior[self.component])
        dim = field.grid.dim
        outflow = self._outflow or (False,) * dim
        for h in range(self.max_offset + 1):
            acc = 0.0
            for j in range(dim):
                if outflow[j]:
                    n = w.shape[j]
                    diff = slab(w, j, h, n) - slab(w, j, 0, n - h)
                else:
                    diff = np.roll(w, -h, axis=j) - w
                acc += float(np.mean(np.abs(diff) ** self.p))
            self.sums[h] += acc / dim
        self.samples += 1

    def values(self) -> np.ndarray:
        if self.samples == 0:
            return np.zeros_like(self.sums)
        return self.sums / self.samples


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _run_level(plan, level, grid, cfg, evaluate_init, functionals):
    """Run the samples of one level on one grid, in index order, update
    ``functionals`` with each final field and return them."""
    for k in range(_sample_count(plan, level)):
        vector = draw_sample(plan, k, level)
        try:
            init = evaluate_init(grid, vector)
            final, _ = run_simulation(init, cfg)
        except Exception as exc:
            where = f"level {level}, " if isinstance(plan, MlmcPlan) else ""
            raise SimulationError(f"{where}sample {k} failed: {exc}") from exc
        for f in functionals:
            f.update(final)
    return functionals


def run_mc(
    plan: SamplePlan,
    grid: GridSpec,
    cfg: SchemeConfig,
    evaluate_init,
    functionals,
):
    """Single-level estimate: run M independent samples and stream every
    final field into each functional, in sample-index order."""
    return _run_level(plan, 0, grid, cfg, evaluate_init, functionals)


@dataclass
class MlmcMoments:
    """Telescoped first/second moments, combined on the finest grid."""

    grid: GridSpec
    mean: np.ndarray
    second_moment: np.ndarray
    variance: np.ndarray


def prolong(values: np.ndarray, factor_per_axis) -> np.ndarray:
    """Piecewise-constant injection of a coarse field onto a finer grid.

    ``values`` has the component axis first and x last, factors are x-first.
    """
    dim = len(factor_per_axis)
    out = values
    for j in range(dim):
        f = factor_per_axis[dim - 1 - j]
        if f != 1:
            out = np.repeat(out, f, axis=1 + j)
    return out


def run_mlmc(plan: MlmcPlan, cfg: SchemeConfig, evaluate_init) -> MlmcMoments:
    """Multilevel estimate of the field mean and variance: the single-level
    estimate on the coarsest grid plus a telescoping sum of corrections.

    Level 0 gives the mean and the second moment of its samples, prolonged to
    the finest grid.  Each level l >= 1 then adds the fine-minus-coarse
    difference of its two runs, sample k of both driven by the same random
    vector, the level-l grid first, with the scheme ``cfg`` on every level.
    The variance is ``second - mean**2`` after the last correction; a single
    level keeps its plain sample variance, bitwise that of ``run_mc``.
    """
    finest = plan.grids[-1]

    def moments(level, grid):
        """The moments of a level's samples on ``grid``, and its mean and
        second moment on the finest grid."""
        functionals = [FieldMoments(grid, cfg.model.ncomp)]
        acc = _run_level(plan, level, grid, cfg, evaluate_init, functionals)[0].acc
        factors = tuple(nf // n for nf, n in zip(finest.cells, grid.cells))
        return acc, prolong(acc.mean, factors), prolong(acc.second_moment(), factors)

    level0, mean, second = moments(0, plan.grids[0])
    for level in range(1, plan.levels):
        _, mean_f, second_f = moments(level, plan.grids[level])
        _, mean_c, second_c = moments(level, plan.grids[level - 1])
        mean = mean + (mean_f - mean_c)
        second = second + (second_f - second_c)
    variance = level0.variance(ddof=1) if plan.levels == 1 else second - mean ** 2
    return MlmcMoments(finest, mean, second, variance)
