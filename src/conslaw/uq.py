"""Sampling-based uncertainty quantification over solver runs.

One estimator, ``run_mlmc``, serves every campaign: the average of a
statistical functional G over the level-0 samples on the coarsest grid of a
hierarchy of nested grids plus, per finer level, the fine-minus-coarse
difference of G, both runs of each correction pair driven by the same random
vector (Giles, Acta Numerica 2015, section 2).  Monte Carlo is its one-level
case, with the same ``SamplePlan`` and the same ``FieldMoments``.

Monte Carlo draws come from Philox4x64-10, a counter-based generator,
computed here with Python ints and keyed by (seed, (level << 48) + sample
index), so any sample is reproducible in isolation; each is bitwise numpy's
``Generator(Philox(key)).random(d)``, and no run imports numpy's random
module.  Each level runs its samples through one loop, in sample-index
order on the calling thread, and updates each functional once with every
final field as soon as its sample finishes.  A level binds one solver stack,
once, and each sample loads its initial field into it.  There are no worker
threads: the ``workers`` setting of a campaign is accepted but has no effect.

Each functional of ``FUNCTIONALS`` (config name to class) takes every sample
with ``update(field)``, names the files of its estimate with ``files()``, each
a file name with a cell array on its ``grid`` or with CSV columns and rows, and
prints its summary with ``report(out, err)``.  ``FieldMoments`` alone has the
multilevel ``correct``, so only it runs on two or more levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError
from .grid import BoundaryKind, Field, GridSpec, slab
from .solver import SchemeConfig, bind_run, run_simulation

MC = "mc"
QMC = "qmc"

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@dataclass(frozen=True)
class SamplePlan:
    """The draws and sample counts of a campaign.

    ``grids`` are the level grids, coarsest first, every axis equal to or
    double the one below; Monte Carlo is the plan of one level.  Level l runs
    ``level_samples[l]`` samples when that is set, else ``samples``.  A plan
    without grids only draws (``draw_sample``); the estimators need them.
    Every setting is checked before any sample is solved; the generator key
    is a uint64, so it bounds the seed.
    """

    method: str = MC
    samples: int = 1
    seed: int = 0
    stochastic_dim: int = 1
    grids: tuple = ()
    level_samples: tuple = ()

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.samples}", key="samples")
        if self.method not in (MC, QMC):
            raise ConfigError(f"unknown sampling method {self.method!r}", key="method")
        if self.stochastic_dim < 1:
            raise ConfigError(
                f"stochastic_dim must be >= 1, got {self.stochastic_dim}", key="stochastic_dim"
            )
        if self.method == QMC and self.stochastic_dim > len(_PRIMES):
            raise ConfigError(f"Halton supports up to {len(_PRIMES)} dimensions",
                              key="stochastic_dim")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}", key="seed")
        if self.level_samples and len(self.level_samples) != self.levels:
            raise ConfigError(f"level_samples needs {self.levels} entries, got "
                              f"{len(self.level_samples)}", key="level_samples")
        if any(m < 1 for m in self.level_samples):
            raise ConfigError("per-level sample counts must be >= 1", key="level_samples")
        for l, (coarse, fine) in enumerate(zip(self.grids, self.grids[1:]), 1):
            same = all(f == c for f, c in zip(fine.cells, coarse.cells))
            doubled = all(f == 2 * c for f, c in zip(fine.cells, coarse.cells))
            if not (same or doubled):
                raise ConfigError(
                    f"level {l} cells {fine.cells} are neither equal to nor "
                    f"double the level {l - 1} cells {coarse.cells}"
                )

    @property
    def levels(self) -> int:
        return max(len(self.grids), 1)

    def count(self, level: int) -> int:
        """The number of samples of ``level``."""
        return self.level_samples[level] if self.level_samples else self.samples


def level_grids(grid: GridSpec, levels: int) -> tuple:
    """The grids of a hierarchy of ``levels`` >= 1 levels whose finest is
    ``grid``, coarsest first, every axis halving per level down."""
    if levels < 1:
        raise ConfigError("levels must be >= 1", key="levels")
    for axis, n in enumerate(grid.cells):
        # a multiple of 2**(levels - 1), tested by shifts: no huge power of two
        if n >> (levels - 1) << (levels - 1) != n:
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
    """Point ``index`` (1-based) of the Halton sequence in [0,1)^dim; the plan bounds dim."""
    return np.array([radical_inverse(index, _PRIMES[d]) for d in range(dim)])


_U64 = (1 << 64) - 1


def _philox_block(counter: int, k0: int, k1: int) -> tuple:
    """The four 64-bit words of Philox4x64-10 (Salmon et al., SC11) for the
    counter (counter, 0, 0, 0) under the key (k0, k1), in Python ints."""
    c0, c1, c2, c3 = counter, 0, 0, 0
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _U64, (p0 >> 64) ^ c3 ^ k1, p0 & _U64
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _U64, (k1 + 0xBB67AE8584CAA73B) & _U64
    return c0, c1, c2, c3


def draw_sample(plan: SamplePlan, k: int, level: int = 0) -> np.ndarray:
    """Random vector in [0,1)^d for sample k of a level.

    Monte Carlo: the words of Philox4x64-10 keyed by (seed, (level << 48) +
    k), from counter 1 up, four per counter, each word w giving (w >> 11)
    2**-53; bitwise numpy's ``Generator(Philox(key)).random(d)``.  QMC: the
    Halton point k + 1.
    """
    samples = plan.count(level)
    if not 0 <= k < samples:
        raise ConfigError(f"sample index {k} out of range [0, {samples})")
    d = plan.stochastic_dim
    if plan.method == QMC:
        return halton_point(k + 1, d)
    key = (plan.seed, (level << 48) + k)
    words = [w for n in range(1, (d + 3) // 4 + 1) for w in _philox_block(n, *key)]
    return np.array([(w >> 11) * 2.0 ** -53 for w in words[:d]])


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
    """Mean/variance of the full conserved field: the samples' mean and
    variance, or after a ``correct`` the telescoped mean and
    ``second - mean**2``, which may come out negative."""

    name = "moments"

    def __init__(self, grid: GridSpec, ncomp: int):
        self.grid = grid
        self.ncomp = ncomp
        self.acc = MomentAccumulator((ncomp,) + grid.interior_shape)
        self._telescoped = None  # (mean, second moment) once corrected
        self._fine_counts = ()  # the fine sample count of each correction

    def update(self, field: Field) -> None:
        self.acc.update(np.asarray(field.interior))

    @property
    def mean(self) -> np.ndarray:
        return self.acc.mean if self._telescoped is None else self._telescoped[0]

    def second_moment(self) -> np.ndarray:
        return self.acc.second_moment() if self._telescoped is None else self._telescoped[1]

    def variance(self) -> np.ndarray:
        if self._telescoped is None:
            return self.acc.variance(ddof=1)
        mean, second = self._telescoped
        return second - mean ** 2

    def correct(self, fine: FieldMoments, coarse: FieldMoments) -> None:
        """Add one level's fine-minus-coarse mean and second moment, the
        coarse ones prolonged, and move the estimate onto the fine grid."""
        factors = tuple(f // c for f, c in zip(fine.grid.cells, self.grid.cells))
        terms = ((self.mean, fine.acc.mean, coarse.acc.mean),
                 (self.second_moment(), fine.acc.second_moment(), coarse.acc.second_moment()))
        self._telescoped = tuple(prolong(total, factors) + (f - prolong(c, factors))
                                 for total, f, c in terms)
        self.grid = fine.grid
        self._fine_counts += (fine.acc.count,)

    def files(self):
        yield "mean.snap", self.mean
        yield "variance.snap", self.variance()

    def report(self, out, err) -> None:
        """The estimate's line, and a warning where the variance is negative."""
        variance = self.variance()
        counts = " ".join(str(n) for n in (self.acc.count,) + self._fine_counts)
        out.write(f"moments over {counts} samples: mean(c0) in "
                  f"[{self.mean[0].min():.6g}, {self.mean[0].max():.6g}], "
                  f"max variance {variance.max():.6g}\n")
        negative = int(np.any(variance < 0, axis=0).sum())
        if negative:
            print(f"warning: MLMC variance is negative in {negative} of "
                  f"{variance[0].size} cells", file=err)


class Histogram:
    """Per-probe-point histogram of one component, with overflow bins.

    ``counts[p, 0]`` and ``counts[p, -1]`` hold under/overflow.
    """

    name = "histogram"

    def __init__(self, probe_cells, component: int, lo: float, hi: float, bins: int = 64):
        if not -np.inf < lo < hi < np.inf:
            raise ConfigError(f"histogram_range must be 'lo hi' with lo < hi, got {(lo, hi)}",
                              key="histogram_range")
        if bins < 1:
            raise ConfigError(f"histogram needs >= 1 bins, got {bins}", key="histogram_bins")
        # an infinite width (hi - lo overflows) makes nan bins, and a zero one
        # (a subnormal hi - lo) divides by zero in update
        if not 0 < (hi - lo) / bins < np.inf:
            raise ConfigError(f"histogram bin width (hi - lo) / bins must be finite and > 0, "
                              f"got {(hi - lo) / bins}", key="histogram_range")
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

    def files(self):
        bounds = [-np.inf, *self.edges, np.inf]  # bin b spans bounds[b] .. bounds[b + 1]
        yield "histogram.csv", "probe,bin_lo,bin_hi,count", [
            (p, bounds[b], bounds[b + 1], n) for p, row in enumerate(self.counts)
            for b, n in enumerate(row)]

    def report(self, out, err) -> None:
        out.write(f"histogram: {len(self.probe_cells)} probes x {self.bins} bins, "
                  f"{self.samples} samples\n")


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
        if p == np.inf:
            raise ConfigError(
                f"structure-function exponent must be finite, got {p}", key="structure_p"
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

    def files(self):
        yield "structure_function.csv", "offset,value", enumerate(self.values())

    def report(self, out, err) -> None:
        out.write(f"structure function p={self.p:g}: offsets 0..{self.max_offset}\n")


FUNCTIONALS = {f.name: f for f in (FieldMoments, Histogram, StructureFunctionAccumulator)}


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _run_level(plan, level, grid, cfg, evaluate_init, functionals):
    """Run the samples of one level on one grid, in index order, update
    ``functionals`` with each final field and return them.

    The level binds one serial stack, from its first sample, and loads each
    later sample's initial field into it; every sample is one
    ``run_simulation`` of that stack, bitwise a fresh solve of its field.
    A sample's initial field goes once it is in the stack, and its final
    field once the functionals have read it, so a solve holds neither.
    """
    stack = None
    for k in range(plan.count(level)):
        vector = draw_sample(plan, k, level)
        try:
            init = evaluate_init(grid, vector)
            if stack is None:
                stack = bind_run(init, cfg)
            else:
                stack.load(init)
            del init
            final, _ = run_simulation(stack, cfg)
        except Exception as exc:
            where = f"level {level}, " if plan.levels > 1 else ""
            raise SimulationError(f"{where}sample {k} failed: {exc}") from exc
        for f in functionals:
            f.update(final)
        del final
    return functionals


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


def run_mlmc(plan: SamplePlan, cfg: SchemeConfig, evaluate_init, build) -> list:
    """The functionals that ``build(grid)`` returns for the coarsest grid,
    fed by the level-0 samples and then corrected once per finer level l:
    the level-l samples run on its grid and then on level l - 1's, sample k
    of both from one random vector, each grid into fresh functionals, and
    ``correct`` takes the pair (only ``FieldMoments`` has one).  Monte Carlo
    is the plan of one level."""
    grids = plan.grids
    estimate = _run_level(plan, 0, grids[0], cfg, evaluate_init, build(grids[0]))
    for level in range(1, plan.levels):
        fine = _run_level(plan, level, grids[level], cfg, evaluate_init, build(grids[level]))
        coarse = _run_level(plan, level, grids[level - 1], cfg, evaluate_init,
                            build(grids[level - 1]))
        for f, fine_f, coarse_f in zip(estimate, fine, coarse):
            f.correct(fine_f, coarse_f)
    return estimate
