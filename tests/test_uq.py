import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslaw.equations import EquationModel, primitive_to_conserved
from conslaw.errors import ConfigError, SimulationError
from conslaw.grid import BoundaryKind, GridSpec, field_from_interior
from conslaw.numerics import FluxKind, Reconstruction, ReconstructionKind
from conslaw.solver import SchemeConfig, run_simulation
from conslaw.uq import (
    FieldMoments,
    Histogram,
    MlmcPlan,
    MomentAccumulator,
    SamplePlan,
    StructureFunctionAccumulator,
    draw_sample,
    halton_point,
    prolong,
    radical_inverse,
    run_mc,
    run_mlmc,
)
from oracles import digit_reversal, streamed_moments, two_pass_moments


# ---------------------------------------------------------------------------
# Low-discrepancy points
# ---------------------------------------------------------------------------


def test_radical_inverse_known_values():
    assert radical_inverse(1, 2) == 0.5
    assert radical_inverse(2, 2) == 0.25
    assert radical_inverse(3, 2) == 0.75
    assert radical_inverse(4, 2) == 0.125
    assert radical_inverse(1, 3) == pytest.approx(1.0 / 3.0)
    assert radical_inverse(5, 3) == pytest.approx(7.0 / 9.0)  # 12_3 -> 0.21_3


@given(st.integers(min_value=1, max_value=10_000), st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=300)
def test_radical_inverse_matches_digit_reversal_oracle(index, base):
    assert radical_inverse(index, base) == pytest.approx(
        digit_reversal(index, base), abs=1e-15
    )
    assert 0.0 < radical_inverse(index, base) < 1.0


def test_halton_first_points():
    np.testing.assert_allclose(halton_point(1, 2), [0.5, 1.0 / 3.0])
    np.testing.assert_allclose(halton_point(2, 2), [0.25, 2.0 / 3.0])
    np.testing.assert_allclose(halton_point(3, 3), [0.75, 1.0 / 9.0, 3.0 / 5.0])


def test_halton_fills_the_unit_square():
    pts = np.array([halton_point(i, 2) for i in range(1, 257)])
    # every quadrant gets close to its fair share
    for qx in (0, 1):
        for qy in (0, 1):
            count = (
                ((pts[:, 0] >= 0.5 * qx) & (pts[:, 0] < 0.5 * (qx + 1)))
                & ((pts[:, 1] >= 0.5 * qy) & (pts[:, 1] < 0.5 * (qy + 1)))
            ).sum()
            assert abs(count - 64) <= 2


def test_draw_sample_reproducible_and_distinct():
    plan = SamplePlan(method="mc", samples=8, seed=3, stochastic_dim=4)
    a = draw_sample(plan, 5)
    b = draw_sample(plan, 5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, draw_sample(plan, 6))
    assert not np.array_equal(a, draw_sample(plan, 5, level=1))
    assert ((a >= 0) & (a < 1)).all()


def test_seed_must_fit_the_uint64_generator_key():
    # the largest key draws; one past either end is refused by both plans
    draw_sample(SamplePlan(seed=2 ** 64 - 1), 0)
    grid = GridSpec(1, (4,), (0.0,), (1.0,))
    for seed in (-1, 2 ** 64):
        with pytest.raises(ConfigError, match="seed"):
            SamplePlan(seed=seed)
        with pytest.raises(ConfigError, match="seed"):
            MlmcPlan(grids=(grid,), samples_per_level=(1,), seed=seed)


def test_qmc_samples_are_halton():
    plan = SamplePlan(method="qmc", samples=8, seed=3, stochastic_dim=2)
    np.testing.assert_allclose(draw_sample(plan, 0), halton_point(1, 2))
    np.testing.assert_allclose(draw_sample(plan, 3), halton_point(4, 2))


# ---------------------------------------------------------------------------
# Streaming moments
# ---------------------------------------------------------------------------


def test_moments_of_small_integer_sequence():
    acc = MomentAccumulator(())
    for v in [1.0, 2.0, 3.0, 4.0]:
        acc.update(np.asarray(v))
    assert acc.mean == pytest.approx(2.5)
    assert acc.variance(ddof=1) == pytest.approx(5.0 / 3.0)
    assert acc.second_moment() == pytest.approx(7.5)


def test_streaming_matches_two_pass_oracle():
    rng = np.random.default_rng(9)
    samples = rng.normal(3.0, 2.0, (200, 6))
    acc = MomentAccumulator((6,))
    for s in samples:
        acc.update(s)
    mean, var = two_pass_moments(samples)
    np.testing.assert_allclose(acc.mean, mean, rtol=1e-12)
    np.testing.assert_allclose(acc.variance(ddof=1), var, rtol=1e-12)


def test_update_is_bitwise_the_per_sample_merge_oracle():
    rng = np.random.default_rng(10)
    # a large offset makes every rounding difference show in m2
    samples = rng.normal(1e3, 1.0, (60, 500))
    samples[rng.random(samples.shape) < 0.05] = -0.0
    samples[:, 0] = -0.0
    # delta ** 2 overflows; one constant huge value still has no spread
    samples[:, 1] = 1e200
    acc = MomentAccumulator((500,))
    for s in samples:
        acc.update(s)
    count, mean, m2 = streamed_moments(samples)
    assert acc.count == count
    assert np.array_equal(acc.mean, mean)
    assert np.array_equal(acc.m2, m2)
    assert np.array_equal(np.signbit(acc.mean), np.signbit(mean))
    assert acc.m2[1] == 0.0


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def _tiny_field(values):
    g = GridSpec(1, (len(values),), (0.0,), (1.0,))
    return field_from_interior(g, np.asarray(values, dtype=float)[None])


def test_histogram_counts_and_overflow():
    h = Histogram([(0,), (2,)], component=0, lo=0.0, hi=1.0, bins=4)
    h.update(_tiny_field([0.1, 99.0, 0.6, 99.0]))
    h.update(_tiny_field([-5.0, 0.0, 0.9, 0.0]))
    assert h.counts[0, 1] == 1       # 0.1 in [0, 0.25)
    assert h.counts[0, 0] == 1       # -5 underflows
    assert h.counts[1, 3] == 1       # 0.6 in [0.5, 0.75)
    assert h.counts[1, 4] == 1       # 0.9
    assert h.counts.sum() == 4
    assert len(h.edges) == 5


def test_structure_function_on_known_profile():
    # u = [0, 1, 0, 1]: |u(x+1)-u(x)| = 1 everywhere, offset 2 gives 0
    s = StructureFunctionAccumulator(p=2.0, max_offset=2, component=0)
    s.update(_tiny_field([0.0, 1.0, 0.0, 1.0]))
    vals = s.values()
    assert vals[0] == pytest.approx(0.0)
    assert vals[1] == pytest.approx(1.0)
    assert vals[2] == pytest.approx(0.0)


def test_structure_function_averages_axes():
    g = GridSpec(2, (4, 4), (0.0, 0.0), (1.0, 1.0))
    vals = np.zeros((4, 4))
    vals[:, ::2] = 1.0  # stripes along y: jumps in x only
    f = field_from_interior(g, vals[None])
    s = StructureFunctionAccumulator(p=1.0, max_offset=1, component=0)
    s.update(f)
    # x-offset gives increments of 1, y-offset gives 0; axes averaged
    assert s.values()[1] == pytest.approx(0.5)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("outflow_axis", [None, 0, 1])
def test_structure_function_pairs_only_cells_inside_an_outflow_axis(p, outflow_axis):
    # a unit step along y at y = 4 of 8 rows, constant along x (6 columns):
    # offset h pairs h rows across the step.  Along y, outflow averages over
    # the 8 - h pairs inside the domain, periodic over all 8, the wrap
    # adding h more pairs across the step; x contributes 0, and the axes
    # are averaged.  No boundary kinds is periodic on every axis.
    g = GridSpec(2, (6, 8), (0.0, 0.0), (1.0, 1.0))
    vals = np.zeros((8, 6))
    vals[4:] = 1.0
    bc = []
    if outflow_axis is not None:
        bc = [BoundaryKind.PERIODIC] * 2
        bc[outflow_axis] = BoundaryKind.OUTFLOW
    s = StructureFunctionAccumulator(p, max_offset=4, component=0, grid=g, bc=tuple(bc))
    s.update(field_from_interior(g, vals[None]))
    h = np.arange(5)
    want = h / (8 - h) / 2 if outflow_axis == 1 else 2 * h / 8 / 2
    np.testing.assert_allclose(s.values(), want, rtol=0, atol=1e-15)


def test_structure_function_rejects_an_offset_with_no_pair_inside_an_outflow_axis():
    g = GridSpec(2, (6, 8), (0.0, 0.0), (1.0, 1.0))
    bc = (BoundaryKind.OUTFLOW, BoundaryKind.PERIODIC)
    StructureFunctionAccumulator(2.0, max_offset=5, grid=g, bc=bc)
    with pytest.raises(ConfigError, match="structure_max_offset 6 leaves no pair") as err:
        StructureFunctionAccumulator(2.0, max_offset=6, grid=g, bc=bc)
    assert err.value.key == "structure_max_offset"
    # a periodic axis takes the same bound: offset n would pair each cell with itself
    periodic = (BoundaryKind.PERIODIC,) * 2
    StructureFunctionAccumulator(2.0, max_offset=5, grid=g, bc=periodic)
    with pytest.raises(
        ConfigError, match="structure_max_offset 9 leaves no pair of cells inside periodic axis 0"
    ) as err:
        StructureFunctionAccumulator(2.0, max_offset=9, grid=g, bc=periodic)
    assert err.value.key == "structure_max_offset"


# ---------------------------------------------------------------------------
# Campaign drivers
# ---------------------------------------------------------------------------


def _instant_setup(n=8):
    grid = GridSpec(1, (n,), (0.0,), (1.0,))
    model = EquationModel(kind="euler", dim=1)
    cfg = SchemeConfig(
        model=model,
        flux=FluxKind.HLLC,
        recon=Reconstruction(ReconstructionKind.WENO2),
        rk_order=2,
        t_end=0.0,
        bc=(BoundaryKind.PERIODIC,),
    )

    def evaluate_init(g, vector):
        x = g.cell_centers(0)
        rho = np.full_like(x, 1.0 + vector[0])
        w = np.stack([rho, np.zeros_like(x), np.ones_like(x)])
        return field_from_interior(g, primitive_to_conserved(model, w))

    return grid, cfg, evaluate_init


def test_mc_mean_matches_direct_average():
    grid, cfg, evaluate_init = _instant_setup()
    plan = SamplePlan(method="mc", samples=20, seed=12, stochastic_dim=1)
    out = run_mc(
        plan, grid, cfg, evaluate_init, [FieldMoments(grid, cfg.model.ncomp)]
    )
    draws = [draw_sample(plan, k)[0] for k in range(20)]
    want = 1.0 + np.mean(draws)
    np.testing.assert_allclose(out[0].acc.mean[0], want, rtol=1e-13)


def _failing_on(vector, evaluate_init):
    def init(g, v):
        if np.array_equal(v, vector):
            raise ValueError("bad initial data")
        return evaluate_init(g, v)

    return init


def test_sample_failure_names_the_level_and_the_sample():
    grid, cfg, evaluate_init = _instant_setup(n=8)
    coarse = GridSpec(1, (4,), (0.0,), (1.0,))
    mlmc = MlmcPlan(
        grids=(coarse, grid), samples_per_level=(3, 2), method="mc",
        seed=18, stochastic_dim=1,
    )
    failing = _failing_on(draw_sample(mlmc, 1, 1), evaluate_init)
    with pytest.raises(SimulationError, match=r"^level 1, sample 1 failed: bad initial data"):
        run_mlmc(mlmc, cfg, failing)
    mc = SamplePlan(method="mc", samples=5, seed=18, stochastic_dim=1)
    failing = _failing_on(draw_sample(mc, 3), evaluate_init)
    with pytest.raises(SimulationError, match=r"^sample 3 failed: bad initial data"):
        run_mc(mc, grid, cfg, failing, [FieldMoments(grid, cfg.model.ncomp)])


def _record_solves(monkeypatch, evaluate_init):
    """Wrap ``evaluate_init`` and ``conslaw.uq.run_simulation`` so every
    sample logs its grid, random vector and the thread that solved it."""
    import threading

    import conslaw.uq as uq

    inits, solves = [], []
    solve = uq.run_simulation

    def logged_init(g, vector):
        inits.append((g.cells, np.array(vector)))
        return evaluate_init(g, vector)

    def logged_solve(init, cfg):
        solves.append((init.grid.cells, threading.get_ident()))
        return solve(init, cfg)

    monkeypatch.setattr(uq, "run_simulation", logged_solve)
    return logged_init, inits, solves


def test_mc_solves_every_sample_in_index_order_on_the_calling_thread(monkeypatch):
    import threading

    grid, cfg, evaluate_init = _instant_setup()
    plan = SamplePlan(method="mc", samples=5, seed=16, stochastic_dim=2)
    logged_init, inits, solves = _record_solves(monkeypatch, evaluate_init)
    run_mc(plan, grid, cfg, logged_init, [FieldMoments(grid, cfg.model.ncomp)])
    assert len(inits) == len(solves) == 5
    for k, (cells, vector) in enumerate(inits):
        assert cells == grid.cells
        np.testing.assert_array_equal(vector, draw_sample(plan, k))
    assert {ident for _, ident in solves} == {threading.get_ident()}


def test_mlmc_runs_coarse_and_fine_grids_on_the_same_vectors(monkeypatch):
    import threading

    grid, cfg, evaluate_init = _instant_setup(n=8)
    coarse = GridSpec(1, (4,), (0.0,), (1.0,))
    plan = MlmcPlan(
        grids=(coarse, grid), samples_per_level=(3, 2), method="mc",
        seed=17, stochastic_dim=1,
    )
    logged_init, inits, solves = _record_solves(monkeypatch, evaluate_init)
    run_mlmc(plan, cfg, logged_init)
    # level 0 on the coarse grid, then level 1 on the fine and the coarse
    # grid, each in sample-index order
    want = (
        [(coarse.cells, draw_sample(plan, k, 0)) for k in range(3)]
        + [(grid.cells, draw_sample(plan, k, 1)) for k in range(2)]
        + [(coarse.cells, draw_sample(plan, k, 1)) for k in range(2)]
    )
    assert [cells for cells, _ in inits] == [cells for cells, _ in want]
    for (_, got), (_, vector) in zip(inits, want):
        np.testing.assert_array_equal(got, vector)
    assert [cells for cells, _ in solves] == [cells for cells, _ in want]
    assert {ident for _, ident in solves} == {threading.get_ident()}


def test_prolongation_repeats_cells():
    coarse = np.array([[1.0, 2.0], [3.0, 4.0]])
    fine = prolong(coarse[None], (2, 2))[0]
    np.testing.assert_array_equal(
        fine,
        [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
    )


def test_mlmc_single_level_is_plain_mc_bitwise():
    grid, cfg, evaluate_init = _instant_setup()
    plan = SamplePlan(method="mc", samples=10, seed=13, stochastic_dim=1)
    mc = run_mc(
        plan, grid, cfg, evaluate_init, [FieldMoments(grid, cfg.model.ncomp)]
    )[0].acc
    mlmc = run_mlmc(
        MlmcPlan(
            grids=(grid,), samples_per_level=(10,), method="mc",
            seed=13, stochastic_dim=1,
        ),
        cfg,
        evaluate_init,
    )
    np.testing.assert_array_equal(mlmc.mean, mc.mean)
    np.testing.assert_array_equal(mlmc.variance, mc.variance(ddof=1))


def test_mlmc_identical_grids_have_vanishing_corrections():
    grid, cfg, evaluate_init = _instant_setup()
    single = run_mlmc(
        MlmcPlan(
            grids=(grid,), samples_per_level=(6,), method="mc",
            seed=14, stochastic_dim=1,
        ),
        cfg, evaluate_init,
    )
    stacked = run_mlmc(
        MlmcPlan(
            grids=(grid, grid), samples_per_level=(6, 5), method="mc",
            seed=14, stochastic_dim=1,
        ),
        cfg, evaluate_init,
    )
    # fine and coarse samples coincide on identical grids, so every
    # correction term cancels and the answer is the level-0 estimate
    np.testing.assert_allclose(stacked.mean, single.mean, atol=1e-12)
    np.testing.assert_allclose(
        stacked.second_moment, single.second_moment, atol=1e-12
    )


def test_mlmc_two_levels_produces_finite_fields():
    grid, cfg, evaluate_init = _instant_setup(n=8)
    coarse = GridSpec(1, (4,), (0.0,), (1.0,))
    res = run_mlmc(
        MlmcPlan(
            grids=(coarse, grid), samples_per_level=(8, 4), method="mc",
            seed=15, stochastic_dim=1,
        ),
        cfg, evaluate_init,
    )
    assert res.mean.shape == (3, 8)
    assert np.isfinite(res.mean).all()
    assert np.isfinite(res.variance).all()


def test_mlmc_of_three_levels_is_level_0_plus_each_correction_bitwise():
    grids = tuple(GridSpec(1, (n,), (0.0,), (1.0,)) for n in (4, 8, 16))
    cfg = SchemeConfig(
        model=EquationModel(kind="burgers", dim=1),
        flux=FluxKind.RUSANOV,
        recon=Reconstruction(ReconstructionKind.WENO2),
        rk_order=2,
        t_end=0.05,
        bc=(BoundaryKind.PERIODIC,),
    )

    def evaluate_init(g, vector):
        x = g.cell_centers(0)
        u = 1.0 + 0.5 * vector[0] * np.sin(2 * np.pi * (x + vector[1]))
        return field_from_interior(g, u[None])

    plan = MlmcPlan(grids=grids, samples_per_level=(6, 4, 3), method="mc",
                    seed=19, stochastic_dim=2)
    got = run_mlmc(plan, cfg, evaluate_init)

    def on_finest(level, grid):
        """The mean and second moment of a level's samples on ``grid``,
        repeated onto the 16 cells of the finest grid."""
        moments = FieldMoments(grid, 1)
        for k in range(plan.samples_per_level[level]):
            final, _ = run_simulation(evaluate_init(grid, draw_sample(plan, k, level)), cfg)
            moments.update(final)
        repeat = 16 // grid.cells[0]
        return (np.repeat(moments.acc.mean, repeat, axis=1),
                np.repeat(moments.acc.second_moment(), repeat, axis=1))

    level0 = on_finest(0, grids[0])
    mean, second = level0
    for level in (1, 2):
        (mean_f, second_f), (mean_c, second_c) = (
            on_finest(level, grids[level]), on_finest(level, grids[level - 1])
        )
        mean = mean + (mean_f - mean_c)
        second = second + (second_f - second_c)
    # the corrections do not vanish: each level changes the estimate
    assert not np.array_equal(mean, level0[0])
    assert np.array_equal(got.mean, mean)
    assert np.array_equal(got.second_moment, second)
    assert np.array_equal(got.variance, second - mean ** 2)


def test_mlmc_plan_requires_nested_grids():
    g8 = GridSpec(1, (8,), (0.0,), (1.0,))
    g6 = GridSpec(1, (6,), (0.0,), (1.0,))
    with pytest.raises(ConfigError):
        MlmcPlan(
            grids=(g6, g8), samples_per_level=(4, 2), method="mc",
            seed=1, stochastic_dim=1,
        )
