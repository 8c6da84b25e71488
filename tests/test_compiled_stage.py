"""The step of a run's stack: the compiled Euler end-of-step pass against
``equations.max_wave_speeds``, the step of both stacks
(``numerics.EulerStack`` and ``numerics.ScalarStack``) against the
per-stage reference ``oracles.per_stage_step``, whose combination rounds as
``ssp_rk_advance``, the one kernel call of a step, and the global field that
observers stitch on demand.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslaw import numerics, solver
from conslaw.equations import EquationModel, max_wave_speeds
from conslaw.grid import Field
from conslaw.iodsl import config, parse_config
from conslaw.numerics import EulerStack, FluxKind, ReconstructionKind, ScalarStack
from conslaw.parallel import halo_plan, scatter_field
from conslaw.presets import KH2D
from conslaw.solver import run_simulation
from test_face_kernel import make_case, random_prim, reference_step

#: rank layouts of 1, 2 and 4 ranks per dimension
LAYOUTS = {
    1: [(1,), (2,), (4,)],
    2: [(1, 1), (2, 1), (2, 2)],
    3: [(1, 1, 1), (1, 2, 1), (2, 1, 2)],
}


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@st.composite
def stacks(draw):
    """A random physical Euler stack of 1, 2 or 4 ranks, and its scheme."""
    dim = draw(st.integers(1, 3))
    ranks = draw(st.sampled_from(LAYOUTS[dim]))
    cells = tuple(r * draw(st.integers(2, {1: 12, 2: 5, 3: 3}[dim])) for r in ranks)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prim = random_prim(rng, tuple(reversed(cells)), palette=draw(st.sampled_from([0, 3])))
    # densities and pressures over many decades, down to near the floor
    scale = draw(st.sampled_from([1.0, 1e-9, 1e6]))
    prim[0] *= scale
    prim[-1] *= scale
    field, cfg = make_case(prim, FluxKind.HLLC, ReconstructionKind.WENO3)
    return scatter_field(field, ranks), cfg


@settings(max_examples=150, deadline=None)
@given(case=stacks())
def test_the_cell_pass_maxima_are_those_of_max_wave_speeds(case):
    stack, cfg = case
    want = [np.max(s) for s in max_wave_speeds(cfg.model, stack.interior)]
    compiled = EulerStack(stack, cfg)
    assert compiled.cell_pass() == 0
    assert np.array_equal(_bits(compiled.maxima), _bits(np.array(want)))
    assert np.array_equal(_bits(solver.wave_speed_maxima(compiled, cfg)), _bits(compiled.maxima))


@pytest.mark.parametrize("bad", ["nan", "inf", "negative energy", "zero density"])
def test_the_cell_pass_rejects_a_cell_that_is_not_finite_or_not_physical(bad):
    field, cfg = make_case(random_prim(np.random.default_rng(3), (4, 6)),
                           FluxKind.HLLC, ReconstructionKind.WENO3)
    g = field.grid.ghost_width
    component, value = {
        "nan": (1, np.nan), "inf": (3, np.inf), "negative energy": (3, -1.0),
        "zero density": (0, 0.0),
    }[bad]
    field.data[component, g + 2, g + 5] = value
    assert EulerStack(field, cfg).cell_pass() == 1


def _odd_layout_stack(rng, ranks):
    """A 2D stack of ``ranks`` ranks whose state is a view with an x stride
    of two elements, so its interior is strided along every axis."""
    field, cfg = make_case(random_prim(rng, (4, 6)), FluxKind.RUSANOV, ReconstructionKind.NONE)
    stack = scatter_field(field, (ranks, 1))
    wide = np.zeros(stack.data.shape[:-1] + (2 * stack.data.shape[-1],))
    data = wide[..., ::2]
    data[...] = stack.data
    return Field(stack.grid, stack.ncomp, data), cfg


def _bound(stack_class, state, cfg, ranks):
    """``state`` (a field, or a stack on the layout ``ranks``) bound to
    ``stack_class`` with its halo plan."""
    data = state.data if state.data.ndim > state.grid.dim + 1 else state.data[:, None]
    plan = halo_plan(Field(state.grid, state.ncomp, data), ranks, cfg.bc)
    return stack_class(state, cfg, plan)


#: (layout, RK order, stack class) of each step case; an Euler state must be
#: contiguous along x, so only the scalar stack steps the strided-x layout
#: (test_compiled_sweep.py checks that an Euler stack refuses it)
STEP_CASES = [
    (layout, order, stack_class)
    for layout in ("field", "stack of 2", "strided x")
    for order in (1, 2, 3)
    for stack_class in (EulerStack, ScalarStack)
    if (layout, stack_class) != ("strided x", EulerStack)
]


@pytest.mark.parametrize(
    "layout, order, stack_class", STEP_CASES,
    ids=[f"{layout}-{order}-{stack_class.__name__}" for layout, order, stack_class in STEP_CASES],
)
def test_a_step_rounds_as_the_per_stage_reference(stack_class, order, layout):
    rng = np.random.default_rng(order)
    ranks = (1, 1) if layout == "field" else (2, 1)
    if layout == "strided x":
        state, cfg = _odd_layout_stack(rng, 2)
    else:
        state, cfg = make_case(random_prim(rng, (4, 6)), FluxKind.HLLC, ReconstructionKind.WENO3)
        if layout == "stack of 2":
            state = scatter_field(state, ranks)
    if stack_class is ScalarStack:
        # Burgers on the density, with the Rusanov flux
        state = Field(state.grid, 1, state.data[:1])
        cfg = solver.SchemeConfig(EquationModel(kind="burgers", dim=2), recon=cfg.recon, bc=cfg.bc)
    cfg = solver.SchemeConfig(cfg.model, cfg.flux, cfg.recon, rk_order=order, bc=cfg.bc)
    reference = _bound(stack_class, Field(state.grid, state.ncomp, state.data.copy()), cfg,
                       ranks)
    stack = _bound(stack_class, state, cfg, ranks)
    initial = stack.interior.copy()
    assert stack.cell_pass() == 0
    # a dt with rounding in every digit
    dt = 0.7654321 * solver.dt_from_maxima(stack.maxima, stack.grid.deltas, cfg.cfl)
    assert stack.step(dt) == 0
    assert reference_step(reference, dt) == (0, None)
    assert not np.array_equal(stack.interior, initial)
    assert np.array_equal(_bits(stack.data), _bits(reference.data))
    assert np.array_equal(_bits(stack.maxima), _bits(reference.maxima))
    if order > 1:
        # the state at the start of the step
        assert np.array_equal(_bits(stack.start), _bits(initial))


def _counting_kernel(monkeypatch, counts):
    """Count the calls of every entry point of the compiled kernel."""
    real = numerics.face_kernel()

    def counted(name, entry):
        def call(*args):
            counts[name] += 1
            return entry(*args)
        return call

    kernel = numerics.FaceKernel(*(counted(n, e) for n, e in zip(real._fields, real)))
    monkeypatch.setattr(numerics, "face_kernel", lambda: kernel)


@pytest.mark.parametrize("ranks", [None, (2, 1)])
def test_an_rk3_euler_step_is_one_kernel_call(monkeypatch, ranks):
    field, cfg = make_case(random_prim(np.random.default_rng(5), (4, 8)),
                           FluxKind.HLLC, ReconstructionKind.WENO3)
    assert cfg.rk_order == 3
    counts = Counter()
    _counting_kernel(monkeypatch, counts)
    for module, name in ((solver, "physical_mask"), (numerics, "max_wave_speeds"),
                         (numerics, "exchange_halos")):
        monkeypatch.setattr(module, name, lambda *args, name=name: counts.update([name]))
    run_simulation(field, cfg, ranks, steps=2)
    # the line scratch's size when the stack is bound, the initial field's
    # cell pass, then one call per step: its three stages (halo pass,
    # residual, combination) and its cell pass; no numpy check or halo pass
    assert counts == {"cells": 1, "step": 2, "scratch": 1}


def test_observers_stitch_the_global_field_only_on_demand(monkeypatch):
    field, cfg = make_case(random_prim(np.random.default_rng(8), (4, 8)),
                           FluxKind.HLLC, ReconstructionKind.WENO3)
    stitches = []
    real_stitch = solver.stitch_fields
    monkeypatch.setattr(
        solver, "stitch_fields", lambda *args: stitches.append(args) or real_stitch(*args)
    )
    seen = []

    def every_second_step(step, t, global_field):
        if step % 2 == 0:
            # asked twice, stitched once
            seen.append(global_field() is global_field())

    final, _ = run_simulation(field, cfg, (2, 1), [every_second_step, lambda *args: None],
                              steps=5)
    assert seen == [True] * 3
    # steps 0, 2 and 4, then the final field
    assert len(stitches) == 4


def test_the_parse_time_spot_check_evaluates_the_random_symbols_in_use(monkeypatch):
    lengths = []
    real_eval = config.eval_init

    def recording(exprs, model, grid, random_vector=(), **kwargs):
        lengths.append(len(random_vector))
        return real_eval(exprs, model, grid, random_vector, **kwargs)

    monkeypatch.setattr(config, "eval_init", recording)
    text = KH2D.replace("cells = 64 64", "cells = 16 16")
    cfg = parse_config(text.replace("stochastic_dim = 4", f"stochastic_dim = {10**6}"))
    assert cfg.uq.stochastic_dim == 10**6
    # the kh2d initial data uses X0 .. X3
    assert lengths == [4, 4, 4]
