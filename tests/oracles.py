"""Independent reference implementations used to check the solver.

Everything here is written from first principles against the governing
equations, deliberately sharing no code with the package: an exact Riemann
solver for the 1D Euler equations, naive two-pass statistics, the rank
offsets of a decomposition, a digit-reversal sequence, WENO face values and
weights, the sound speed and primitive variables, a face-by-face Euler
residual, the SSP Runge-Kutta step as convex combinations of Euler steps,
and the step of a run's stack made stage by stage from them.  The WENO
formulas are the ones the face-by-face residual uses, which the solver must
match bit for bit, so the tests of their properties also hold for the
solver.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np


# ---------------------------------------------------------------------------
# Exact Riemann solver (ideal gas), Newton iteration on the star pressure
# ---------------------------------------------------------------------------


def _pressure_function(p, rho_k, p_k, a_k, gamma):
    """f_K(p) and its derivative for one side of the star region."""
    if p > p_k:  # shock
        A = 2.0 / ((gamma + 1.0) * rho_k)
        B = (gamma - 1.0) / (gamma + 1.0) * p_k
        root = math.sqrt(A / (p + B))
        f = (p - p_k) * root
        df = root * (1.0 - 0.5 * (p - p_k) / (B + p))
    else:  # rarefaction
        f = 2.0 * a_k / (gamma - 1.0) * ((p / p_k) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)
        df = (p / p_k) ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho_k * a_k)
    return f, df


def solve_star_state(left, right, gamma=1.4, tol=1e-12, max_iter=100):
    """Star-region pressure and velocity for primitive states (rho, u, p)."""
    rho_l, u_l, p_l = left
    rho_r, u_r, p_r = right
    a_l = math.sqrt(gamma * p_l / rho_l)
    a_r = math.sqrt(gamma * p_r / rho_r)
    du = u_r - u_l
    if 2.0 * (a_l + a_r) / (gamma - 1.0) <= du:
        raise ValueError("states produce vacuum")

    # two-rarefaction initial guess, clipped away from zero
    z = (gamma - 1.0) / (2.0 * gamma)
    p = ((a_l + a_r - 0.5 * (gamma - 1.0) * du) /
         (a_l / p_l ** z + a_r / p_r ** z)) ** (1.0 / z)
    p = max(p, 1e-14)
    for _ in range(max_iter):
        f_l, df_l = _pressure_function(p, rho_l, p_l, a_l, gamma)
        f_r, df_r = _pressure_function(p, rho_r, p_r, a_r, gamma)
        g = f_l + f_r + du
        step = g / (df_l + df_r)
        p_new = max(p - step, 1e-14)
        if abs(p_new - p) <= tol * (0.5 * (p_new + p)):
            p = p_new
            break
        p = p_new
    f_l, _ = _pressure_function(p, rho_l, p_l, a_l, gamma)
    f_r, _ = _pressure_function(p, rho_r, p_r, a_r, gamma)
    u = 0.5 * (u_l + u_r) + 0.5 * (f_r - f_l)
    return p, u


def sample_riemann(left, right, xi, gamma=1.4):
    """Self-similar solution (rho, u, p) at speed xi = x / t."""
    rho_l, u_l, p_l = left
    rho_r, u_r, p_r = right
    a_l = math.sqrt(gamma * p_l / rho_l)
    a_r = math.sqrt(gamma * p_r / rho_r)
    p_s, u_s = solve_star_state(left, right, gamma)
    gp = gamma + 1.0
    gm = gamma - 1.0

    if xi <= u_s:  # left of the contact
        if p_s > p_l:  # left shock
            s_l = u_l - a_l * math.sqrt(gp / (2 * gamma) * p_s / p_l + gm / (2 * gamma))
            if xi <= s_l:
                return rho_l, u_l, p_l
            rho = rho_l * ((p_s / p_l + gm / gp) / (gm / gp * p_s / p_l + 1.0))
            return rho, u_s, p_s
        # left rarefaction
        head = u_l - a_l
        a_sl = a_l * (p_s / p_l) ** (gm / (2 * gamma))
        tail = u_s - a_sl
        if xi <= head:
            return rho_l, u_l, p_l
        if xi >= tail:
            return rho_l * (p_s / p_l) ** (1.0 / gamma), u_s, p_s
        u = 2.0 / gp * (a_l + 0.5 * gm * u_l + xi)
        a = 2.0 / gp * (a_l + 0.5 * gm * (u_l - xi))
        rho = rho_l * (a / a_l) ** (2.0 / gm)
        return rho, u, rho * a * a / gamma

    if p_s > p_r:  # right shock
        s_r = u_r + a_r * math.sqrt(gp / (2 * gamma) * p_s / p_r + gm / (2 * gamma))
        if xi >= s_r:
            return rho_r, u_r, p_r
        rho = rho_r * ((p_s / p_r + gm / gp) / (gm / gp * p_s / p_r + 1.0))
        return rho, u_s, p_s
    # right rarefaction
    head = u_r + a_r
    a_sr = a_r * (p_s / p_r) ** (gm / (2 * gamma))
    tail = u_s + a_sr
    if xi >= head:
        return rho_r, u_r, p_r
    if xi <= tail:
        return rho_r * (p_s / p_r) ** (1.0 / gamma), u_s, p_s
    u = 2.0 / gp * (-a_r + 0.5 * gm * u_r + xi)
    a = 2.0 / gp * (a_r - 0.5 * gm * (u_r - xi))
    rho = rho_r * (a / a_r) ** (2.0 / gm)
    return rho, u, rho * a * a / gamma


def riemann_density_profile(left, right, x, t, x0=0.5, gamma=1.4):
    """Density at positions x and time t for a jump initially at x0."""
    if t <= 0:
        return np.where(np.asarray(x) < x0, left[0], right[0])
    return np.array(
        [sample_riemann(left, right, (xi - x0) / t, gamma)[0] for xi in np.asarray(x)]
    )


# ---------------------------------------------------------------------------
# Small oracles
# ---------------------------------------------------------------------------


def two_pass_moments(samples):
    """Mean and unbiased variance the slow, obvious way."""
    arr = np.asarray(samples, dtype=float)
    mean = arr.mean(axis=0)
    if arr.shape[0] < 2:
        return mean, np.zeros_like(mean)
    var = ((arr - mean) ** 2).sum(axis=0) / (arr.shape[0] - 1)
    return mean, var


def streamed_moments(samples):
    """Count, mean and M2 of ``samples`` as a per-sample merge loop makes
    them: each sample becomes a one-sample Welford accumulator that is then
    merged pairwise (Chan et al.) into the running one, which an empty
    running accumulator copies."""
    count, mean, m2 = 0, None, None
    for value in np.asarray(samples, dtype=float):
        one = 0.0 + (value - 0.0) / 1
        one_m2 = 0.0 + (value - 0.0) * (value - one)
        if count == 0:
            mean, m2 = one.copy(), one_m2.copy()
        else:
            total = count + 1
            delta = one - mean
            frac = 1 / total
            mean = mean + delta * frac
            m2 = m2 + one_m2 + delta ** 2 * count * frac
        count += 1
    return count, mean, m2


def rank_offsets(cells, ranks):
    """Global index (x first) of the first interior cell of each rank of the
    layout ``ranks`` on a grid of ``cells``, in rank order: ranks numbered x
    fastest, then y, then z."""
    local = [n // r for n, r in zip(cells, ranks)]
    # product() varies its last factor fastest: list the axes z first
    coords = itertools.product(*(range(r) for r in reversed(ranks)))
    return [
        tuple(c * m for c, m in zip(reversed(zyx), local)) for zyx in coords
    ]


def digit_reversal(index: int, base: int) -> float:
    """Reverse the base-b digits of ``index`` across the radix point."""
    digits = []
    n = index
    while n > 0:
        digits.append(n % base)
        n //= base
    value = 0.0
    for d in reversed(digits):
        value = value / base + d
    return value / base


def scalar_rusanov(f, speed, u_l, u_r):
    """Local Lax-Friedrichs flux for a scalar law with flux f and |f'| bound."""
    s = max(speed(u_l), speed(u_r))
    return 0.5 * (f(u_l) + f(u_r)) - 0.5 * s * (u_r - u_l)


def sound_speed(model, u):
    """c = sqrt(gamma p / rho) of Euler states (component axis first)."""
    return np.sqrt(model.gamma * _ref_pressure(u, model.dim, model.gamma) / u[0])


def conserved_to_primitive(model, u):
    """(rho, m, E) -> (rho, v, p)."""
    u = np.asarray(u, dtype=float)
    w = np.empty_like(u)
    w[0] = u[0]
    for k in range(model.dim):
        w[1 + k] = u[1 + k] / u[0]
    w[1 + model.dim] = _ref_pressure(u, model.dim, model.gamma)
    return w


# ---------------------------------------------------------------------------
# WENO reconstruction, vectorized over arrays of windows
# ---------------------------------------------------------------------------

Faces = namedtuple("Faces", "uL uR")


def weno_weights(um, uc, up, kind, epsilon=1e-6):
    """Normalized nonlinear weights of the two substencils of the window
    (um, uc, up); ``kind`` is a WENO2 or WENO3 ReconstructionKind."""
    um, uc, up = (np.asarray(v, dtype=float) for v in (um, uc, up))
    ideal = _IDEAL[kind.value]
    beta0, beta1 = (uc - um) * (uc - um), (up - uc) * (up - uc)
    a0 = ideal[0] / ((epsilon + beta0) * (epsilon + beta0))
    a1 = ideal[1] / ((epsilon + beta1) * (epsilon + beta1))
    total = a0 + a1
    return a0 / total, a1 / total


def weno_face_value(um, uc, up, kind, epsilon):
    """Reconstructed value at the downwind face of the center cell, written
    as uc plus a slope correction, so constant data is reproduced exactly."""
    um, uc, up = (np.asarray(v, dtype=float) for v in (um, uc, up))
    w0, w1 = weno_weights(um, uc, up, kind, epsilon)
    return uc + 0.5 * (w0 * (uc - um) + w1 * (up - uc))


def reconstruct(field, axis, recon):
    """Face states at the n+1 interfaces along spatial ``axis`` of a
    ghost-filled field; interface j sits between padded cells g-1+j, g+j."""
    g, n = field.grid.ghost_width, field.grid.cells[axis]
    ax = field.data.ndim - 1 - axis
    u = np.moveaxis(field.data, ax, 0)
    if recon.kind.value == "none":
        uL, uR = u[g - 1 : g + n], u[g : g + n + 1]
    else:
        left, center, right = u[g - 2 : g + n - 1], u[g - 1 : g + n], u[g : g + n + 1]
        uL = weno_face_value(left, center, right, recon.kind, recon.epsilon)
        uR = weno_face_value(u[g + 1 : g + n + 2], right, center, recon.kind, recon.epsilon)
    return Faces(np.moveaxis(uL, 0, ax), np.moveaxis(uR, 0, ax))


# ---------------------------------------------------------------------------
# Face-by-face Euler residual
# ---------------------------------------------------------------------------
#
# The WENO face values, the first-order positivity fallback and the HLLC and
# Rusanov fluxes, evaluated one face at a time in Python floats.  Each face
# performs the same IEEE operations in the same order as the vectorized
# solver, so the residual must agree bit for bit (up to the sign of zeros,
# which compare equal).

_FLOOR = 1e-12
_IDEAL = {"weno2": (0.5, 0.5), "weno3": (1.0 / 3.0, 2.0 / 3.0)}


def _ref_pressure(u, dim, gamma):
    kinetic = sum(u[1 + k] * u[1 + k] for k in range(dim)) / (2.0 * u[0])
    return (gamma - 1.0) * (u[1 + dim] - kinetic)


def _ref_physical(u, dim, gamma):
    return u[0] > _FLOOR and _ref_pressure(u, dim, gamma) > _FLOOR


def _ref_weno(um, uc, up, ideal, eps):
    beta0 = (uc - um) * (uc - um)
    beta1 = (up - uc) * (up - uc)
    a0 = ideal[0] / ((eps + beta0) * (eps + beta0))
    a1 = ideal[1] / ((eps + beta1) * (eps + beta1))
    total = a0 + a1
    return uc + 0.5 * ((a0 / total) * (uc - um) + (a1 / total) * (up - uc))


def _ref_flux(u, axis, dim, gamma):
    vk = u[1 + axis] / u[0]
    p = _ref_pressure(u, dim, gamma)
    f = [u[1 + axis]] + [u[1 + j] * vk for j in range(dim)] + [(u[1 + dim] + p) * vk]
    f[1 + axis] = f[1 + axis] + p
    return f, vk, p, math.sqrt(gamma * p / u[0])


def _ref_hllc(uL, uR, axis, dim, gamma):
    fL, vL, pL, cL = _ref_flux(uL, axis, dim, gamma)
    fR, vR, pR, cR = _ref_flux(uR, axis, dim, gamma)
    rhoL, rhoR = uL[0], uR[0]
    sL = min(vL - cL, vR - cR)
    sR = max(vL + cL, vR + cR)
    if sR - sL <= 0:
        raise ValueError("degenerate wave fan")
    if uL == uR:
        return fL
    if sL >= 0:
        return fL
    den = rhoL * (sL - vL) - rhoR * (sR - vR)
    sM = (pR - pL + rhoL * vL * (sL - vL) - rhoR * vR * (sR - vR)) / den

    def star_flux(u, f, rho, v, p, sK):
        factor = rho * (sK - v) / (sK - sM)
        star = [factor] + [factor * (u[1 + j] / rho) for j in range(dim)]
        star[1 + axis] = factor * sM
        star.append(factor * (u[1 + dim] / rho + (sM - v) * (sM + p / (rho * (sK - v)))))
        return [f[k] + sK * (star[k] - u[k]) for k in range(len(u))]

    if sM >= 0:
        return star_flux(uL, fL, rhoL, vL, pL, sL)
    if sR > 0:
        return star_flux(uR, fR, rhoR, vR, pR, sR)
    return fR


def _ref_rusanov(uL, uR, axis, dim, gamma):
    fL, vL, _, cL = _ref_flux(uL, axis, dim, gamma)
    fR, vR, _, cR = _ref_flux(uR, axis, dim, gamma)
    s = max(abs(vL) + cL, abs(vR) + cR)
    return [0.5 * (fL[k] + fR[k]) - 0.5 * s * (uR[k] - uL[k]) for k in range(len(uL))]


def reference_face_flux(line, k, axis, dim, gamma, flux, recon, eps):
    """Flux at the face between cells k-1 and k of ``line`` (a list of states
    along ``axis``); ``flux`` is "hllc" or "rusanov", ``recon`` "none",
    "weno2" or "weno3"."""
    first = (line[k - 1], line[k])
    if recon == "none":
        uL, uR = first
    else:
        ideal = _IDEAL[recon]
        a, b, c, d = line[k - 2], line[k - 1], line[k], line[k + 1]
        uL = [_ref_weno(a[i], b[i], c[i], ideal, eps) for i in range(len(b))]
        uR = [_ref_weno(d[i], c[i], b[i], ideal, eps) for i in range(len(b))]
        if not (_ref_physical(uL, dim, gamma) and _ref_physical(uR, dim, gamma)):
            uL, uR = first
    if not (_ref_physical(uL, dim, gamma) and _ref_physical(uR, dim, gamma)):
        raise ValueError(f"unphysical face state at face {k}")
    solver = _ref_hllc if flux == "hllc" else _ref_rusanov
    return solver(list(uL), list(uR), axis, dim, gamma)


def reference_euler_residual(data, ghost, deltas, gamma, flux, recon, eps=1e-6):
    """Residual of the interior cells of a ghost-filled Euler array ``data``
    of shape (ncomp, n_last, ..., n_x), computed face by face."""
    ncomp = data.shape[0]
    dim = data.ndim - 1
    interior = tuple(n - 2 * ghost for n in data.shape[1:])
    out = np.zeros((ncomp,) + interior)
    cache = {}
    for cell in np.ndindex(*interior):
        pad = [i + ghost for i in cell]
        if not _ref_physical([float(x) for x in data[(slice(None),) + tuple(pad)]], dim, gamma):
            raise ValueError(f"unphysical interior cell {cell}")
        acc = [0.0] * ncomp
        for axis in range(dim):
            ax = dim - 1 - axis
            pos = pad[ax]
            faces = []
            for k in (pos, pos + 1):
                key = (axis, tuple(pad[:ax]), tuple(pad[ax + 1:]), k)
                if key not in cache:
                    idx = list(pad)
                    line = {}
                    for j in range(k - 2, k + 2):
                        if 0 <= j < data.shape[1 + ax]:
                            idx[ax] = j
                            line[j] = [float(x) for x in data[(slice(None),) + tuple(idx)]]
                    cache[key] = reference_face_flux(
                        line, k, axis, dim, gamma, flux, recon, eps
                    )
                faces.append(cache[key])
            lo, hi = faces
            acc = [acc[c] - (hi[c] - lo[c]) / deltas[axis] for c in range(ncomp)]
        out[(slice(None),) + cell] = acc
    return out


# ---------------------------------------------------------------------------
# SSP Runge-Kutta (Gottlieb, Shu & Tadmor 2001) as convex combinations of
# forward Euler steps
# ---------------------------------------------------------------------------

#: (a, b) of each stage after the first: u <- a u0 + b (u + dt L(u))
_SSP_COMBINATIONS = {1: (), 2: ((0.5, 0.5),), 3: ((0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0))}


def ssp_rk_advance(u: np.ndarray, dt: float, L, order: int, start=None):
    """SSP Runge-Kutta step written as convex combinations of Euler steps.

    Updates ``u`` in place and returns it.  ``L(u)`` must return a new array,
    which is used as scratch; ``start`` (shaped like ``u``) receives the state
    at the start of the step and is allocated when not given.  Every value
    rounds as in ``a * u0 + b * (u + dt * L(u))``, the rounding the solver's
    stacks must match.  Works on any array state with an arbitrary
    right-hand side.
    """
    if order not in _SSP_COMBINATIONS:
        raise ValueError(f"unsupported rk order {order}")
    stages = _SSP_COMBINATIONS[order]
    if stages:
        if start is None:
            start = np.empty_like(u)
        start[...] = u
    k = L(u)
    k *= dt
    u += k
    for a, b in stages:
        k = L(u)
        k *= dt
        k += u
        k *= b
        np.multiply(start, a, out=u)
        u += k
    return u


class _Stopped(Exception):
    """A residual of ``per_stage_step`` returned a nonzero status."""


def per_stage_step(stack, dt: float, residual=None):
    """One SSP-RK step of a run's stack with every part of each stage a call
    of its own: the reference of the solver's one-call step.

    ``stack`` is a run's stack (``conslaw.numerics.Stack``): its halo plan
    ``halo``, state ``interior``, buffers ``residual`` and ``start`` and
    scheme ``cfg`` are read.  Each stage runs the halo pass in numpy (every
    (destination, source) copy of the plan, in order), then
    ``residual(stack)``, which fills ``stack.residual`` and returns 0 or a
    failure status (the stack's own ``compute_residual`` by default), then
    the combination, rounded as ``ssp_rk_advance``; the state at the start
    of the step goes to ``stack.start``.  The end-of-step cell pass is left
    to the caller.

    Returns ``(0, None)``, or the status of the residual that stopped the
    step and its stage (from 0); the state is then that of the stage before
    it, with its ghosts filled.
    """
    residual = residual or type(stack).compute_residual
    stage = -1

    def L(u):
        nonlocal stage
        stage += 1
        for dst, src in stack.halo:
            dst[...] = src
        status = residual(stack)
        if status:
            raise _Stopped(status)
        return stack.residual.copy()

    try:
        ssp_rk_advance(stack.interior, dt, L, stack.cfg.rk_order, stack.start)
    except _Stopped as stop:
        return stop.args[0], stage
    return 0, None
