"""Physical fluxes, wave speeds and variable transforms.

Supports the compressible Euler equations with an ideal-gas law plus two
scalar model equations (Burgers, linear advection) used as testing oracles.

State layout for Euler in ``dim`` dimensions (component axis first):
``u[0] = rho``, ``u[1:1+dim] = momentum``, ``u[1+dim] = total energy``.
All functions are vectorized over arbitrary trailing cell axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnphysicalStateError

#: density/pressure at or below this are treated as unphysical
POSITIVITY_FLOOR = 1e-12

EULER = "euler"
BURGERS = "burgers"
ADVECTION = "advection"


@dataclass(frozen=True)
class EquationModel:
    kind: str
    dim: int
    gamma: float = 1.4
    advection_speed: tuple = ()

    def __post_init__(self):
        if self.kind not in (EULER, BURGERS, ADVECTION):
            raise ConfigError(f"unknown equation kind {self.kind!r}")
        if self.dim not in (1, 2, 3):
            raise ConfigError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.kind == EULER and self.gamma <= 1.0:
            raise ConfigError(f"gamma must be > 1, got {self.gamma}")
        if self.kind == ADVECTION:
            if len(self.advection_speed) != self.dim:
                raise ConfigError(
                    f"advection needs {self.dim} speed components, "
                    f"got {len(self.advection_speed)}"
                )
            object.__setattr__(
                self, "advection_speed", tuple(float(a) for a in self.advection_speed)
            )

    @property
    def ncomp(self) -> int:
        return self.dim + 2 if self.kind == EULER else 1

    @property
    def component_names(self) -> tuple:
        if self.kind != EULER:
            return ("u",)
        return ("rho",) + tuple(f"m{'xyz'[k]}" for k in range(self.dim)) + ("E",)


def pressure(model: EquationModel, u: np.ndarray) -> np.ndarray:
    """p = (gamma - 1) (E - |m|^2 / (2 rho)) for Euler states."""
    rho = u[0]
    kinetic = sum(u[1 + k] ** 2 for k in range(model.dim)) / (2.0 * rho)
    return (model.gamma - 1.0) * (u[1 + model.dim] - kinetic)


def physical_mask(model: EquationModel, u: np.ndarray) -> np.ndarray:
    """Cellwise boolean: rho > floor and p > floor (scalars: always true)."""
    if model.kind != EULER:
        return np.ones(u.shape[1:], dtype=bool)
    return positive(u[0], pressure(model, u))


def positive(rho, p) -> np.ndarray:
    """The positivity test of ``physical_mask`` on given density and pressure."""
    return (rho > POSITIVITY_FLOOR) & (p > POSITIVITY_FLOOR)


def is_physical(model: EquationModel, u: np.ndarray) -> bool:
    return bool(np.all(physical_mask(model, u)))


def _require_physical(model: EquationModel, u: np.ndarray) -> None:
    require_mask(u, physical_mask(model, u))


def require_mask(u: np.ndarray, mask: np.ndarray) -> None:
    """Raise UnphysicalStateError naming the first cell where ``mask`` is false."""
    mask = np.atleast_1d(mask)
    if not mask.all():
        flat = int(np.flatnonzero(~mask.ravel())[0])
        idx = np.unravel_index(flat, mask.shape)
        value = u.reshape(u.shape[0], -1)[:, flat]
        raise UnphysicalStateError(
            f"unphysical state at cell {tuple(int(i) for i in idx)}: u = {value}"
        )


def physical_flux(model: EquationModel, u: np.ndarray, axis: int, check: bool = True) -> np.ndarray:
    """Physical flux F_k(u) along spatial axis ``axis``."""
    u = np.asarray(u, dtype=float)
    if model.kind == BURGERS:
        return 0.5 * u * u
    if model.kind == ADVECTION:
        return model.advection_speed[axis] * u
    if check:
        _require_physical(model, u)
    p = pressure(model, u)
    return euler_flux(model, u, axis, u[1 + axis] / u[0], p)


def euler_flux(model: EquationModel, u: np.ndarray, axis: int, vk, p) -> np.ndarray:
    """Euler flux along ``axis`` from the state and its velocity and pressure."""
    dim = model.dim
    out = np.empty_like(u)
    out[0] = u[1 + axis]
    np.multiply(u[1 : 1 + dim], vk, out=out[1 : 1 + dim])
    out[1 + axis] += p
    np.add(u[1 + dim], p, out=out[1 + dim])
    out[1 + dim] *= vk
    return out


def max_wave_speed(model: EquationModel, u: np.ndarray, axis: int, check: bool = True) -> np.ndarray:
    """Cellwise |v_k| + c for Euler; |u| for Burgers; |a_k| for advection."""
    u = np.asarray(u, dtype=float)
    if model.kind == BURGERS:
        return np.abs(u[0])
    if model.kind == ADVECTION:
        return np.broadcast_to(abs(model.advection_speed[axis]), u.shape[1:]).copy()
    if check:
        _require_physical(model, u)
    rho = u[0]
    p = pressure(model, u)
    c = np.sqrt(model.gamma * p / rho)
    return np.abs(u[1 + axis] / rho) + c


def max_wave_speeds(model: EquationModel, u: np.ndarray) -> list:
    """``max_wave_speed`` (checked) for every axis, from one pressure pass."""
    u = np.asarray(u, dtype=float)
    if model.kind != EULER:
        return [max_wave_speed(model, u, axis) for axis in range(model.dim)]
    rho = u[0]
    p = pressure(model, u)
    require_mask(u, positive(rho, p))
    c = np.sqrt(model.gamma * p / rho)
    return [np.abs(u[1 + axis] / rho) + c for axis in range(model.dim)]


def primitive_to_conserved(model: EquationModel, w: np.ndarray) -> np.ndarray:
    """(rho, v, p) -> (rho, m, E) with E = p/(gamma-1) + rho |v|^2 / 2."""
    w = np.asarray(w, dtype=float)
    rho, p = w[0], w[1 + model.dim]
    if np.any(rho <= POSITIVITY_FLOOR) or np.any(p <= POSITIVITY_FLOOR):
        raise UnphysicalStateError("non-positive density or pressure in primitive state")
    u = np.empty_like(w)
    u[0] = rho
    kinetic = np.zeros_like(rho)
    for k in range(model.dim):
        u[1 + k] = rho * w[1 + k]
        kinetic = kinetic + w[1 + k] ** 2
    u[1 + model.dim] = p / (model.gamma - 1.0) + 0.5 * rho * kinetic
    return u
