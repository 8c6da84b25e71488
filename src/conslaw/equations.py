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
        # nan would pass a plain gamma > 1 and surface as unphysical data
        if self.kind == EULER and not 1.0 < self.gamma < np.inf:
            raise ConfigError(f"gamma must be finite and > 1, got {self.gamma}", key="gamma")
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


def first_false(mask: np.ndarray, dim: int) -> tuple:
    """``(rank, cell)`` of the first false entry of ``mask`` in C order: its
    last ``dim`` axes are cells, and an axis before them is a stack's rank
    axis (rank 0 without one), so this is the first rank's first false cell."""
    idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(mask)), mask.shape))
    return (idx[0] if len(idx) > dim else 0), idx[-dim:]


def require_mask(u: np.ndarray, mask: np.ndarray, dim: int) -> None:
    """Raise UnphysicalStateError naming the rank and the cell of the first
    false entry of ``mask`` (see ``first_false``)."""
    if not mask.all():
        rank, cell = first_false(mask, dim)
        value = u.reshape(u.shape[0], -1, *mask.shape[-dim:])[(slice(None), rank) + cell]
        raise UnphysicalStateError(f"unphysical state at cell {cell}: u = {value}", rank=rank)


def physical_flux(model: EquationModel, u: np.ndarray, axis: int) -> np.ndarray:
    """Physical flux F_k(u) along spatial axis ``axis`` of a scalar model
    (the Euler fluxes are computed by ``_faces.c``)."""
    u = np.asarray(u, dtype=float)
    if model.kind == BURGERS:
        return 0.5 * u * u
    return model.advection_speed[axis] * u


def max_wave_speed(model: EquationModel, u: np.ndarray, axis: int) -> np.ndarray:
    """Cellwise |u| for Burgers, |a_k| for advection (scalar models)."""
    u = np.asarray(u, dtype=float)
    if model.kind == BURGERS:
        return np.abs(u[0])
    return np.broadcast_to(abs(model.advection_speed[axis]), u.shape[1:]).copy()


def max_wave_speeds(model: EquationModel, u: np.ndarray) -> list:
    """Cellwise wave speed bound for every axis: ``max_wave_speed`` for the
    scalar models, |v_k| + c for Euler, checked and from one pressure pass."""
    u = np.asarray(u, dtype=float)
    if model.kind != EULER:
        return [max_wave_speed(model, u, axis) for axis in range(model.dim)]
    rho = u[0]
    p = pressure(model, u)
    require_mask(u, positive(rho, p), model.dim)
    c = np.sqrt(model.gamma * p / rho)
    return [np.abs(u[1 + axis] / rho) + c for axis in range(model.dim)]


def primitive_to_conserved(model: EquationModel, w: np.ndarray) -> np.ndarray:
    """(rho, v, p) -> (rho, m, E) with E = p/(gamma-1) + rho |v|^2 / 2, in a
    new array (``conserve_in_place`` on a copy of ``w``)."""
    return conserve_in_place(model, np.array(w, dtype=float))


def conserve_in_place(model: EquationModel, w: np.ndarray) -> np.ndarray:
    """Overwrite the primitive state ``w`` (rho, v, p), a float64 array or a
    view of one, with its conserved state (rho, m, E), and return it.

    Its temporaries are single components, the kinetic term among them,
    summed over the velocities before the momenta overwrite them.  Every
    value rounds as in the out-of-place formula ``m_k = rho v_k``, ``E = p
    / (gamma - 1) + 0.5 rho |v|^2`` with ``|v|^2 = 0 + v_0^2 + ...``:
    adding the leading zero and swapping the factors of a product change no
    bit."""
    rho, p = w[0], w[1 + model.dim]
    if np.any(rho <= POSITIVITY_FLOOR) or np.any(p <= POSITIVITY_FLOOR):
        raise UnphysicalStateError("non-positive density or pressure in primitive state")
    kinetic = w[1] ** 2
    for k in range(1, model.dim):
        kinetic += w[1 + k] ** 2
    for k in range(model.dim):
        w[1 + k] *= rho
    kinetic *= 0.5 * rho
    p /= model.gamma - 1.0
    p += kinetic
    return w
