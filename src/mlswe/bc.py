"""Boundary conditions for the 1D domain.

Each condition says what it does at its end of the domain, and the
operators ask only this:

- `discharge`: None if the boundary velocity is prognostic, else t -> the
  prescribed inflow discharge q(t) in m^2/s (0 for a wall);
- `ghost_eta(t, eta_in)`: the ghost elevation, given the elevation of the
  cell through the boundary (the far-end cell on a periodic grid);
- `ghost_rho(t, rho_in)`: the ghost density profile, given that cell's
  column; an open boundary gives its boundary layers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class _CopiesCell:
    """The ghost cell repeats the elevation and density of the cell through
    the boundary."""

    def ghost_eta(self, t, eta_in):
        return eta_in

    def ghost_rho(self, t, rho_in):
        return rho_in


@dataclass(frozen=True)
class Wall(_CopiesCell):
    """Closed wall: zero mass flux, zero velocity at the boundary interface."""

    @staticmethod
    def discharge(t):
        return 0.0


@dataclass(frozen=True)
class Periodic(_CopiesCell):
    """Periodic domain; must be used on both sides."""

    discharge = None


@dataclass(frozen=True)
class Discharge(_CopiesCell):
    """Prescribed inflow discharge q(t) (m^2/s), distributed over the layers
    proportionally to their thickness fractions; rho(t) gives the inflow
    density-perturbation profile (one value per boundary layer)."""

    q: Callable[[float], float]
    rho: Callable[[float], np.ndarray]

    @property
    def discharge(self):
        return self.q

    def ghost_rho(self, t, rho_in):
        return self.rho(t)


@dataclass(frozen=True)
class Elevation:
    """Dirichlet free-surface elevation eta(t) imposed through a ghost cell;
    the boundary interface velocity remains a prognostic unknown. rho(t)
    gives the exterior density profile used for inflow upwinding."""

    eta: Callable[[float], float]
    rho: Callable[[float], np.ndarray]

    discharge = None

    def ghost_eta(self, t, eta_in):
        return self.eta(t)

    def ghost_rho(self, t, rho_in):
        return self.rho(t)


CONDITIONS = (Wall, Discharge, Elevation, Periodic)


@dataclass(frozen=True)
class Boundaries:
    left: object
    right: object

    def __post_init__(self):
        for side, cond in (("left", self.left), ("right", self.right)):
            if not isinstance(cond, CONDITIONS):
                names = ", ".join(c.__name__ for c in CONDITIONS)
                raise TypeError(f"{side} boundary condition {cond!r} is not one "
                                f"of {names}")
        if isinstance(self.left, Periodic) != isinstance(self.right, Periodic):
            raise ValueError("periodic boundaries must be set on both sides")

    @cached_property
    def periodic(self) -> bool:
        return isinstance(self.left, Periodic)


def closed() -> Boundaries:
    return Boundaries(Wall(), Wall())


def periodic() -> Boundaries:
    return Boundaries(Periodic(), Periodic())
