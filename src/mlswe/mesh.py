"""1D finite-volume mesh: control volumes and bathymetry."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh1D:
    """Horizontal control-volume mesh.

    Cell centers x_center[i] sit between interfaces x_iface[i] and
    x_iface[i+1]; velocities live on the interfaces. The spacing across
    each interface depends on the boundaries: `spatial.Grid.dx_half`.
    """

    x_iface: np.ndarray   # (M+1,)
    x_center: np.ndarray  # (M,)
    dx: np.ndarray        # (M,)
    b: np.ndarray         # (M,) bathymetry elevation at cell centers

    @property
    def M(self) -> int:
        return self.x_center.size

    @property
    def length(self) -> float:
        return float(self.x_iface[-1] - self.x_iface[0])


def build_mesh(x_min, x_max, M=None, bathymetry=0.0, x_iface=None) -> Mesh1D:
    """Build a mesh on [x_min, x_max].

    Spacing is uniform with M cells unless an explicit interface list
    x_iface is given. bathymetry may be a constant or a callable b(x)
    evaluated at cell centers.
    """
    if x_iface is not None:
        x_iface = np.asarray(x_iface, dtype=float)
        if x_iface.ndim != 1 or x_iface.size < 4:
            raise ValueError("need at least 4 interfaces (3 cells)")
        if not np.all(np.diff(x_iface) > 0.0):
            raise ValueError("interface positions must be strictly increasing")
    else:
        if M is None or M < 3:
            raise ValueError("M must be at least 3")
        if not x_max > x_min:
            raise ValueError("empty domain")
        x_iface = np.linspace(float(x_min), float(x_max), int(M) + 1)

    x_center = 0.5 * (x_iface[:-1] + x_iface[1:])
    dx = np.diff(x_iface)

    if callable(bathymetry):
        b = np.asarray(bathymetry(x_center), dtype=float) * np.ones_like(x_center)
    else:
        b = np.full_like(x_center, float(bathymetry))
    if not np.all(np.isfinite(b)):
        raise ValueError("bathymetry must be finite on the domain")

    return Mesh1D(x_iface=x_iface, x_center=x_center, dx=dx, b=b)
