"""Vertical layer layout: per-interface layer counts and thickness fractions.

Layer fractions are defined at the half-integer (velocity) locations and may
vary along the mesh. Cell-centered counts/fractions are derived by copying
from the neighbouring interface with the larger layer count. Transitions must
be conformal (one set of layers splits/merges exactly into the other) and two
consecutive transitions are not allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FRACTION_SUM_TOL = 1e-14
CONFORMAL_TOL = 1e-12


class LayoutError(ValueError):
    pass


@dataclass(frozen=True)
class LayerLayout:
    n_half: np.ndarray        # (M+1,) layer count at each interface
    l_half: np.ndarray        # (n_max, M+1) fractions, zero padded
    n_int: np.ndarray         # (M,) layer count at each cell
    l_int: np.ndarray         # (n_max, M) fractions, zero padded
    parent_left: np.ndarray   # (n_max, M) parent layer index at the left interface
    parent_right: np.ndarray  # (n_max, M) parent layer index at the right interface
    transition_cell: np.ndarray  # (M,) bool

    def __post_init__(self):
        # grid-static masks, built once and shared read-only by all operators
        for name, n in (("_active_int", self.n_int), ("_active_half", self.n_half)):
            mask = np.arange(self.n_max)[:, None] < n[None, :]
            mask.setflags(write=False)
            object.__setattr__(self, name, mask)

    @property
    def n_max(self) -> int:
        return self.l_half.shape[0]

    @property
    def uniform(self) -> bool:
        return not bool(self.transition_cell.any())

    def active_int(self) -> np.ndarray:
        """Boolean mask (n_max, M) of live cell layers (read-only)."""
        return self._active_int

    def active_half(self) -> np.ndarray:
        """Boolean mask (n_max, M+1) of live interface layers (read-only)."""
        return self._active_half


def _check_fractions(l: np.ndarray) -> np.ndarray:
    l = np.asarray(l, dtype=float)
    if l.ndim != 1 or l.size == 0:
        raise LayoutError("layer fraction table must be a non-empty 1D sequence")
    if np.any(l <= 0.0):
        raise LayoutError("layer fractions must be positive")
    if abs(float(np.sum(l)) - 1.0) > FRACTION_SUM_TOL:
        raise LayoutError(f"layer fractions must sum to 1, got {np.sum(l)!r}")
    return l


def refine_parent(l_coarse: np.ndarray, l_fine: np.ndarray) -> np.ndarray:
    """Map each fine layer to its parent coarse layer.

    Valid only when the fine fractions are a partition refinement of the
    coarse ones (cumulative thicknesses align within CONFORMAL_TOL).
    """
    cum_c = np.cumsum(l_coarse)
    cum_f = np.cumsum(l_fine)
    parent = np.empty(l_fine.size, dtype=np.int64)
    k = 0
    for a in range(l_fine.size):
        if k >= l_coarse.size:
            raise LayoutError("non-conformal layer split")
        parent[a] = k
        if abs(cum_f[a] - cum_c[k]) <= CONFORMAL_TOL:
            k += 1
        elif cum_f[a] > cum_c[k] + CONFORMAL_TOL:
            raise LayoutError("non-conformal layer split")
    if k != l_coarse.size:
        raise LayoutError("non-conformal layer split")
    return parent


def build_layout(mesh, regions) -> LayerLayout:
    """Build a LayerLayout from per-region fraction tables.

    regions is either a single fraction sequence (uniform layout) or a list
    of (x_upper, fractions) pairs; each interface x takes the table of the
    first region with x <= x_upper (use np.inf for the last region).
    """
    x = mesh.x_iface
    Mp1 = x.size

    if not isinstance(regions, (list, tuple)) or (
        len(regions) > 0 and np.isscalar(regions[0])
    ):
        tables = [_check_fractions(regions)]
        region_of = np.zeros(Mp1, dtype=np.int64)
    else:
        tables = []
        bounds = []
        for x_upper, frac in regions:
            tables.append(_check_fractions(frac))
            bounds.append(float(x_upper))
        if bounds != sorted(bounds):
            raise LayoutError("region upper bounds must be increasing")
        region_of = np.searchsorted(np.asarray(bounds), x, side="left")
        if np.any(region_of >= len(tables)):
            raise LayoutError("regions do not cover the whole domain")

    n_max = max(t.size for t in tables)
    n_half = np.array([tables[r].size for r in region_of], dtype=np.int64)
    l_half = np.zeros((n_max, Mp1))
    for j in range(Mp1):
        t = tables[region_of[j]]
        l_half[: t.size, j] = t

    # validate transitions: conformal, none at adjacent interface pairs
    pair_kind = np.zeros(Mp1 - 1, dtype=np.int64)  # 0 same, +1 right finer, -1 left finer
    for i in range(Mp1 - 1):
        jl, jr = i, i + 1
        if region_of[jl] == region_of[jr]:
            continue
        tl, tr = tables[region_of[jl]], tables[region_of[jr]]
        if tl.size == tr.size:
            if np.array_equal(tl, tr):
                continue
            raise LayoutError(
                "equal layer counts with different fraction tables are non-conformal"
            )
        if tl.size < tr.size:
            refine_parent(tl, tr)
            pair_kind[i] = 1
        else:
            refine_parent(tr, tl)
            pair_kind[i] = -1
    trans = pair_kind != 0
    if np.any(trans[:-1] & trans[1:]):
        raise LayoutError("two consecutive layer-count transitions are not allowed")

    # cell-centered layout: copy from the interface with the larger count
    M = Mp1 - 1
    n_int = np.maximum(n_half[:-1], n_half[1:])
    l_int = np.zeros((n_max, M))
    parent_left = np.tile(np.arange(n_max)[:, None], (1, M))
    parent_right = parent_left.copy()
    for i in range(M):
        if n_half[i + 1] >= n_half[i]:
            l_int[:, i] = l_half[:, i + 1]
        else:
            l_int[:, i] = l_half[:, i]
        if pair_kind[i] == 1:   # left interface coarser than the cell
            p = refine_parent(l_half[: n_half[i], i], l_int[: n_int[i], i])
            parent_left[: p.size, i] = p
        elif pair_kind[i] == -1:  # right interface coarser
            p = refine_parent(l_half[: n_half[i + 1], i + 1], l_int[: n_int[i], i])
            parent_right[: p.size, i] = p

    return LayerLayout(
        n_half=n_half,
        l_half=l_half,
        n_int=n_int,
        l_int=l_int,
        parent_left=parent_left,
        parent_right=parent_right,
        transition_cell=trans,
    )


def uniform_layout(mesh, n_layers: int) -> LayerLayout:
    return build_layout(mesh, np.full(n_layers, 1.0 / n_layers))
