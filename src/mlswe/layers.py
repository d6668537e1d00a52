"""Vertical layer layout: per-interface layer counts and thickness fractions,
and the remap across layer-count transitions.

Layer fractions are defined at the half-integer (velocity) locations and may
vary along the mesh. Cell-centered counts/fractions are copied from the
neighbouring interface with the larger layer count. Transitions must be
conformal (one set of layers splits/merges exactly into the other) and two
consecutive transitions are not allowed. At a transition cell one interface
is coarser than the cell. `build_layout` builds the remap between the two
layerings once, as flat index arrays per side, with each cell layer's share
of its parent coarse layer; operators apply it by gathers: restriction
(share-weighted mean of the cell's layers onto each coarse layer),
prolongation (a cell layer takes its share of its parent's flux) and
injection of the transfer field G at coarse interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FRACTION_SUM_TOL = 1e-14
CONFORMAL_TOL = 1e-12


class LayoutError(ValueError):
    pass


@dataclass(frozen=True)
class RemapSide:
    """The remap at the transition cells whose `side` interface (0: left,
    1: right) is coarser than the cell. Entry e, per live layer of each such
    cell, is layer `layer[e]` of cell `cell[e]`; it lies in coarse layer
    `parent[e]`, slot `slot[e]`. Slot s, per live layer of each coarse
    interface, is layer `slot_layer[s]` of the coarse interface of cell
    `slot_cell[s]`; its lowest entry is entry `first[s]`, layer
    `slot_first[s]`. Both run by cell, then layer. `share[e]` is the entry's
    fraction divided by its parent's: its part of the parent layer."""

    side: int
    layer: np.ndarray
    cell: np.ndarray
    parent: np.ndarray
    share: np.ndarray
    slot: np.ndarray
    slot_layer: np.ndarray
    slot_cell: np.ndarray
    slot_first: np.ndarray
    first: np.ndarray

    def at_coarse(self, a: np.ndarray) -> np.ndarray:
        """View of an (.., M+1) array whose column i is cell i's coarse interface."""
        return a[:, self.side:a.shape[1] - 1 + self.side]

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """Share-weighted mean of the entries' values per slot: the slot's
        lowest value plus the weighted deviations from it, summed in order,
        so that a constant restricts to itself exactly."""
        base = values[self.first]
        deviation = self.share * (values - base[self.slot])
        return base + np.bincount(self.slot, weights=deviation,
                                  minlength=base.size)


@dataclass(frozen=True)
class LayerLayout:
    n_half: np.ndarray        # (M+1,) layer count at each interface
    l_half: np.ndarray        # (n_max, M+1) fractions, zero padded
    n_int: np.ndarray         # (M,) layer count at each cell
    l_int: np.ndarray         # (n_max, M) fractions, zero padded
    transition_cell: np.ndarray  # (M,) bool
    remap: tuple              # RemapSides with cells; none if uniform

    def __post_init__(self):
        # grid-static masks and divisor-safe fractions (1 where padded),
        # built once and shared read-only by all operators
        for name, n in (("_active_int", self.n_int), ("_active_half", self.n_half)):
            mask = np.arange(self.n_max)[:, None] < n[None, :]
            mask.setflags(write=False)
            object.__setattr__(self, name, mask)
        for name, l in (("l_int_safe", self.l_int), ("l_half_safe", self.l_half)):
            safe = np.where(l > 0.0, l, 1.0)
            safe.setflags(write=False)
            object.__setattr__(self, name, safe)

    @property
    def n_max(self) -> int:
        return self.l_half.shape[0]

    @property
    def uniform(self) -> bool:
        return not self.remap

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

    Fractions run along axis 0, zero padded above the live layers; further
    axes are independent columns. Valid only when the fine fractions are a
    partition refinement of the coarse ones: every cumulative coarse
    thickness meets a cumulative fine one within CONFORMAL_TOL, and the
    totals agree. Padded fine layers map to the top coarse layer.
    """
    cum_c = np.cumsum(l_coarse, axis=0)
    cum_f = np.cumsum(l_fine, axis=0)
    gap = np.expand_dims(cum_f, 1) - np.expand_dims(cum_c, 0)  # (n_f, n_c, ...)
    if not (np.all(np.min(np.abs(gap), axis=0) <= CONFORMAL_TOL)
            and np.all(np.abs(cum_f[-1] - cum_c[-1]) <= CONFORMAL_TOL)):
        raise LayoutError("non-conformal layer split")
    return np.count_nonzero(gap > CONFORMAL_TOL, axis=1)


def _remap_side(side, cells, n_half, l_half, n_int, l_int):
    coarse = cells + side
    parent = refine_parent(l_half[:, coarse], l_int[:, cells])  # (n_max, K)
    rows = np.arange(l_half.shape[0])[None, :]
    k, layer = np.nonzero(rows < n_int[cells][:, None])
    ks, slot_layer = np.nonzero(rows < n_half[coarse][:, None])
    start = np.cumsum(n_half[coarse]) - n_half[coarse]  # first slot of each cell
    slot = start[k] + parent[layer, k]
    first = np.searchsorted(slot, np.arange(slot_layer.size))
    share = l_int[layer, cells[k]] / l_half[parent[layer, k], coarse[k]]
    return RemapSide(side=side, layer=layer, cell=cells[k], parent=parent[layer, k],
                     share=share, slot=slot, slot_layer=slot_layer,
                     slot_cell=cells[ks], slot_first=layer[first], first=first)


def build_layout(mesh, regions) -> LayerLayout:
    """Build a LayerLayout from per-region fraction tables.

    regions is either a single fraction sequence (uniform layout) or a list
    of (x_upper, fractions) pairs; each interface x takes the table of the
    first region with x <= x_upper (use np.inf for the last region).
    """
    x = mesh.x_iface

    if not isinstance(regions, (list, tuple)) or (
        len(regions) > 0 and np.isscalar(regions[0])
    ):
        tables = [_check_fractions(regions)]
        region_of = np.zeros(x.size, dtype=np.int64)
    else:
        tables = [_check_fractions(frac) for _, frac in regions]
        bounds = [float(x_upper) for x_upper, _ in regions]
        if bounds != sorted(bounds):
            raise LayoutError("region upper bounds must be increasing")
        region_of = np.searchsorted(np.asarray(bounds), x, side="left")
        if np.any(region_of >= len(tables)):
            raise LayoutError("regions do not cover the whole domain")

    sizes = np.array([t.size for t in tables], dtype=np.int64)
    padded = np.zeros((sizes.max(), len(tables)))
    for r, t in enumerate(tables):
        padded[: t.size, r] = t
    n_half = sizes[region_of]
    l_half = np.ascontiguousarray(padded[:, region_of])  # row-major, like the fields

    # transitions: conformal (refine_parent checks), none at adjacent pairs
    kind = np.sign(n_half[1:] - n_half[:-1])  # +1 right finer, -1 left finer
    if np.any((kind == 0) & np.any(l_half[:, 1:] != l_half[:, :-1], axis=0)):
        raise LayoutError(
            "equal layer counts with different fraction tables are non-conformal"
        )
    trans = kind != 0
    if np.any(trans[:-1] & trans[1:]):
        raise LayoutError("two consecutive layer-count transitions are not allowed")

    # cell-centered layout: copy from the interface with the larger count
    n_int = np.maximum(n_half[:-1], n_half[1:])
    l_int = np.where(kind >= 0, l_half[:, 1:], l_half[:, :-1])
    sides = ((0, np.nonzero(kind == 1)[0]), (1, np.nonzero(kind == -1)[0]))
    remap = tuple(_remap_side(side, cells, n_half, l_half, n_int, l_int)
                  for side, cells in sides if cells.size)

    return LayerLayout(n_half=n_half, l_half=l_half, n_int=n_int, l_int=l_int,
                       transition_cell=trans, remap=remap)


def uniform_layout(mesh, n_layers: int) -> LayerLayout:
    return build_layout(mesh, np.full(n_layers, 1.0 / n_layers))
