import numpy as np
import pytest

from mlswe import LayoutError, build_layout, build_mesh, uniform_layout
from mlswe.layers import refine_parent


@pytest.fixture()
def mesh():
    return build_mesh(0.0, 1.0, 10)


def test_uniform_layout(mesh):
    layout = uniform_layout(mesh, 4)
    assert layout.n_max == 4
    assert layout.uniform
    assert np.all(layout.n_half == 4)
    assert np.allclose(layout.l_half, 0.25)
    assert np.allclose(np.sum(layout.l_int, axis=0), 1.0)
    assert not layout.transition_cell.any()


def test_refine_parent_mapping():
    coarse = np.array([0.5, 0.5])
    fine = np.array([0.25, 0.25, 0.3, 0.2])
    assert refine_parent(coarse, fine).tolist() == [0, 0, 1, 1]
    # identity refinement
    assert refine_parent(coarse, coarse).tolist() == [0, 1]
    with pytest.raises(LayoutError):
        refine_parent(coarse, np.array([0.4, 0.4, 0.2]))


def test_two_region_layout(mesh):
    layout = build_layout(mesh, [(0.5, [1.0]), (np.inf, [0.5, 0.5])])
    assert layout.n_max == 2
    assert not layout.uniform
    # interfaces at x <= 0.5 use the single layer
    assert np.all(layout.n_half[mesh.x_iface <= 0.5] == 1)
    assert np.all(layout.n_half[mesh.x_iface > 0.5] == 2)
    # exactly one transition cell, carrying the finer table
    trans = np.nonzero(layout.transition_cell)[0]
    assert trans.size == 1
    i = trans[0]
    assert layout.n_int[i] == 2
    assert np.allclose(layout.l_int[:, i], [0.5, 0.5])
    # the remap on the coarse (left) side collapses both children to layer 0
    side, = layout.remap
    assert side.side == 0 and side.cell.tolist() == [i, i]
    assert side.parent.tolist() == [0, 0]
    # fraction columns always partition unity on live layers
    assert np.allclose(np.sum(layout.l_int, axis=0), 1.0)
    assert np.allclose(np.sum(layout.l_half, axis=0), 1.0)
    # live-layer masks are built once and shared read-only
    assert layout.active_half() is layout.active_half()
    assert np.array_equal(layout.active_half(),
                          np.arange(2)[:, None] < layout.n_half[None, :])
    assert np.array_equal(layout.active_int(),
                          np.arange(2)[:, None] < layout.n_int[None, :])
    with pytest.raises(ValueError):
        layout.active_int()[1, 0] = True


def test_remap_on_both_sides(mesh):
    """2 -> 4 -> 2 layers: the left transition cell has its coarse interface
    on the left, the right one on the right."""
    layout = build_layout(mesh, [(0.25, [0.5, 0.5]), (0.65, [0.1, 0.4, 0.3, 0.2]),
                                 (np.inf, [0.5, 0.5])])
    left, right = layout.remap
    assert (left.side, right.side) == (0, 1)
    assert left.cell.tolist() == [2] * 4 and right.cell.tolist() == [6] * 4
    for side in layout.remap:
        assert side.layer.tolist() == [0, 1, 2, 3]
        assert side.parent.tolist() == [0, 0, 1, 1]
        assert side.slot.tolist() == [0, 0, 1, 1]
        assert np.array_equal(side.share, [0.2, 0.8, 0.6, 0.4])
        assert side.slot_layer.tolist() == [0, 1]
        assert side.slot_first.tolist() == [0, 2] and side.first.tolist() == [0, 2]
        # thickness-weighted mean, and a constant restricts to itself
        assert np.allclose(side.restrict(np.array([1.0, 2.0, 3.0, 4.0])),
                           [(0.1 + 0.8) / 0.5, (0.9 + 0.8) / 0.5])
        assert np.all(side.restrict(np.full(4, 0.03)) == 0.03)
    # column i of the view is the coarse interface of cell i
    a = np.arange(11)[None, :]
    assert left.at_coarse(a)[0, 2] == 2 and right.at_coarse(a)[0, 6] == 7


def test_refine_parent_by_columns():
    coarse = np.array([[0.5, 1.0], [0.5, 0.0]])
    fine = np.array([[0.25, 0.5], [0.25, 0.5], [0.5, 0.0]])
    assert refine_parent(coarse, fine).tolist() == [[0, 0], [0, 0], [1, 0]]
    with pytest.raises(LayoutError):
        refine_parent(coarse, np.array([[0.25, 0.5], [0.75, 0.5]]))


def test_invalid_layouts_rejected(mesh):
    with pytest.raises(LayoutError):
        build_layout(mesh, [0.5, 0.6])          # does not sum to 1
    with pytest.raises(LayoutError):
        build_layout(mesh, [0.5, -0.5, 1.0])    # non-positive fraction
    with pytest.raises(LayoutError):
        # same count, different fractions: not a conformal refinement
        build_layout(mesh, [(0.5, [0.4, 0.6]), (np.inf, [0.5, 0.5])])
    with pytest.raises(LayoutError):
        # non-nesting split
        build_layout(mesh, [(0.5, [0.5, 0.5]), (np.inf, [0.4, 0.4, 0.2])])


def test_consecutive_transitions_rejected():
    mesh = build_mesh(0.0, 1.0, 10)
    with pytest.raises(LayoutError):
        build_layout(mesh, [(0.15, [1.0]), (0.25, [0.5, 0.5]),
                            (np.inf, [0.25, 0.25, 0.25, 0.25])])
