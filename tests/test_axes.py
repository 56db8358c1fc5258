"""Partition transforms: golden index tables, roundtrips, and grid as the transposed block.

The oracles enumerate window/group membership by arithmetic on (row, col)
coordinates, independent of the reshape/transpose implementation under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxvit import ops
from maxvit.axes import block, grid, partition_indices, unblock, ungrid
from maxvit.checks import (
    INDEX_TABLES_4X4,
    check_grid_is_transposed_block,
    check_partition_index_tables,
    check_partition_roundtrips,
)
from maxvit.errors import PartitionError
from maxvit.tensor import Tensor


def _image(b, h, w, c, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((b, h, w, c)))


def block_indices_oracle(h, w, p):
    """Window membership from coordinate arithmetic: windows row-major, pixels row-major."""
    out = []
    for wr in range(h // p):
        for wc in range(w // p):
            win = []
            for r in range(p):
                for c in range(p):
                    win.append((wr * p + r) * w + (wc * p + c))
            out.append(win)
    return out


def grid_indices_oracle(h, w, g):
    """Group = fixed within-cell offset, gathering across the g x g cells."""
    ch, cw = h // g, w // g
    out = []
    for offr in range(ch):
        for offc in range(cw):
            grp = []
            for cellr in range(g):
                for cellc in range(g):
                    grp.append((cellr * ch + offr) * w + (cellc * cw + offc))
            out.append(grp)
    return out


def test_block_golden_4x4_window2():
    check_partition_index_tables(kinds=("block",))
    assert block_indices_oracle(4, 4, 2) == INDEX_TABLES_4X4["block"]


def test_grid_golden_4x4_grid2():
    check_partition_index_tables(kinds=("grid",))
    assert grid_indices_oracle(4, 4, 2) == INDEX_TABLES_4X4["grid"]


@pytest.mark.parametrize("h,w,size", [(4, 4, 2), (6, 4, 2), (14, 28, 7), (8, 8, 4)])
def test_partitions_match_enumeration_oracle(h, w, size):
    assert partition_indices("block", h, w, size).tolist() == block_indices_oracle(h, w, size)
    assert partition_indices("grid", h, w, size).tolist() == grid_indices_oracle(h, w, size)


def test_grid_is_dilated_sampling():
    # On a 28x28 map with grid 7, tokens of one group sit 4 apart in both axes.
    idx = partition_indices("grid", 28, 28, 7)
    first = idx[0]  # offset (0, 0)
    coords = [(v // 28, v % 28) for v in first]
    assert coords == [(r * 4, c * 4) for r in range(7) for c in range(7)]


def test_block_shapes():
    y = block(_image(3, 14, 28, 2), 7)
    assert y.shape == (3, 8, 49, 2)


def test_roundtrip_bitwise():
    # the paper's P = G = 7, at 7 to 28 pixels a side
    seen = check_partition_roundtrips(seed=1, cases=20, sizes=(7,))
    assert {kind for kind, _, _ in seen} == {"block", "grid"}


def test_roundtrip_rectangular():
    seen = check_partition_roundtrips(seed=2, cases=20, sizes=(2,))
    assert {kind for kind, (_, h, w, _), _ in seen if h != w} == {"block", "grid"}


def test_grid_equals_swapped_block_on_square_inputs():
    check_grid_is_transposed_block(seed=5, pairs=((4, 2), (14, 7), (12, 2), (12, 3), (16, 4)))


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(1, 3),
    nh=st.integers(1, 4),
    nw=st.integers(1, 4),
    size=st.integers(1, 5),
    c=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_roundtrip_property(b, nh, nw, size, c, seed):
    h, w = nh * size, nw * size
    x = _image(b, h, w, c, seed=seed)
    assert np.array_equal(unblock(block(x, size), h, w, size).data, x.data)
    assert np.array_equal(ungrid(grid(x, size), h, w, size).data, x.data)


def test_partition_is_permutation():
    # every source element appears exactly once
    for kind in ("block", "grid"):
        idx = partition_indices(kind, 12, 8, 4).ravel()
        assert sorted(idx.tolist()) == list(range(12 * 8))


def test_indivisible_extent_raises_before_compute():
    x = _image(1, 15, 14, 2)
    with pytest.raises(PartitionError) as e:
        block(x, 7)
    assert "15" in str(e.value) and "7" in str(e.value)
    with pytest.raises(PartitionError):
        grid(x, 7)
    with pytest.raises(PartitionError):
        unblock(_image(1, 4, 4, 2), 15, 14, 7)


def test_partitions_are_differentiable():
    # gradients flow through the permutation unchanged
    from maxvit.tape import GradTape

    x = _image(1, 4, 4, 2, seed=5)
    with GradTape() as tape:
        y = ops.reduce_sum(grid(x, 2))
    (g,) = tape.gradient(y, [x])
    np.testing.assert_allclose(g.data, np.ones_like(x.data))
