"""Window and grid partition transforms for NHWC feature maps.

block() cuts an image into non-overlapping P x P windows (local neighborhoods);
grid() groups pixels that share the same offset inside a G x G lattice of cells,
so each group is a dilated sampling of the whole image with stride (H/G, W/G).

Both are one permutation of one view: the (B, H, W, C) map as
(B, R1, R2, C1, C2, heads, d) with H = R1*R2, W = C1*C2 and C = heads*d. Block
windows have (R2, C2) = (P, P) as token axes and (R1, C1) as group axes; grid
groups have (R1, C1) = (G, G) as token axes and (R2, C2) as group axes.
to_heads() transposes the view to (B, groups, heads, L, d) in one copy and
from_heads() inverts it; block()/grid() are the one-head case. Every transform
is invertible bitwise and differentiable.

For square inputs, grid(x, G) equals transpose(block(x, H/G), (0, 2, 1, 3)):
cutting into H/G-sized windows and exchanging the "which window" axis with the
"position inside window" axis yields exactly the dilated grouping.
"""

from __future__ import annotations

import json

import numpy as np

from . import ops
from .errors import DimensionError, PartitionError
from .tensor import Tensor

__all__ = [
    "block", "unblock", "grid", "ungrid", "to_heads", "from_heads",
    "partition_indices", "dump_indices",
]

# (B, R1, R2, C1, C2, heads, d) -> (B, group row, group col, heads, token row, token col, d)
_PERMS = {"block": (0, 1, 3, 5, 2, 4, 6), "grid": (0, 2, 4, 5, 1, 3, 6)}


def _factors(kind: str, height: int, width: int, size: int) -> tuple[int, int, int, int]:
    """(R1, R2, C1, C2) of the view, after checking that `size` divides the extent."""
    if kind not in _PERMS:
        raise PartitionError(f"partition kind must be 'block' or 'grid', got {kind!r}")
    ops._int_arg(kind, "size", size, error=PartitionError)
    if height % size or width % size:
        raise PartitionError(f"{kind}: extent ({height}, {width}) not divisible by size {size}")
    if kind == "block":
        return height // size, size, width // size, size
    return size, height // size, size, width // size


def to_heads(x: Tensor, kind: str, size: int, heads: int = 1) -> Tensor:
    """(B, H, W, C) -> (B, H*W/size^2, heads, size^2, C/heads) in one copy.

    Groups and the tokens inside a group are row-major; head h holds channels
    [h*d, (h+1)*d). For "block" a group is a size x size window; for "grid" it
    is the pixels at one offset inside each cell of a size x size lattice.
    """
    ops._check_rank(kind, x, 4, "NHWC rank-4")
    b, h, w, c = x.shape
    r1, r2, c1, c2 = _factors(kind, h, w, size)
    if c % ops._int_arg(kind, "heads", heads, error=DimensionError):
        raise DimensionError(f"{kind}: {c} channels do not split into {heads} heads")
    y = ops.reshape(x, (b, r1, r2, c1, c2, heads, c // heads))
    y = ops.transpose(y, _PERMS[kind])
    return ops.reshape(y, (b, h * w // (size * size), heads, size * size, c // heads))


def from_heads(x: Tensor, kind: str, height: int, width: int, size: int) -> Tensor:
    """Inverse of to_heads(): (B, groups, heads, L, d) -> (B, H, W, heads*d)."""
    ops._check_rank(f"un{kind}", x, 5, "(B, groups, heads, L, d)")
    b, groups, heads, tokens, d = x.shape
    r1, r2, c1, c2 = _factors(kind, height, width, size)
    if groups * size * size != height * width or tokens != size * size:
        raise PartitionError(f"un{kind}: shape {x.shape} is not a {kind} partition of ({height}, {width}) by {size}")
    perm = _PERMS[kind]
    y = ops.reshape(x, tuple((b, r1, r2, c1, c2, heads, d)[a] for a in perm))
    y = ops.transpose(y, tuple(perm.index(a) for a in range(7)))
    return ops.reshape(y, (b, height, width, heads * d))


def _one_head(x: Tensor, kind: str, size: int) -> Tensor:
    y = to_heads(x, kind, size)
    b, groups, _, tokens, c = y.shape
    return ops.reshape(y, (b, groups, tokens, c))


def _merge_one_head(x: Tensor, kind: str, height: int, width: int, size: int) -> Tensor:
    ops._check_rank(f"un{kind}", x, 4, "rank-4")
    b, groups, tokens, c = x.shape
    return from_heads(ops.reshape(x, (b, groups, 1, tokens, c)), kind, height, width, size)


def block(x: Tensor, window: int) -> Tensor:
    """(B, H, W, C) -> (B, H*W/window^2, window^2, C), windows and pixels row-major."""
    return _one_head(x, "block", window)


def unblock(x: Tensor, height: int, width: int, window: int) -> Tensor:
    """Inverse of block(); needs the original spatial extent back."""
    return _merge_one_head(x, "block", height, width, window)


def grid(x: Tensor, grid_size: int) -> Tensor:
    """(B, H, W, C) -> (B, H*W/grid^2, grid^2, C) dilated groups.

    Group g holds the pixels at within-cell offset g, one from each of the
    grid^2 lattice cells (cells are (H/grid) x (W/grid), row-major); tokens
    inside a group are ordered by cell, row-major.
    """
    return _one_head(x, "grid", grid_size)


def ungrid(x: Tensor, height: int, width: int, grid_size: int) -> Tensor:
    """Inverse of grid(); needs the original spatial extent back."""
    return _merge_one_head(x, "grid", height, width, grid_size)


def partition_indices(kind: str, height: int, width: int, size: int) -> np.ndarray:
    """Flat source index of every output element, as (num_windows, tokens).

    Feeding an arange image through the real transform keeps this honest:
    the permutation *is* whatever block()/grid() does.
    """
    if kind not in ("block", "grid"):
        raise PartitionError(f"partition_indices: kind must be 'block' or 'grid', got {kind!r}")
    ops._int_arg("partition_indices", "height", height, error=DimensionError)
    ops._int_arg("partition_indices", "width", width, error=DimensionError)
    img = Tensor(np.arange(height * width, dtype=np.float64).reshape(1, height, width, 1))
    out = block(img, size) if kind == "block" else grid(img, size)
    return out.data.reshape(out.shape[1], out.shape[2]).astype(np.int64)


def dump_indices(kind: str, height: int, width: int, size: int) -> str:
    """JSON array-of-arrays form of partition_indices, for golden comparisons."""
    return json.dumps(partition_indices(kind, height, width, size).tolist())
