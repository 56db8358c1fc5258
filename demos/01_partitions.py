"""Block vs grid partitioning on a small labeled image.

Block partitioning cuts an image into contiguous PxP windows (local
neighborhoods); grid partitioning samples every G-th pixel into GxG groups
(a dilated, global pattern). Both are pure permutations, so they invert
exactly, and on square inputs one is the other with the two middle axes
swapped.
"""

import numpy as np

from maxvit import Tensor, block, grid, partition_indices, unblock, ungrid
from maxvit import ops

H = W = 4
SIZE = 2

print(f"{H}x{W} image, flat pixel ids 0..{H * W - 1}:\n")
print(np.arange(H * W).reshape(H, W), "\n")

print(f"block windows (size {SIZE}): each row is one contiguous {SIZE}x{SIZE} patch")
print(partition_indices("block", H, W, SIZE), "\n")

print(f"grid groups (size {SIZE}): each row strides across the whole image")
print(partition_indices("grid", H, W, SIZE), "\n")

rng = np.random.default_rng(0)
x = Tensor(rng.standard_normal((2, 14, 14, 3)).astype(np.float32))

roundtrip_block = unblock(block(x, 7), 14, 14, 7)
roundtrip_grid = ungrid(grid(x, 7), 14, 14, 7)
print("block roundtrip bitwise equal:", np.array_equal(roundtrip_block.data, x.data))
print("grid roundtrip bitwise equal: ", np.array_equal(roundtrip_grid.data, x.data))

# on square inputs, grid(x, g) is block(x, n//g) with window-and-token axes swapped
swapped = ops.transpose(block(x, 14 // 7), (0, 2, 1, 3))
print("grid == transpose(block):     ", np.array_equal(grid(x, 7).data, swapped.data))
