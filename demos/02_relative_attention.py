"""Relative position bias: the lookup table, attention, and window transfer.

Every head owns a (2P-1)^2 table of scalar biases, one per possible row/col
displacement between two tokens of a PxP window. The (L, L) index matrix maps
token pairs to table rows; changing window size resizes the table with
align-corners bilinear interpolation instead of retraining.
"""

import numpy as np

from maxvit import Tensor
from maxvit.attention import build_bias_index, init_attention, interpolate_bias, multi_head_attention

P = 3
index = build_bias_index(P)
print(f"window {P}x{P}: bias index matrix ({P * P}x{P * P}), entries in [0, {(2 * P - 1) ** 2 - 1}]")
print(index, "\n")

center = (2 * P - 1) ** 2 // 2
print(f"diagonal is all {center} (zero displacement maps to the table center)")
print(f"index[i,j] + index[j,i] is always {(2 * P - 1) ** 2 - 1} (mirrored displacements)\n")

rng = np.random.default_rng(1)
params = init_attention(rng, channels=16, window=P, head_dim=8)
x = Tensor(rng.standard_normal((1, 2 * P, 2 * P, 16)).astype(np.float32))
out = multi_head_attention(x, params, index, "block")
print(f"block attention on a (1, {2 * P}, {2 * P}, 16) map, 4 windows of {P * P} tokens -> {out.shape}\n")

# transfer a trained 7x7 table to a 12x12 window (e.g. 224 -> 384 inputs)
table7 = Tensor(rng.standard_normal((2, (2 * 7 - 1) ** 2)).astype(np.float32))
table12 = interpolate_bias(table7, 12)
print(f"bias table transfer: {table7.shape} (P=7) -> {table12.shape} (P=12)")
same = interpolate_bias(table7, 7)
print("identity transfer is exact:", np.array_equal(same.data, table7.data))
