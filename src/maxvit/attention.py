"""Relative self-attention over partitioned windows, and its position-bias tables.

A window of P x P tokens gets a learned additive logit bias b[i, j] that
depends only on the 2-D displacement between token i and token j. Displacements
live in [-(P-1), P-1]^2, so each head owns a (2P-1)^2-entry table shared by all
windows; build_bias_index precomputes the (P^2, P^2) table lookup. Grid
attention reuses the same machinery: a dilated group is indexed by its G x G
lattice coordinates, so displacements are in grid space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ops
from .axes import from_heads, to_heads
from .errors import ConfigError, DimensionError
from .nn import LayerNormParams, LinearParams, MlpParams, init_layer_norm, init_linear, init_mlp, layer_norm, linear, mlp_ffn
from .tensor import Tensor, default_dtype

__all__ = [
    "build_bias_index", "init_bias_table", "interpolate_bias",
    "rel_attention", "AttentionParams", "AttentionLayerParams",
    "init_attention", "init_attention_layer",
    "multi_head_attention", "attention_layer",
]


def build_bias_index(window: int) -> np.ndarray:
    """(P^2, P^2) lookup: entry (i, j) indexes the bias of displacement i - j.

    Token coordinates are row-major; displacement (dr, dc) maps to the flat
    table slot (dr + P - 1) * (2P - 1) + (dc + P - 1). Each window's table is
    built once and shared, so it is read-only.
    """
    return _bias_index(ops._int_arg("build_bias_index", "window", window))


@lru_cache(maxsize=None)
def _bias_index(window: int) -> np.ndarray:
    coords = np.stack(np.meshgrid(np.arange(window), np.arange(window), indexing="ij"), axis=-1).reshape(-1, 2)
    delta = coords[:, None, :] - coords[None, :, :]  # (L, L, 2) in [-(P-1), P-1]
    index = ((delta[..., 0] + window - 1) * (2 * window - 1) + (delta[..., 1] + window - 1)).astype(np.int64)
    index.flags.writeable = False
    return index


def init_bias_table(heads: int, window: int, dtype=None) -> Tensor:
    """Zero-initialised per-head table of all (2P-1)^2 displacement biases."""
    ops._int_arg("init_bias_table", "heads", heads)
    ops._int_arg("init_bias_table", "window", window)
    return Tensor(np.zeros((heads, (2 * window - 1) ** 2), dtype=dtype or default_dtype()))


def _table_window(table: Tensor) -> int:
    """P, read from a bias table's (2P-1)^2 entries per head."""
    entries = table.shape[-1]
    side = math.isqrt(entries)
    if side * side != entries or side % 2 == 0:
        raise DimensionError(f"bias table {table.shape} has {entries} entries per head, not an odd square")
    return (side + 1) // 2


def interpolate_bias(table: Tensor, new_window: int) -> Tensor:
    """Resample a (heads, (2P-1)^2) bias table to window P', per head.

    Each head's flat table is viewed as its (2P-1) x (2P-1) displacement
    image and resized bilinearly with corner alignment, so the extreme
    displacements map onto each other and P' == P is the identity.
    """
    ops._check_rank("interpolate_bias", table, 2, "a (heads, entries) table")
    window = _table_window(table)
    heads, side = table.shape[0], 2 * window - 1
    new_window = ops._int_arg("interpolate_bias", "new_window", new_window)
    if new_window == window:
        return Tensor(table.data.copy())
    new_side = 2 * new_window - 1
    src = table.data.reshape(heads, side, side)

    # axis positions under corner alignment; a single-point axis samples the center
    if new_side == 1:
        pos = np.array([(side - 1) / 2.0])
    else:
        pos = np.arange(new_side) * (side - 1) / (new_side - 1)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, side - 1)
    frac = pos - lo

    rows = src[:, lo, :] * (1.0 - frac)[None, :, None] + src[:, hi, :] * frac[None, :, None]
    out = rows[:, :, lo] * (1.0 - frac)[None, None, :] + rows[:, :, hi] * frac[None, None, :]
    return Tensor(out.reshape(heads, new_side * new_side).astype(table.dtype))


def rel_attention(q: Tensor, k: Tensor, v: Tensor, bias: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(d) + bias) v over the last two axes.

    q, k, v: (*batch, L, d) with identical shapes; bias broadcasts against the
    (*batch, L, L) logits (typically (heads, L, L) vs (b, windows, heads, L, L)).
    """
    ops._same_dtype("rel_attention", q, k, v, bias)
    if q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(f"rel_attention: q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    d = q.shape[-1]
    kt = ops.transpose(k, (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2))
    logits = ops.matmul(ops.scale(q, 1.0 / float(np.sqrt(d))), kt)
    logits = ops.add(logits, bias)
    return ops.matmul(ops.softmax_lastdim(logits), v)


@dataclass
class AttentionParams:
    """One multi-head relative-attention core; its bias table fixes the window size."""

    wq: LinearParams
    wk: LinearParams
    wv: LinearParams
    wo: LinearParams
    bias_table: Tensor       # (heads, (2P-1)^2)

    @property
    def heads(self) -> int:
        return self.bias_table.shape[0]

    @property
    def window(self) -> int:
        """P, read from the table's (2P-1)^2 entries per head."""
        return _table_window(self.bias_table)


def init_attention(rng, channels: int, window: int, head_dim: int = 32, dtype=None) -> AttentionParams:
    if channels % head_dim:
        raise ConfigError(f"channels {channels} not divisible by head_dim {head_dim}")
    heads = channels // head_dim
    return AttentionParams(
        wq=init_linear(rng, channels, channels, bias=False, dtype=dtype),
        wk=init_linear(rng, channels, channels, bias=False, dtype=dtype),
        wv=init_linear(rng, channels, channels, bias=False, dtype=dtype),
        wo=init_linear(rng, channels, channels, bias=True, dtype=dtype),
        bias_table=init_bias_table(heads, window, dtype),
    )


def multi_head_attention(x: Tensor, p: AttentionParams, index: np.ndarray, kind: str) -> Tensor:
    """Relative attention inside each `kind` ("block" or "grid") group of an NHWC map.

    q, k and v are projected on the (B, H, W, C) map, and each goes to
    (B, groups, heads, L, d) in one copy (axes.to_heads); heads are contiguous
    channel slices. The attended values come back to NHWC in one copy before
    the output projection, so the result is (B, H, W, C) like x.
    """
    size, heads = p.window, p.heads
    q = to_heads(linear(x, p.wq), kind, size, heads)  # checks that x is a divisible NHWC map
    k = to_heads(linear(x, p.wk), kind, size, heads)
    v = to_heads(linear(x, p.wv), kind, size, heads)
    bias = ops.gather_rows(p.bias_table, index)  # (heads, L, L), broadcast over (b, groups)
    out = rel_attention(q, k, v, bias)
    return linear(from_heads(out, kind, x.shape[1], x.shape[2], size), p.wo)


@dataclass
class AttentionLayerParams:
    """Pre-norm transformer layer on one partition axis: attention then MLP."""

    kind: str                    # "block" (local windows) or "grid" (dilated)
    norm1: LayerNormParams
    attn: AttentionParams
    norm2: LayerNormParams
    mlp: MlpParams


def init_attention_layer(rng, kind: str, channels: int, window: int, head_dim: int = 32, dtype=None) -> AttentionLayerParams:
    if kind not in ("block", "grid"):
        raise ConfigError(f"attention kind must be 'block' or 'grid', got {kind!r}")
    return AttentionLayerParams(
        kind=kind,
        norm1=init_layer_norm(channels, dtype),
        attn=init_attention(rng, channels, window, head_dim, dtype),
        norm2=init_layer_norm(channels, dtype),
        mlp=init_mlp(rng, channels, dtype),
    )


def attention_layer(x: Tensor, p: AttentionLayerParams) -> Tensor:
    """x += attn(norm(x)) within p.kind groups; x += mlp(norm(x)); NHWC in and out."""
    x = ops.add(x, multi_head_attention(layer_norm(x, p.norm1), p.attn, build_bias_index(p.attn.window), p.kind))
    z = mlp_ffn(layer_norm(x, p.norm2), p.mlp)
    return ops.add(x, z)
