"""Neural building blocks above the raw primitives.

Layers are pure functions over small parameter dataclasses; the only mutable
state in the package is the running mean/var a BatchNormParams carries, which
`batch_norm` updates in training mode (callers synchronize externally).

Initialization conventions: truncated normal (std 0.02, cut at 2 std) for
dense/attention weights, fan-out-scaled normal for conv kernels, zeros for
biases, ones/zeros for norm affines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import ops
from .errors import ConfigError, DimensionError
from .tensor import Tensor, default_dtype, ones, zeros

__all__ = [
    "LayerNormParams", "BatchNormParams", "ConvParams", "DepthwiseParams",
    "LinearParams", "MlpParams", "SeParams",
    "layer_norm", "batch_norm", "conv", "depthwise", "linear", "mlp_ffn", "se_module",
    "global_avg_pool",
    "init_layer_norm", "init_batch_norm", "init_conv", "init_depthwise",
    "init_linear", "init_mlp", "init_se",
    "trunc_normal", "conv_fan_out_normal",
]


# -- initializer draws --------------------------------------------------------

def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=None) -> Tensor:
    """Normal(0, std) with redraws outside +-2 std (no clipping mass at the cut)."""
    out = rng.standard_normal(shape)
    for _ in range(64):
        bad = np.abs(out) > 2.0
        if not bad.any():
            break
        out[bad] = rng.standard_normal(int(bad.sum()))
    return Tensor((out * std).astype(dtype or default_dtype()))


def conv_fan_out_normal(rng: np.random.Generator, shape, dtype=None) -> Tensor:
    """He-style draw: std = sqrt(2 / (kh * kw * cout)); depthwise uses cout = 1."""
    kh, kw = shape[0], shape[1]
    cout = shape[3] if len(shape) == 4 else 1
    std = float(np.sqrt(2.0 / (kh * kw * cout)))
    return Tensor((rng.standard_normal(shape) * std).astype(dtype or default_dtype()))


# -- normalization --------------------------------------------------------------

@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor
    eps: float = 1e-5


def init_layer_norm(channels: int, dtype=None) -> LayerNormParams:
    return LayerNormParams(ones(channels, dtype), zeros(channels, dtype))


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    return ops.layer_norm(x, p.gamma, p.beta, p.eps)


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.99


def init_batch_norm(channels: int, dtype=None) -> BatchNormParams:
    dt = dtype or default_dtype()
    return BatchNormParams(
        ones(channels, dt), zeros(channels, dt),
        np.zeros(channels, dtype=dt), np.ones(channels, dtype=dt),
    )


def batch_norm(x: Tensor, p: BatchNormParams, training: bool = False, gelu: bool = False) -> Tensor:
    """Batch norm, then GELU when `gelu`, as one fused op (see `ops.batch_norm_train`)."""
    if not training:
        return ops.batch_norm_inference(x, p.gamma, p.beta, p.running_mean, p.running_var, p.eps, gelu=gelu)
    out, mean, var = ops.batch_norm_train(x, p.gamma, p.beta, p.eps, gelu=gelu)
    # exponential running stats; the only in-place state update in the model
    p.running_mean = p.momentum * p.running_mean + (1.0 - p.momentum) * mean
    p.running_var = p.momentum * p.running_var + (1.0 - p.momentum) * var
    return out


# -- convolutions ------------------------------------------------------------------

@dataclass
class ConvParams:
    weight: Tensor                 # (kh, kw, cin, cout)
    bias: Optional[Tensor] = None  # (cout,)
    stride: int = 1


def init_conv(rng, kernel: int, cin: int, cout: int, stride: int = 1, bias: bool = True, dtype=None) -> ConvParams:
    w = conv_fan_out_normal(rng, (kernel, kernel, cin, cout), dtype)
    return ConvParams(w, zeros(cout, dtype) if bias else None, stride)


def conv(x: Tensor, p: ConvParams) -> Tensor:
    return ops.conv2d(x, p.weight, p.bias, stride=p.stride)


@dataclass
class DepthwiseParams:
    weight: Tensor  # (kh, kw, c)
    stride: int = 1


def init_depthwise(rng, kernel: int, channels: int, stride: int = 1, dtype=None) -> DepthwiseParams:
    return DepthwiseParams(conv_fan_out_normal(rng, (kernel, kernel, channels), dtype), stride)


def depthwise(x: Tensor, p: DepthwiseParams) -> Tensor:
    return ops.depthwise_conv2d(x, p.weight, stride=p.stride)


# -- dense ----------------------------------------------------------------------------

@dataclass
class LinearParams:
    weight: Tensor                 # (cin, cout)
    bias: Optional[Tensor] = None  # (cout,)


def init_linear(rng, cin: int, cout: int, bias: bool = True, dtype=None) -> LinearParams:
    return LinearParams(trunc_normal(rng, (cin, cout), dtype=dtype), zeros(cout, dtype) if bias else None)


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """Dense layer over the last axis of an arbitrary-rank input."""
    cin, cout = p.weight.shape
    if x.shape[-1] != cin:
        raise DimensionError(f"linear: input features {x.shape[-1]} do not match weight {p.weight.shape}")
    lead = x.shape[:-1]
    flat = ops.reshape(x, (int(np.prod(lead, dtype=np.int64)), cin))
    y = ops.matmul(flat, p.weight)
    if p.bias is not None:
        y = ops.add(y, p.bias)
    return ops.reshape(y, lead + (cout,))


@dataclass
class MlpParams:
    fc1: LinearParams
    fc2: LinearParams


def init_mlp(rng, channels: int, expansion: int = 4, dtype=None) -> MlpParams:
    hidden = channels * expansion
    return MlpParams(init_linear(rng, channels, hidden, dtype=dtype), init_linear(rng, hidden, channels, dtype=dtype))


def mlp_ffn(x: Tensor, p: MlpParams) -> Tensor:
    """Position-wise feed-forward: fc2(gelu(fc1(x))); fc1's bias is added inside the GELU loop."""
    return linear(ops.gelu(linear(x, replace(p.fc1, bias=None)), p.fc1.bias), p.fc2)


# -- squeeze-excitation -----------------------------------------------------------------

@dataclass
class SeParams:
    reduce: LinearParams  # (c, bottleneck)
    expand: LinearParams  # (bottleneck, c)


def init_se(rng, channels: int, bottleneck: Optional[int] = None, ratio: float = 0.25, dtype=None) -> SeParams:
    if bottleneck is None:
        bottleneck = max(1, int(round(channels * ratio)))
    if bottleneck < 1:
        raise ConfigError(f"se bottleneck must be positive, got {bottleneck}")
    return SeParams(init_linear(rng, channels, bottleneck, dtype=dtype), init_linear(rng, bottleneck, channels, dtype=dtype))


def se_module(x: Tensor, p: SeParams) -> Tensor:
    """Channel gating: x * sigmoid(expand(silu(reduce(global_mean(x))))).

    The gate is computed from globally pooled features, so it is a per-channel
    scalar per image; spatial structure passes through untouched.
    """
    if x.ndim != 4:
        raise DimensionError(f"se_module expects NHWC rank-4 input, got {x.shape}")
    pooled = ops.reduce_mean(x, axes=(1, 2))          # (b, c)
    gate = linear(pooled, p.reduce)
    gate = ops.silu(gate)
    gate = linear(gate, p.expand)
    gate = ops.sigmoid(gate)
    gate = ops.reshape(gate, (x.shape[0], 1, 1, x.shape[-1]))
    return ops.mul(x, gate)


def global_avg_pool(x: Tensor) -> Tensor:
    """NHWC -> (batch, channels) spatial mean."""
    if x.ndim != 4:
        raise DimensionError(f"global_avg_pool expects NHWC rank-4 input, got {x.shape}")
    return ops.reduce_mean(x, axes=(1, 2))
