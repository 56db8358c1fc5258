"""Analytic parameter and multiply-accumulate accounting.

Counting convention (frozen; the golden comparisons depend on it):
  * params: every learnable scalar, including norm affines and relative-bias
    tables; batch-norm running statistics are state, not parameters.
  * MACs: one per multiply-accumulate, for a single image. Convs cost
    kh*kw*cin*cout*hout*wout, dense layers tokens*cin*cout, attention its two
    batched matmuls plus the q/k/v/output projections. Normalization,
    activations, softmax, pooling, residual adds, and the bias-table gather
    count zero.

The walker shares the stage schedule with build_model: both walk
`model.block_pieces`, and the extents come from `validate_geometry`, so a
count exists exactly where `forward` would run, and B/L/XL can be audited
without allocating hundreds of millions of floats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import (
    _MBCONV_EXPANSION, MaxVitModel, _se_bottleneck, block_pieces, default_window, named_parameters, resolve_variant,
    validate_geometry,
)
from .nn import _MLP_RATIO
from .ops import _int_arg

__all__ = ["LayerCount", "ModelCount", "count_model", "count_params"]


@dataclass(frozen=True)
class LayerCount:
    name: str    # dotted path, mirrors parameter naming
    kind: str    # conv3x3 | conv1x1 | dwconv | norm | dense | bias_table | attn_matmul
    params: int
    macs: int


@dataclass(frozen=True)
class ModelCount:
    variant: str
    resolution: int
    window: int
    layers: tuple[LayerCount, ...]
    total_params: int
    total_macs: int

    def stage_totals(self) -> dict[str, tuple[int, int]]:
        """prefix -> (params, macs) aggregated over stem / stages / head."""
        out: dict[str, tuple[int, int]] = {}
        for lc in self.layers:
            key = lc.name.split(".")[0]
            if key == "stages":
                key = "stage" + lc.name.split(".")[1]
            p, m = out.get(key, (0, 0))
            out[key] = (p + lc.params, m + lc.macs)
        return out

    def layers_matching(self, needle: str) -> list[LayerCount]:
        return [lc for lc in self.layers if needle in lc.name]


def _attention_layer_counts(prefix: str, channels: int, size: int, head_dim: int, tokens: int):
    """Per-layer records for one attention layer at a given token count."""
    heads = channels // head_dim
    window_tokens = size * size
    hidden = channels * _MLP_RATIO
    return [
        LayerCount(f"{prefix}.norm1", "norm", 2 * channels, 0),
        LayerCount(f"{prefix}.attn.wq", "dense", channels * channels, tokens * channels * channels),
        LayerCount(f"{prefix}.attn.wk", "dense", channels * channels, tokens * channels * channels),
        LayerCount(f"{prefix}.attn.wv", "dense", channels * channels, tokens * channels * channels),
        LayerCount(
            f"{prefix}.attn.bias_table", "bias_table", heads * (2 * size - 1) ** 2, 0
        ),
        LayerCount(f"{prefix}.attn.logits", "attn_matmul", 0, tokens * window_tokens * channels),
        LayerCount(f"{prefix}.attn.weighted_sum", "attn_matmul", 0, tokens * window_tokens * channels),
        LayerCount(
            f"{prefix}.attn.wo", "dense", channels * channels + channels, tokens * channels * channels
        ),
        LayerCount(f"{prefix}.norm2", "norm", 2 * channels, 0),
        LayerCount(f"{prefix}.mlp.fc1", "dense", channels * hidden + hidden, tokens * channels * hidden),
        LayerCount(f"{prefix}.mlp.fc2", "dense", hidden * channels + channels, tokens * hidden * channels),
    ]


def _mbconv_counts(prefix: str, cin: int, cout: int, stride: int, n_in: int, n_out: int):
    """Per-layer records for one MBConv reading n_in positions and writing n_out."""
    mid = _MBCONV_EXPANSION * cout
    bottleneck = _se_bottleneck(cout)
    layers = [
        LayerCount(f"{prefix}.pre_norm", "norm", 2 * cin, 0),
        LayerCount(f"{prefix}.expand", "conv1x1", cin * mid, cin * mid * n_in),
        LayerCount(f"{prefix}.norm1", "norm", 2 * mid, 0),
        LayerCount(f"{prefix}.dw", "dwconv", 9 * mid, 9 * mid * n_out),
        LayerCount(f"{prefix}.norm2", "norm", 2 * mid, 0),
        LayerCount(f"{prefix}.se.reduce", "dense", mid * bottleneck + bottleneck, mid * bottleneck),
        LayerCount(f"{prefix}.se.expand", "dense", bottleneck * mid + mid, bottleneck * mid),
        LayerCount(f"{prefix}.proj", "conv1x1", mid * cout + cout, mid * cout * n_out),
    ]
    if stride == 2 or cin != cout:
        layers.append(LayerCount(f"{prefix}.shortcut", "conv1x1", cin * cout + cout, cin * cout * n_out))
    return layers


def count_model(variant, resolution: int = 224, num_classes: int = 1000, window: int | None = None) -> ModelCount:
    """Full per-layer accounting for a variant at a square input resolution.

    `window` sets the window (which is also the grid size); by default it is the
    resolution's `default_window` when the resolution is a multiple of 32,
    else the variant's own. Raises PartitionError wherever `forward` would,
    and ConfigError for a class count `build_model` rejects or a resolution
    that is not a positive integer.
    """
    spec = resolve_variant(variant)
    _int_arg("count_model", "num_classes", num_classes)
    resolution = _int_arg("count_model", "resolution", resolution)
    if window is None and resolution % 32 == 0:
        window = default_window(resolution)
    if window is not None:
        spec = resolve_variant(replace(spec, window=window))
    extents = validate_geometry(spec, resolution, resolution)
    (h, w), cs = extents[0], spec.stem_channels
    layers: list[LayerCount] = [
        LayerCount("stem.conv1", "conv3x3", 9 * 3 * cs, 9 * 3 * cs * h * w),
        LayerCount("stem.norm", "norm", 2 * cs, 0),
        LayerCount("stem.conv2", "conv3x3", 9 * cs * cs + cs, 9 * cs * cs * h * w),
    ]
    for p, (h, w), (h_out, w_out) in zip(block_pieces(spec), extents, extents[1:]):
        prefix = f"stages.{p.stage}.{p.block}.{p.piece}"
        if p.piece == "conv":
            layers += _mbconv_counts(prefix, p.cin, p.cout, p.stride, h * w, h_out * w_out)
        else:
            layers += _attention_layer_counts(prefix, p.cin, spec.window, spec.head_dim, h * w)
    last = spec.stages[-1].channels
    layers.append(LayerCount("head", "dense", last * num_classes + num_classes, last * num_classes))
    return ModelCount(
        variant=spec.name,
        resolution=resolution,
        window=spec.window,
        layers=tuple(layers),
        total_params=sum(l.params for l in layers),
        total_macs=sum(l.macs for l in layers),
    )


def count_params(model: MaxVitModel) -> int:
    """Exact learnable-scalar count of a built model (sums real tensor sizes)."""
    return sum(t.size for _, t in named_parameters(model))
