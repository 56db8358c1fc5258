"""The hierarchical backbone: conv stem, stacked hybrid stages, classifier head.

Every stage block applies, in a configurable order, an inverted-bottleneck
convolution (which carries all downsampling), local window attention, and
dilated grid attention. Default order is conv -> block attention -> grid
attention; widths double stage to stage while resolution halves.
"""

from __future__ import annotations

import copy
import itertools
import json
import numbers
import os
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import ops
from .attention import (
    AttentionLayerParams,
    attention_layer,
    build_bias_index,
    init_attention_layer,
    interpolate_bias,
)
from .errors import ConfigError, DataError, DimensionError, PartitionError
from .nn import (
    BatchNormParams,
    ConvParams,
    DepthwiseParams,
    LinearParams,
    SeParams,
    batch_norm,
    conv,
    depthwise,
    global_avg_pool,
    init_batch_norm,
    init_conv,
    init_depthwise,
    init_linear,
    init_se,
    linear,
    se_module,
)
from .tensor import Tensor, default_dtype, load_tensor, save_tensor

__all__ = [
    "StageSpec", "VariantSpec", "VARIANTS", "TOY_VARIANT", "resolve_variant",
    "default_window", "BlockPiece", "block_pieces", "MbConvParams", "mbconv_forward",
    "MaxVitBlockParams", "StemParams", "MaxVitModel", "build_model", "validate_geometry", "forward",
    "named_parameters", "parameter_slots", "named_buffers",
    "with_window", "save_model", "load_model",
]

CHECKPOINT_VERSION = 1


# -- variant registry ---------------------------------------------------------

@dataclass(frozen=True)
class StageSpec:
    depth: int
    channels: int


@dataclass(frozen=True)
class VariantSpec:
    """Complete architectural description; models are built from this alone."""

    name: str
    stem_channels: int
    stages: tuple[StageSpec, ...]
    window: int = 7           # block-attention window P
    grid_size: int = 7        # grid-attention lattice G
    head_dim: int = 32
    conv_expansion: int = 4
    se_ratio: float = 0.25
    mlp_expansion: int = 4
    block_order: tuple[str, ...] = ("conv", "block_attn", "grid_attn")

    def validate(self) -> None:
        if not isinstance(self.name, str):
            raise ConfigError(f"variant name must be a string, got {self.name!r}")
        if not isinstance(self.block_order, tuple) or sorted(self.block_order, key=str) != [
            "block_attn", "conv", "grid_attn"
        ]:
            raise ConfigError(
                f"block_order must arrange ('conv', 'block_attn', 'grid_attn'), got {self.block_order}"
            )
        for key in ("stem_channels", "window", "grid_size", "head_dim", "conv_expansion", "mlp_expansion"):
            if not _int_at_least(getattr(self, key)):
                raise ConfigError(f"variant {key} must be a positive integer, got {getattr(self, key)!r}")
        if not isinstance(self.se_ratio, numbers.Real) or not 0 < self.se_ratio < float("inf"):
            raise ConfigError(f"variant se_ratio must be a positive number, got {self.se_ratio!r}")
        if not isinstance(self.stages, tuple) or not self.stages:
            raise ConfigError(f"invalid variant {self.name}: stages must be a non-empty tuple")
        for s in self.stages:
            if not isinstance(s, StageSpec) or not (_int_at_least(s.depth) and _int_at_least(s.channels)):
                raise ConfigError(f"invalid stage spec {s}")
            if s.channels % self.head_dim:
                raise ConfigError(
                    f"stage width {s.channels} not divisible by head_dim {self.head_dim}"
                )


def _int_at_least(v, low: int = 1) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low


def _mk(name, stem, chans, depths) -> VariantSpec:
    return VariantSpec(name, stem, tuple(StageSpec(d, c) for d, c in zip(depths, chans)))


VARIANTS: dict[str, VariantSpec] = {
    "T": _mk("T", 64, (64, 128, 256, 512), (2, 2, 5, 2)),
    "S": _mk("S", 64, (96, 192, 384, 768), (2, 2, 5, 2)),
    "B": _mk("B", 64, (96, 192, 384, 768), (2, 6, 14, 2)),
    "L": _mk("L", 128, (128, 256, 512, 1024), (2, 6, 14, 2)),
    "XL": _mk("XL", 192, (192, 384, 768, 1536), (2, 6, 14, 2)),
}

# Desk-scale layout for the training demo: same stage structure, 112x112 input
# (stem -> 56, stages -> 28, 14, 7; every attention site divisible by 7).
TOY_VARIANT = VariantSpec(
    name="toy",
    stem_channels=16,
    stages=(StageSpec(1, 16), StageSpec(1, 16), StageSpec(1, 32)),
    head_dim=16,
)


def resolve_variant(variant) -> VariantSpec:
    if isinstance(variant, VariantSpec):
        spec = variant
    elif isinstance(variant, str):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {sorted(VARIANTS)}")
        spec = VARIANTS[variant]
    else:
        raise ConfigError(f"variant must be a name or VariantSpec, got {type(variant).__name__}")
    spec.validate()
    return spec


def default_window(resolution: int) -> int:
    """Window/grid size for a square input resolution.

    The deepest stage runs at resolution/32, so the size must divide it.
    Prefers 7; otherwise the smallest divisor of resolution/32 that is >= 7
    (so 224 -> 7, 384 -> 12, 448 -> 7, 512 -> 8), falling back to
    resolution/32 itself.
    """
    if resolution < 32 or resolution % 32:
        raise ConfigError(f"resolution {resolution} must be a positive multiple of 32")
    last = resolution // 32
    if last % 7 == 0:
        return 7
    for cand in range(7, last + 1):
        if last % cand == 0:
            return cand
    return last


# -- inverted-bottleneck conv block ---------------------------------------------

@dataclass
class MbConvParams:
    """Pre-norm inverted bottleneck with channel gating; owns any downsampling."""

    pre_norm: BatchNormParams
    expand: ConvParams            # 1x1 to expansion width, no bias
    norm1: BatchNormParams
    dw: DepthwiseParams           # 3x3, stride 1 or 2
    norm2: BatchNormParams
    se: SeParams
    proj: ConvParams              # 1x1 to output width, bias
    shortcut: Optional[ConvParams]  # 1x1 on the (pooled) identity path
    stride: int


def init_mbconv(rng, cin: int, cout: int, stride: int, expansion: int, se_ratio: float, dtype=None) -> MbConvParams:
    mid = expansion * cout
    shortcut = None
    if stride == 2 or cin != cout:
        shortcut = init_conv(rng, 1, cin, cout, stride=1, bias=True, dtype=dtype)
    return MbConvParams(
        pre_norm=init_batch_norm(cin, dtype),
        expand=init_conv(rng, 1, cin, mid, stride=1, bias=False, dtype=dtype),
        norm1=init_batch_norm(mid, dtype),
        dw=init_depthwise(rng, 3, mid, stride=stride, dtype=dtype),
        norm2=init_batch_norm(mid, dtype),
        se=init_se(rng, mid, bottleneck=max(1, int(round(se_ratio * cout))), dtype=dtype),
        proj=init_conv(rng, 1, mid, cout, stride=1, bias=True, dtype=dtype),
        shortcut=shortcut,
        stride=stride,
    )


def mbconv_forward(x: Tensor, p: MbConvParams, training: bool = False) -> Tensor:
    y = batch_norm(x, p.pre_norm, training)
    y = conv(y, p.expand)
    y = batch_norm(y, p.norm1, training, gelu=True)
    y = depthwise(y, p.dw)
    y = batch_norm(y, p.norm2, training, gelu=True)
    y = se_module(y, p.se)
    y = conv(y, p.proj)
    if p.stride == 2:
        sc = conv(ops.avg_pool2d(x, 2), p.shortcut)
    elif p.shortcut is not None:
        sc = conv(x, p.shortcut)
    else:
        sc = x
    return ops.add(sc, y)


# -- one hybrid stage block --------------------------------------------------------

@dataclass
class MaxVitBlockParams:
    order: tuple[str, ...]
    conv: MbConvParams
    block_attn: AttentionLayerParams
    grid_attn: AttentionLayerParams


def stage_block_forward(x: Tensor, p: MaxVitBlockParams, training: bool = False) -> Tensor:
    for piece in p.order:
        if piece == "conv":
            x = mbconv_forward(x, p.conv, training)
        elif piece == "block_attn":
            x = attention_layer(x, p.block_attn)
        else:
            x = attention_layer(x, p.grid_attn)
    return x


# -- the stage schedule -------------------------------------------------------------

class BlockPiece(NamedTuple):
    """One piece of one stage block, as the forward runs it."""

    stage: int
    block: int
    piece: str             # "conv" | "block_attn" | "grid_attn"
    cin: int
    cout: int
    stride: int
    size: Optional[int]    # window (block_attn) or grid lattice (grid_attn); None for conv


def block_pieces(spec: VariantSpec) -> Iterator[BlockPiece]:
    """The stage schedule: every stage-block piece in execution order.

    Each stage's first conv halves the extent and sets the stage width; the
    attention pieces keep the width they find. Building, geometry checking and
    counting all walk this one schedule.
    """
    width = spec.stem_channels
    for si, stage in enumerate(spec.stages):
        for b in range(stage.depth):
            for piece in spec.block_order:
                if piece == "conv":
                    yield BlockPiece(si, b, piece, width, stage.channels, 2 if b == 0 else 1, None)
                    width = stage.channels
                else:
                    size = spec.window if piece == "block_attn" else spec.grid_size
                    yield BlockPiece(si, b, piece, width, width, 1, size)


# -- the full model -----------------------------------------------------------------

@dataclass
class StemParams:
    conv1: ConvParams  # 3x3 stride 2, no bias (normalized right after)
    norm: BatchNormParams
    conv2: ConvParams  # 3x3 stride 1, bias


@dataclass
class MaxVitModel:
    variant: VariantSpec
    num_classes: int
    seed: int
    stem: StemParams
    stages: list[list[MaxVitBlockParams]]
    head: LinearParams


def _init_piece(rng, spec: VariantSpec, p: BlockPiece, dtype):
    if p.piece == "conv":
        return init_mbconv(rng, p.cin, p.cout, p.stride, spec.conv_expansion, spec.se_ratio, dtype)
    kind = p.piece.removesuffix("_attn")
    return init_attention_layer(rng, kind, p.cin, p.size, spec.head_dim, spec.mlp_expansion, dtype)


def build_model(variant="T", num_classes: int = 1000, seed: int = 0, dtype=None) -> MaxVitModel:
    """Deterministic construction: same variant/classes/seed => bitwise-equal weights."""
    spec = resolve_variant(variant)
    if not _int_at_least(num_classes):
        raise ConfigError(f"num_classes must be a positive integer, got {num_classes!r}")
    if not _int_at_least(seed, 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    dt = dtype or default_dtype()
    rng = np.random.default_rng(seed)
    stem = StemParams(
        conv1=init_conv(rng, 3, 3, spec.stem_channels, stride=2, bias=False, dtype=dt),
        norm=init_batch_norm(spec.stem_channels, dt),
        conv2=init_conv(rng, 3, spec.stem_channels, spec.stem_channels, stride=1, bias=True, dtype=dt),
    )
    # Pieces are drawn in execution order, so parameter draws follow the data path.
    stages: list[list[MaxVitBlockParams]] = [[] for _ in spec.stages]
    for (si, _), pieces in itertools.groupby(block_pieces(spec), key=lambda p: (p.stage, p.block)):
        parts = {p.piece: _init_piece(rng, spec, p, dt) for p in pieces}
        stages[si].append(MaxVitBlockParams(order=spec.block_order, **parts))
    head = init_linear(rng, spec.stages[-1].channels, num_classes, bias=True, dtype=dt)
    return MaxVitModel(spec, num_classes, seed, stem, stages, head)


def validate_geometry(spec: VariantSpec, height: int, width: int) -> list[tuple[int, int]]:
    """Check the whole resolution schedule before any compute happens.

    Returns the (h, w) extent that each piece of `block_pieces(spec)` reads, in
    order, followed by the extent the head pools. Raises DimensionError for an
    empty input, and PartitionError naming every stride-2 site with an odd
    extent and every attention site whose extent the window/grid does not divide.
    """
    if height < 1 or width < 1:
        raise DimensionError(f"input extent ({height}, {width}) is empty")
    problems = []
    if height % 2 or width % 2:
        problems.append(f"stem downsample: extent ({height}, {width}) is odd")
    h, w = -(-height // 2), -(-width // 2)
    extents = []
    for p in block_pieces(spec):
        extents.append((h, w))
        site = f"stage {p.stage} block {p.block}"
        if p.stride == 2:
            if h % 2 or w % 2:
                problems.append(f"{site} downsample: extent ({h}, {w}) is odd")
            h, w = -(-h // 2), -(-w // 2)
        elif p.size is not None and (h % p.size or w % p.size):
            kind = p.piece.removesuffix("_attn")
            problems.append(f"{site} {kind} attention: extent ({h}, {w}) not divisible by {p.size}")
    if problems:
        raise PartitionError("; ".join(problems))
    return extents + [(h, w)]


def forward(model: MaxVitModel, images: Tensor, training: bool = False) -> Tensor:
    """Images (batch, H, W, 3) NHWC in [any real range] -> logits (batch, classes)."""
    if images.ndim != 4 or images.shape[-1] != 3:
        raise DimensionError(f"forward expects (batch, H, W, 3) images, got {images.shape}")
    validate_geometry(model.variant, images.shape[1], images.shape[2])
    x = conv(images, model.stem.conv1)
    x = batch_norm(x, model.stem.norm, training, gelu=True)
    x = conv(x, model.stem.conv2)
    for blocks in model.stages:
        for blk in blocks:
            x = stage_block_forward(x, blk, training)
    pooled = global_avg_pool(x)
    return linear(pooled, model.head)


# -- state traversal -------------------------------------------------------------------

def _walk(obj, prefix: str = ""):
    """Yield (dotted_name, holder, key, kind) for every state leaf, in build order.

    `holder` is the owning dataclass and `key` the field name, so callers can
    write new values back without re-walking. `kind` is "param" for a Tensor
    and "buffer" for a float ndarray (batch-norm running statistics); int
    index tables, scalars and the VariantSpec are not state and are skipped.
    """
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _walk(item, f"{prefix}.{i}")
        return
    if not is_dataclass(obj) or isinstance(obj, VariantSpec):
        return
    for f in fields(obj):
        val = getattr(obj, f.name)
        name = f"{prefix}.{f.name}" if prefix else f.name
        if isinstance(val, Tensor):
            yield name, obj, f.name, "param"
        elif isinstance(val, np.ndarray) and val.dtype.kind == "f":
            yield name, obj, f.name, "buffer"
        else:
            yield from _walk(val, name)


def parameter_slots(model) -> list[tuple[str, object, object]]:
    """(dotted_name, holder, key) for every learnable tensor, in build order."""
    return [(name, holder, key) for name, holder, key, kind in _walk(model) if kind == "param"]


def named_parameters(model) -> list[tuple[str, Tensor]]:
    return [(name, getattr(holder, key)) for name, holder, key in parameter_slots(model)]


def named_buffers(model: MaxVitModel) -> list[tuple[str, np.ndarray]]:
    """Non-learnable state: batch-norm running statistics, in build order."""
    return [(name, getattr(holder, key)) for name, holder, key, kind in _walk(model) if kind == "buffer"]


# -- window transfer --------------------------------------------------------------------

def with_window(model: MaxVitModel, window: int, grid_size: Optional[int] = None) -> MaxVitModel:
    """Model for a new window/grid size; bias tables resampled.

    Parameter tensors shared; holders and running stats copied, so training
    the result leaves the source model untouched. Used to run a trained model
    at a different input resolution: parameter counts change only by the
    bias-table extents.
    """
    grid_size = grid_size if grid_size is not None else window
    spec = replace(model.variant, window=window, grid_size=grid_size)
    spec.validate()
    # Tensors are immutable, so seeding the memo with them shares every one.
    memo = {id(t): t for _, t in named_parameters(model)}
    moved = copy.deepcopy(model, memo)
    moved.variant = spec
    sizes = {"block": (model.variant.window, window), "grid": (model.variant.grid_size, grid_size)}
    for blocks in moved.stages:
        for blk in blocks:
            for layer in (blk.block_attn, blk.grid_attn):
                old, new = sizes[layer.kind]
                layer.attn.bias_table = interpolate_bias(layer.attn.bias_table, old, new)
                layer.attn.window = new
                layer.index = build_bias_index(new)
    return moved


# -- checkpoints --------------------------------------------------------------------------

def _spec_to_dict(spec: VariantSpec) -> dict:
    d = {f.name: getattr(spec, f.name) for f in fields(VariantSpec)}
    d["stages"] = [[s.depth, s.channels] for s in spec.stages]
    return d


def _spec_from_dict(d) -> VariantSpec:
    try:
        kw = {f.name: d[f.name] for f in fields(VariantSpec)}
        kw["stages"] = tuple(StageSpec(*s) for s in kw["stages"])
        kw["block_order"] = tuple(kw["block_order"])
        return resolve_variant(VariantSpec(**kw))
    except (KeyError, TypeError, ConfigError) as e:
        raise DataError(f"malformed variant record in manifest: {e}") from e


def save_model(model: MaxVitModel, directory) -> None:
    """Write manifest.json plus one tensor file per parameter and buffer."""
    os.makedirs(directory, exist_ok=True)
    slots = list(_walk(model))
    first_param = next(getattr(h, k) for _, h, k, kind in slots if kind == "param")
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "variant": _spec_to_dict(model.variant),
        "num_classes": model.num_classes,
        "seed": model.seed,
        "dtype": "f64" if first_param.dtype == np.float64 else "f32",
        "parameters": [name for name, _, _, kind in slots if kind == "param"],
        "buffers": [name for name, _, _, kind in slots if kind == "buffer"],
    }
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    for name, holder, key, kind in slots:
        val = getattr(holder, key)
        save_tensor(val if kind == "param" else Tensor(val.copy()), os.path.join(directory, name + ".tensor"))


def load_model(directory) -> MaxVitModel:
    """Rebuild the architecture from the manifest and load every tensor back."""
    try:
        with open(os.path.join(directory, "manifest.json")) as f:
            manifest = json.load(f)
    except FileNotFoundError as e:
        raise DataError(f"no manifest.json in {directory}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"corrupt manifest.json in {directory}: {e}") from e
    if not isinstance(manifest, dict):
        raise DataError(f"manifest.json in {directory} is not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {manifest.get('format_version')}")
    try:
        spec = _spec_from_dict(manifest["variant"])
        num_classes, seed = manifest["num_classes"], manifest["seed"]
    except KeyError as e:
        raise DataError(f"manifest.json in {directory} has no {e} entry") from e
    if manifest.get("dtype") not in ("f32", "f64"):
        raise DataError(f"manifest.json in {directory} has dtype {manifest.get('dtype')!r}, not 'f32' or 'f64'")
    dt = np.float64 if manifest["dtype"] == "f64" else np.float32
    try:
        model = build_model(spec, num_classes=num_classes, seed=seed, dtype=dt)
    except ConfigError as e:
        raise DataError(f"manifest.json in {directory}: {e}") from e

    slots = list(_walk(model))
    for field, kind in (("parameters", "param"), ("buffers", "buffer")):
        if manifest.get(field) != [name for name, _, _, k in slots if k == kind]:
            raise DataError(f"checkpoint {field} list does not match the rebuilt architecture")
    for name, holder, key, kind in slots:
        try:
            t = load_tensor(os.path.join(directory, name + ".tensor"))
        except FileNotFoundError as e:
            raise DataError(f"checkpoint has no tensor file for {name}") from e
        current = getattr(holder, key)
        if t.shape != current.shape:
            raise DataError(f"checkpoint tensor {name} has shape {t.shape}, expected {current.shape}")
        setattr(holder, key, t.astype(dt) if kind == "param" else t.data.astype(dt))
    return model
