"""Backbone construction, forward geometry, determinism, checkpoints, variants."""

import json
from dataclasses import replace

import numpy as np
import pytest

from maxvit.counting import count_model, count_params
from maxvit.errors import ConfigError, DataError, DimensionError, PartitionError
from maxvit.model import (
    TOY_VARIANT,
    VARIANTS,
    StageSpec,
    VariantSpec,
    block_pieces,
    build_model,
    default_window,
    forward,
    load_model,
    named_buffers,
    named_parameters,
    resolve_variant,
    save_model,
    validate_geometry,
    with_window,
)
from maxvit.optim import AdamW
from maxvit.tensor import Tensor, save_tensor

MINI = VariantSpec(
    name="mini",
    stem_channels=8,
    stages=(StageSpec(1, 8), StageSpec(1, 16)),
    window=2,
    head_dim=4,
)


def _images(b, r, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((b, r, r, 3)).astype(dtype))


def test_variant_table():
    # stem width, per-stage (depth, channels)
    want = {
        "T": (64, [(2, 64), (2, 128), (5, 256), (2, 512)]),
        "S": (64, [(2, 96), (2, 192), (5, 384), (2, 768)]),
        "B": (64, [(2, 96), (6, 192), (14, 384), (2, 768)]),
        "L": (128, [(2, 128), (6, 256), (14, 512), (2, 1024)]),
        "XL": (192, [(2, 192), (6, 384), (14, 768), (2, 1536)]),
    }
    for name, (stem, stages) in want.items():
        spec = VARIANTS[name]
        assert spec.stem_channels == stem
        assert [(s.depth, s.channels) for s in spec.stages] == stages
        assert spec.window == 7
        assert spec.head_dim == 32


def test_resolve_variant_rejects_unknown():
    with pytest.raises(ConfigError) as e:
        resolve_variant("Q")
    msg = str(e.value)
    assert "'Q'" in msg and all(v in msg for v in ["T", "S", "B", "L", "XL"])


def test_default_window_policy():
    assert default_window(224) == 7
    assert default_window(384) == 12
    assert default_window(448) == 7
    assert default_window(512) == 8
    assert default_window(896) == 7
    with pytest.raises(ConfigError):
        default_window(200)


def test_build_is_deterministic_and_seed_sensitive():
    a = build_model(MINI, num_classes=4, seed=11)
    b = build_model(MINI, num_classes=4, seed=11)
    c = build_model(MINI, num_classes=4, seed=12)
    for (na, ta), (nb, tb), (nc, tc) in zip(named_parameters(a), named_parameters(b), named_parameters(c)):
        assert na == nb == nc
        assert np.array_equal(ta.data, tb.data), na
    diffs = sum(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(named_parameters(a), named_parameters(c))
    )
    assert diffs > 10  # different seed actually changes the draws


def test_parameter_names_and_order_are_stable():
    model = build_model(MINI, num_classes=2, seed=0)
    names = [n for n, _ in named_parameters(model)]
    assert names[0] == "stem.conv1.weight"
    assert names[-1] == "head.bias"
    assert "stages.0.0.conv.expand.weight" in names
    assert "stages.1.0.block_attn.attn.bias_table" in names
    assert len(names) == len(set(names))
    buffers = [n for n, _ in named_buffers(model)]
    assert "stem.norm.running_mean" in buffers
    assert not set(names) & set(buffers)
    assert not [n for n in names + buffers if n.endswith("index")]
    full = build_model("T", seed=0)
    assert (len(named_parameters(full)), len(named_buffers(full))) == (477, 68)


def test_head_dim_divisibility_enforced():
    bad = VariantSpec("bad", 8, (StageSpec(1, 10),), window=2, head_dim=4)
    with pytest.raises(ConfigError):
        build_model(bad)


def test_forward_shapes_and_dtype():
    model = build_model(MINI, num_classes=5, seed=1)
    logits = forward(model, _images(2, 16))
    assert logits.shape == (2, 5)
    assert logits.dtype == np.float32


def test_forward_f64_propagates():
    model = build_model(MINI, num_classes=3, seed=1, dtype=np.float64)
    logits = forward(model, _images(1, 16, dtype=np.float64))
    assert logits.dtype == np.float64


def test_forward_rejects_bad_rank_and_channels():
    model = build_model(MINI, num_classes=2)
    with pytest.raises(DimensionError):
        forward(model, Tensor(np.zeros((2, 16, 16), dtype=np.float32)))
    with pytest.raises(DimensionError):
        forward(model, Tensor(np.zeros((2, 16, 16, 4), dtype=np.float32)))


def test_geometry_validation_names_offender():
    with pytest.raises(PartitionError) as e:
        validate_geometry(VARIANTS["T"], 220, 220)
    assert "not divisible by 7" in str(e.value)
    # 384 with fixed window 7: deepest stage is 12, not divisible
    with pytest.raises(PartitionError):
        validate_geometry(VARIANTS["T"], 384, 384)
    validate_geometry(VARIANTS["T"], 224, 224)
    validate_geometry(VARIANTS["T"], 448, 448)


def test_forward_checks_geometry_before_compute():
    model = build_model(MINI, num_classes=2)
    with pytest.raises(PartitionError):
        forward(model, _images(1, 20))  # 20 -> 10 -> 5: window 2 cannot tile 5
    with pytest.raises(DimensionError):
        forward(model, Tensor(np.zeros((1, 0, 0, 3), np.float32)))


def test_training_mode_updates_running_stats():
    model = build_model(MINI, num_classes=2, seed=3)
    before = [arr.copy() for _, arr in named_buffers(model)]
    forward(model, _images(2, 16), training=True)
    after = [arr for _, arr in named_buffers(model)]
    assert any(not np.array_equal(b, a) for b, a in zip(before, after))
    # inference mode must leave them alone
    frozen = [arr.copy() for _, arr in named_buffers(model)]
    forward(model, _images(2, 16, seed=9))
    assert all(np.array_equal(f, a) for f, a in zip(frozen, [arr for _, arr in named_buffers(model)]))


def test_inference_is_batch_independent():
    model = build_model(MINI, num_classes=2, seed=4, dtype=np.float64)
    x1 = _images(2, 16, seed=5, dtype=np.float64)
    x3 = Tensor(np.concatenate([x1.data, _images(1, 16, seed=6, dtype=np.float64).data]))
    solo = forward(model, x1).data
    joint = forward(model, x3).data[:2]
    np.testing.assert_allclose(joint, solo, atol=1e-10)


@pytest.mark.parametrize(
    "order",
    [
        ("conv", "block_attn", "grid_attn"),
        ("conv", "grid_attn", "block_attn"),
        ("block_attn", "conv", "grid_attn"),
        ("grid_attn", "block_attn", "conv"),
    ],
)
def test_block_orders_build_and_run(order):
    spec = VariantSpec("mini_o", 8, (StageSpec(1, 8), StageSpec(1, 16)), window=2, head_dim=4, block_order=order)
    model = build_model(spec, num_classes=2, seed=0)
    assert forward(model, _images(1, 16)).shape == (1, 2)
    # analytic count and the real build share the schedule for every order:
    # each record's params are the sizes of the parameters under its dotted name
    count = count_model(spec, 16, num_classes=2)
    assert count.total_params == count_params(model)
    params = named_parameters(model)
    for rec in count.layers:
        built = sum(t.size for name, t in params if name == rec.name or name.startswith(rec.name + "."))
        assert built == rec.params, rec.name


def test_bad_block_order_rejected():
    spec = VariantSpec("dup", 8, (StageSpec(1, 8),), window=2, head_dim=4, block_order=("conv", "conv", "grid_attn"))
    with pytest.raises(ConfigError):
        build_model(spec)


@pytest.mark.parametrize(
    "bad",
    [
        {"window": "7"}, {"window": 2.0}, {"stem_channels": True}, {"head_dim": 0}, {"head_dim": None},
        {"stages": (StageSpec(1, "8"),)}, {"stages": ((1, 8),)}, {"block_order": (1, "conv", "grid_attn")},
        {"name": 3},
    ],
    ids=[
        "window-str", "window-float", "stem-bool", "head-dim-zero", "head-dim-none",
        "stage-channels-str", "stage-not-spec", "block-order-int", "name-int",
    ],
)
def test_variant_spec_rejects_malformed_fields(bad):
    with pytest.raises(ConfigError):
        build_model(replace(MINI, **bad))


@pytest.mark.parametrize(
    "kwargs",
    [{"num_classes": "2"}, {"num_classes": 2.0}, {"seed": -1}, {"seed": "0"}],
    ids=["classes-str", "classes-float", "seed-negative", "seed-str"],
)
def test_build_model_rejects_malformed_classes_and_seed(kwargs):
    with pytest.raises(ConfigError):
        build_model(MINI, **kwargs)


def test_checkpoint_roundtrip(tmp_path):
    model = build_model(MINI, num_classes=3, seed=7)
    forward(model, _images(2, 16), training=True)  # make running stats non-trivial
    logits_before = forward(model, _images(1, 16, seed=8)).data
    save_model(model, tmp_path / "ckpt")
    back = load_model(tmp_path / "ckpt")
    assert back.variant == model.variant
    assert back.num_classes == 3 and back.seed == 7
    for (na, ta), (nb, tb) in zip(named_parameters(model), named_parameters(back)):
        assert na == nb
        assert np.array_equal(ta.data, tb.data), na
    for (na, ba), (nb, bb) in zip(named_buffers(model), named_buffers(back)):
        assert np.array_equal(ba, bb), na
    np.testing.assert_allclose(forward(back, _images(1, 16, seed=8)).data, logits_before, atol=0)
    # the variant record keeps its on-disk layout
    record = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())["variant"]
    assert list(record.items()) == [
        ("name", "mini"), ("stem_channels", 8), ("stages", [[1, 8], [1, 16]]), ("window", 2), ("head_dim", 4),
        ("block_order", ["conv", "block_attn", "grid_attn"]),
    ]


def _edit_manifest(ckpt, edit):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    edit(manifest)
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def _truncate_payload(ckpt):
    victim = ckpt / "head.bias.tensor"
    victim.write_bytes(victim.read_bytes()[:-2])


@pytest.mark.parametrize(
    "corrupt",
    [
        _truncate_payload,
        lambda ckpt: (ckpt / "manifest.json").unlink(),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["buffers"].pop()),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["buffers"].append("stem.conv1.weight")),
        lambda ckpt: save_tensor(Tensor(np.zeros(5, np.float32)), ckpt / "stem.norm.running_mean.tensor"),
        lambda ckpt: (ckpt / "stem.norm.running_var.tensor").unlink(),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m.pop("seed")),
        lambda ckpt: (ckpt / "manifest.json").write_text("[]"),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["variant"].update(stages=[[1]])),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["variant"].update(window="7")),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m["variant"].update(head_dim=None)),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m.update(num_classes="2")),
        lambda ckpt: _edit_manifest(ckpt, lambda m: m.update(dtype="f16")),
        lambda ckpt: (ckpt / "head.bias.tensor").write_bytes(b"f32 2 4294967296 4294967296\n"),
    ],
    ids=[
        "truncated-payload", "no-manifest", "truncated-buffer-list", "parameter-listed-as-buffer",
        "buffer-wrong-shape", "missing-tensor-file", "manifest-missing-seed", "manifest-not-object",
        "stage-entry-short", "window-string", "head-dim-null", "num-classes-string", "dtype-f16",
        "tensor-extents-overflow-int64",
    ],
)
def test_checkpoint_rejects_corruption(tmp_path, corrupt):
    model = build_model(MINI, num_classes=2, seed=0)
    save_model(model, tmp_path / "ckpt")
    corrupt(tmp_path / "ckpt")
    with pytest.raises(DataError):
        load_model(tmp_path / "ckpt")


def _older_layout(record, grid_size):
    # the variant record as older checkpoints wrote it: a separate grid size and
    # the paper's MBConv expansion, SE ratio and MLP ratio
    return {
        **{k: record[k] for k in ("name", "stem_channels", "stages", "window")}, "grid_size": grid_size,
        "head_dim": record["head_dim"], "conv_expansion": 4, "se_ratio": 0.25, "mlp_expansion": 4,
        "block_order": record["block_order"],
    }


def test_checkpoint_in_the_older_variant_layout_loads(tmp_path):
    model = build_model(MINI, num_classes=3, seed=7)
    forward(model, _images(2, 16), training=True)
    ckpt = tmp_path / "ckpt"
    save_model(model, ckpt)
    _edit_manifest(ckpt, lambda m: m.update(variant=_older_layout(m["variant"], grid_size=2)))
    back = load_model(ckpt)
    assert back.variant == model.variant
    assert np.array_equal(forward(back, _images(1, 16, seed=8)).data, forward(model, _images(1, 16, seed=8)).data)
    # a grid size other than the window gave the grid layers tables of another
    # shape, which this architecture cannot hold
    _edit_manifest(ckpt, lambda m: m.update(variant=_older_layout(m["variant"], grid_size=3)))
    for name, t in named_parameters(model):
        if name.endswith("grid_attn.attn.bias_table"):
            save_tensor(Tensor(np.zeros((t.shape[0], 25), np.float32)), ckpt / f"{name}.tensor")
    with pytest.raises(DataError):
        load_model(ckpt)


def test_with_window_resamples_bias_tables_only():
    model = build_model(MINI, num_classes=2, seed=1)
    moved = with_window(model, 4)
    assert moved.variant.window == 4
    base = dict(named_parameters(model))
    new = dict(named_parameters(moved))
    for name, t in new.items():
        if "bias_table" in name:
            assert t.shape[1] == 49  # (2*4-1)^2
        else:
            assert t.data is base[name].data, name  # shared, not copied
    for m, window in ((model, 2), (moved, 4)):
        layers = [layer for blocks in m.stages for blk in blocks for layer in (blk.block_attn, blk.grid_attn)]
        assert layers and all(layer.attn.window == window for layer in layers)
    # runs at the resolution the new window tiles
    assert forward(moved, _images(1, 32)).shape == (1, 2)


def test_with_window_copy_owns_its_parameters():
    model = build_model(MINI, num_classes=2, seed=1)
    before = named_parameters(model)
    opt = AdamW(with_window(model, 4))
    opt.step([Tensor(np.ones(p.shape, p.dtype)) for p in opt.parameters()])
    for (name, old), (_, now) in zip(before, named_parameters(model)):
        assert now is old, name


def test_with_window_copy_owns_its_running_stats():
    model = build_model(MINI, num_classes=2, seed=1)
    before = [(name, arr.copy()) for name, arr in named_buffers(model)]
    moved = with_window(model, 4)
    forward(moved, _images(2, 32), training=True)
    assert any(not np.array_equal(old, now) for (_, old), (_, now) in zip(before, named_buffers(moved)))
    for (name, old), (_, now) in zip(before, named_buffers(model)):
        assert np.array_equal(old, now), name


def test_toy_variant_geometry():
    # the extent each piece of the schedule reads, then the one the head pools
    extents = validate_geometry(TOY_VARIANT, 112, 112)
    assert len(extents) == len(list(block_pieces(TOY_VARIANT))) + 1 == 10
    assert extents[0] == (56, 56) and extents[1] == extents[3] == (28, 28) and extents[-1] == (7, 7)
    model = build_model(TOY_VARIANT, num_classes=2, seed=0)
    assert forward(model, _images(1, 112)).shape == (1, 2)
