"""Parameter/MAC accounting against the published references and closed forms."""

import pytest

from maxvit.checks import check_attention_macs_quadruple, check_block_grid_parity, check_golden_macs, check_golden_params
from maxvit.counting import count_model, count_params
from maxvit.errors import PartitionError
from maxvit.golden import GOLDEN_MACS
from maxvit.model import VARIANTS, StageSpec, VariantSpec, build_model, validate_geometry


@pytest.mark.parametrize("name", ["T", "S", "B", "L", "XL"])
def test_params_within_published_tolerance(name):
    check_golden_params([name])


@pytest.mark.parametrize("name,res", sorted(GOLDEN_MACS))
def test_macs_within_published_tolerance(name, res):
    check_golden_macs([(name, res)])


@pytest.mark.parametrize("name", ["T", "S"])
def test_analytic_count_matches_built_model(name):
    # the walker and the builder must agree scalar-for-scalar
    model = build_model(name, num_classes=1000, seed=0)
    assert count_params(model) == count_model(name, 224).total_params


def test_analytic_count_matches_small_custom_variants():
    for order in [("conv", "block_attn", "grid_attn"), ("block_attn", "grid_attn", "conv")]:
        spec = VariantSpec(
            "x", 8, (StageSpec(2, 8), StageSpec(1, 16)), window=2, head_dim=4, block_order=order
        )
        model = build_model(spec, num_classes=3, seed=0)
        assert count_params(model) == count_model(spec, 16, num_classes=3).total_params


def test_params_are_resolution_independent():
    a = count_model("T", 224).total_params
    b = count_model("T", 448).total_params
    assert a == b


def test_conv_macs_closed_form():
    # lone conv record: kh*kw*cin*cout*hout*wout
    mc = count_model("T", 224)
    stem1 = next(l for l in mc.layers if l.name == "stem.conv1")
    assert stem1.macs == 9 * 3 * 64 * 112 * 112
    assert stem1.params == 9 * 3 * 64


def test_attention_layer_macs_closed_form():
    # 4NC^2 (projections) + 2NLC (two attention matmuls) + 8NC^2 (mlp)
    mc = count_model("T", 224)
    layers = [lc for lc in mc.layers if "stages.0.0.block_attn" in lc.name]
    n, c, window_tokens = 56 * 56, 64, 49
    total = sum(l.macs for l in layers)
    assert total == 12 * n * c * c + 2 * n * window_tokens * c


def test_block_grid_parity_params_and_macs():
    # per-layer records of the two attention paths must match exactly
    for name in VARIANTS:
        check_block_grid_parity(name)


def test_attention_macs_quadruple_when_resolution_doubles():
    # fixed window 7: 224 and 448 are both valid; every attention record x4
    records = check_attention_macs_quadruple("T", resolution=224, window=7)
    assert records == 11 * 2 * 11  # 11 blocks, a block and a grid layer each, 11 records per layer


def test_total_macs_scale_subquadratically():
    # global attention would be x16 in the attention matmuls; linear layers x4
    a = count_model("T", 224, window=7).total_macs
    b = count_model("T", 448, window=7).total_macs
    assert 3.9 < b / a < 4.1


def _rejects(call) -> bool:
    try:
        call()
    except PartitionError:
        return True
    return False


def test_count_raises_exactly_where_the_geometry_check_does():
    # 100 -> 50 -> 25: stage 0's downsample reads an odd extent, so forward raises
    with pytest.raises(PartitionError):
        count_model("T", 100)
    spec = VARIANTS["T"]
    for res in range(32, 452, 4):
        assert _rejects(lambda: count_model(spec, res, window=7)) == _rejects(
            lambda: validate_geometry(spec, res, res)
        ), res


def test_stage_totals_partition_the_model():
    mc = count_model("S", 224)
    totals = mc.stage_totals()
    assert set(totals) == {"stem", "stage0", "stage1", "stage2", "stage3", "head"}
    assert sum(p for p, _ in totals.values()) == mc.total_params
    assert sum(m for _, m in totals.values()) == mc.total_macs


def test_macs_are_integers():
    mc = count_model("B", 384, window=12)
    assert all(isinstance(l.macs, int) and isinstance(l.params, int) for l in mc.layers)
    assert isinstance(mc.total_macs, int)


def test_bias_table_grows_with_window_but_little():
    p7 = count_model("T", 224, window=7).total_params
    p12 = count_model("T", 384, window=12).total_params
    assert p12 > p7
    assert (p12 - p7) / p7 < 0.005  # bias tables are a rounding error vs the model
