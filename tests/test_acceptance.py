"""Acceptance gate: ten verifiable claims, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; each
criterion is also a hard assertion, so plain pytest enforces the gate.
"""

import time

import numpy as np

from maxvit import axes, ops
from maxvit.attention import build_bias_index, init_attention, multi_head_attention
from maxvit.checks import _check_miniature_end_to_end_gradients, check_emd_metric_axioms, dense_attention_oracle
from maxvit.counting import count_model
from maxvit.gradcheck import GRAD_TOL, grad_check, primitive_cases
from maxvit.golden import (
    GOLDEN_MACS,
    GOLDEN_PARAMS,
    MACS_TOLERANCE,
    PARAM_TOLERANCE,
    within,
)
from maxvit import golden as golden_module
from maxvit.tensor import Tensor
from maxvit.train import TOY_LOSS_TARGET, TOY_STEPS, train_toy


def report(num, ok, label):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {num}: {label}"


# -- 1: parameter parity ----------------------------------------------------------------

def test_criterion_01_parameter_parity():
    t0 = time.monotonic()
    deltas = {}
    ok = True
    for name, want in GOLDEN_PARAMS.items():
        got = count_model(name, resolution=224).total_params
        deltas[name] = 100 * (got - want) / want
        ok &= within(got, want, PARAM_TOLERANCE)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    detail = " ".join(f"{k}{v:+.2f}%" for k, v in deltas.items())
    report(1, ok, f"params within +-2% of references ({detail}; {elapsed:.3f}s)")


# -- 2: FLOP parity --------------------------------------------------------------------

def test_criterion_02_flop_parity():
    t0 = time.monotonic()
    targets = [("T", 224), ("T", 384), ("B", 224), ("B", 384), ("L", 224)]
    deltas = {}
    ok = True
    for name, res in targets:
        want = GOLDEN_MACS[(name, res)]
        got = count_model(name, resolution=res).total_macs
        deltas[f"{name}@{res}"] = 100 * (got - want) / want
        ok &= within(got, want, MACS_TOLERANCE)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    detail = " ".join(f"{k}{v:+.2f}%" for k, v in deltas.items())
    report(2, ok, f"MACs within +-5% of references ({detail}; {elapsed:.3f}s)")


# -- 3: partition correctness ------------------------------------------------------------

def test_criterion_03_partition_roundtrips():
    rng = np.random.default_rng(2024)
    ok = True
    for case in range(1000):
        size = int(rng.choice((2, 3, 4, 7)))
        b = int(rng.integers(1, 3))
        h = size * int(rng.integers(1, 5))
        w = size * int(rng.integers(1, 5))
        c = int(rng.integers(1, 4))
        x = Tensor(rng.standard_normal((b, h, w, c)).astype(np.float32))
        if case % 2 == 0:
            back = axes.unblock(axes.block(x, size), h, w, size)
        else:
            back = axes.ungrid(axes.grid(x, size), h, w, size)
        ok &= np.array_equal(back.data, x.data)

    for n, g in ((8, 2), (14, 7), (28, 7), (12, 3)):
        x = Tensor(rng.standard_normal((2, n, n, 3)))
        ok &= np.array_equal(
            axes.grid(x, g).data, ops.transpose(axes.block(x, n // g), (0, 2, 1, 3)).data
        )

    block_expect = [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]]
    grid_expect = [[0, 2, 8, 10], [1, 3, 9, 11], [4, 6, 12, 14], [5, 7, 13, 15]]
    ok &= axes.partition_indices("block", 4, 4, 2).tolist() == block_expect
    ok &= axes.partition_indices("grid", 4, 4, 2).tolist() == grid_expect
    report(3, ok, "1000 partition roundtrips bitwise, grid==transpose(block), 4x4 tables")


# -- 4: attention oracle -----------------------------------------------------------------

def test_criterion_04_attention_oracle():
    rng = np.random.default_rng(77)
    p = init_attention(rng, channels=64, window=7, head_dim=32, dtype=np.float64)
    p.bias_table = Tensor(rng.standard_normal(p.bias_table.shape))
    index = build_bias_index(7)
    x = Tensor(rng.standard_normal((2, 7, 7, 64)))

    got = multi_head_attention(x, p, index, "block").data  # one 7x7 window per image
    want = dense_attention_oracle(x.data, p, index, "block")
    err = np.abs(got - want).max()

    s = ops.softmax_lastdim(Tensor(rng.standard_normal((5, 9, 13)) * 4)).data
    row_err = np.abs(s.sum(axis=-1) - 1.0).max()

    ok = err < 1e-5 and row_err < 1e-6
    report(4, ok, f"block attention == dense reference (max abs {err:.2e}), softmax rows sum to 1 ({row_err:.2e})")


# -- 5: block/grid parity -----------------------------------------------------------------

def test_criterion_05_block_grid_parity():
    count = count_model("T", resolution=224)
    ok = True
    pairs = 0
    for si in range(4):
        b = 0
        while any(l.name.startswith(f"stages.{si}.{b}.") for l in count.layers):
            bp = sum(l.params for l in count.layers if l.name.startswith(f"stages.{si}.{b}.block_attn"))
            bm = sum(l.macs for l in count.layers if l.name.startswith(f"stages.{si}.{b}.block_attn"))
            gp = sum(l.params for l in count.layers if l.name.startswith(f"stages.{si}.{b}.grid_attn"))
            gm = sum(l.macs for l in count.layers if l.name.startswith(f"stages.{si}.{b}.grid_attn"))
            ok &= bp == gp and bm == gm and bp > 0 and bm > 0
            pairs += 1
            b += 1
    ok &= pairs == 11  # T has 2+2+5+2 blocks
    report(5, ok, f"block vs grid attention layers identical params and MACs ({pairs} block pairs, exact integers)")


# -- 6: MAC linearity in area --------------------------------------------------------------

def test_criterion_06_attention_mac_linearity():
    base = count_model("T", resolution=224, window=7)
    dbl = count_model("T", resolution=448, window=7)
    ok = True
    layers = 0
    for a, b in zip(base.layers, dbl.layers):
        ok &= a.name == b.name
        if "block_attn" in a.name or "grid_attn" in a.name:
            ok &= b.macs == 4 * a.macs
            layers += 1
    ok &= layers > 0
    report(6, ok, f"attention MACs exactly 4x at 448 vs 224, fixed P=G=7 ({layers} layer records)")


# -- 7: gradient fidelity -----------------------------------------------------------------

def test_criterion_07_gradient_fidelity():
    t0 = time.monotonic()
    worst = 0.0
    worst_name = ""
    for name, fn, params in primitive_cases(seed=0):
        err = grad_check(fn, params)
        if err > worst:
            worst, worst_name = err, name
    ok = worst < GRAD_TOL
    try:
        _check_miniature_end_to_end_gradients()
    except AssertionError:
        ok = False
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    report(7, ok, f"all primitives + miniature model grad_check < 1e-4 in f64 "
                  f"(worst primitive {worst:.2e} at {worst_name}; {elapsed:.1f}s)")


# -- 8: trainability -----------------------------------------------------------------------

def test_criterion_08_toy_trainability(toy_run):
    r = toy_run.result
    hit = next((i for i, v in enumerate(r.losses) if v < TOY_LOSS_TARGET), None)
    rerun = train_toy(seed=0, steps=2)
    deterministic = rerun.losses == r.losses[:2]
    ok = (
        len(r.losses) == TOY_STEPS
        and hit is not None
        and r.final_loss < TOY_LOSS_TARGET
        and deterministic
        and toy_run.seconds < 600.0
    )
    report(8, ok, f"toy training reaches <{TOY_LOSS_TARGET} at step {hit}, final {r.final_loss:.2e}, "
                  f"deterministic per seed, {toy_run.seconds:.0f}s < 600s")


# -- 9: EMD loss ---------------------------------------------------------------------------

def test_criterion_09_emd_metric():
    hand = ops.emd_loss(Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 1.0])), r=2.0).item()
    ok = abs(hand - np.sqrt(0.5)) < 1e-9

    try:
        check_emd_metric_axioms(seed=99, triples=1000)
    except AssertionError:
        ok = False
    report(9, ok, f"EMD hand case sqrt(1/2) within 1e-9 ({hand:.12f}), metric axioms on 1000 triples")


# -- 10: desk-scale exclusions ---------------------------------------------------------------

def test_criterion_10_desk_scale_exclusions():
    # The published reference table carries sizes only. Accuracy-style results
    # (ImageNet top-1, COCO AP, AVA correlation, GAN FID/IS) need datacenter
    # training runs; nothing in this package claims or checks them, and the
    # property suite above is the substitute evidence of correctness.
    exported = {name for name in vars(golden_module) if name.isupper()}
    ok = exported == {"PARAM_TOLERANCE", "MACS_TOLERANCE", "GOLDEN_PARAMS", "GOLDEN_MACS"}
    for table in (GOLDEN_PARAMS, GOLDEN_MACS):
        for v in table.values():
            ok &= v > 1e6  # sizes, not rates: nothing in [0, 100] that could be a metric
    ok &= "accuracy" not in {k.lower() for k in vars(golden_module)}
    report(10, ok, "accuracy-scale results excluded by design; size parity + property suites substitute")
