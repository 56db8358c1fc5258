"""Acceptance gate: ten verifiable claims, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; each
criterion is also a hard assertion, so plain pytest enforces the gate.
"""

import time

import numpy as np
import pytest

from maxvit import ops
from maxvit.attention import build_bias_index, init_attention, multi_head_attention
from maxvit.checks import (
    _check_miniature_end_to_end_gradients,
    _static_suites,
    check_attention_macs_quadruple,
    check_block_grid_parity,
    check_emd_hand_case,
    check_emd_metric_axioms,
    check_golden_macs,
    check_golden_params,
    check_grid_is_transposed_block,
    check_partition_index_tables,
    check_partition_roundtrips,
    dense_attention_oracle,
)
from maxvit.gradcheck import GRAD_TOL, grad_check, primitive_cases
from maxvit.golden import GOLDEN_MACS, GOLDEN_PARAMS
from maxvit import golden as golden_module
from maxvit.tensor import Tensor
from maxvit.train import TOY_LOSS_TARGET, TOY_STEPS, train_toy


def report(num, ok, label):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {num}: {label}"


def holds(check, *args, **kwargs):
    """(True, result) when a shared check passes, (False, its message) when it fails."""
    try:
        return True, check(*args, **kwargs)
    except AssertionError as exc:
        return False, str(exc)


def percents(deltas):
    return " ".join(f"{k}{v:+.2f}%" for k, v in deltas.items())


# -- 1: parameter parity ----------------------------------------------------------------

def test_criterion_01_parameter_parity():
    t0 = time.monotonic()
    ok, deltas = holds(check_golden_params)
    elapsed = time.monotonic() - t0
    detail = percents(deltas) if ok else deltas
    report(1, ok and elapsed < 1.0, f"params within +-2% of references ({detail}; {elapsed:.3f}s)")


# -- 2: FLOP parity --------------------------------------------------------------------

def test_criterion_02_flop_parity():
    t0 = time.monotonic()
    ok, deltas = holds(check_golden_macs, [("T", 224), ("T", 384), ("B", 224), ("B", 384), ("L", 224)])
    elapsed = time.monotonic() - t0
    detail = percents(deltas) if ok else deltas
    report(2, ok and elapsed < 1.0, f"MACs within +-5% of references ({detail}; {elapsed:.3f}s)")


# -- 3: partition correctness ------------------------------------------------------------

CRITERION_03_ROUNDTRIPS = dict(seed=2024, cases=1000, sizes=(2, 3, 4, 7), dtype=np.float32)


def test_criterion_03_partition_roundtrips():
    ok = holds(check_partition_roundtrips, **CRITERION_03_ROUNDTRIPS)[0]
    ok &= holds(check_grid_is_transposed_block, seed=2024, pairs=((8, 2), (14, 7), (28, 7), (12, 3)))[0]
    ok &= holds(check_partition_index_tables)[0]
    report(3, ok, "1000 partition roundtrips bitwise, grid==transpose(block), 4x4 tables")


def test_criterion_03_and_the_check_suite_catch_a_skewed_grid(skewed_grid):
    suite_roundtrips = dict(_static_suites()["partition"])["grid_roundtrip_random"]
    for run in (lambda: check_partition_roundtrips(**CRITERION_03_ROUNDTRIPS), suite_roundtrips):
        with pytest.raises(AssertionError, match="grid round trip broke"):
            run()


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
    ok, pairs = holds(check_block_grid_parity, "T")
    ok &= pairs == 11  # T has 2+2+5+2 blocks
    report(5, ok, f"block vs grid attention layers identical params and MACs ({pairs} block pairs, exact integers)")


# -- 6: MAC linearity in area --------------------------------------------------------------

def test_criterion_06_attention_mac_linearity():
    ok, layers = holds(check_attention_macs_quadruple, "T", resolution=224, window=7)
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
    ok = worst < GRAD_TOL and holds(_check_miniature_end_to_end_gradients)[0]
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
    hand_ok, hand = holds(check_emd_hand_case)
    axioms_ok = holds(check_emd_metric_axioms, seed=99, triples=1000)[0]
    detail = f"{hand:.12f}" if hand_ok else hand
    report(9, hand_ok and axioms_ok,
           f"EMD hand case sqrt(1/2) within 1e-12 relative ({detail}), metric axioms on 1000 triples")


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
