"""Cross-entropy and earth-mover losses: oracles, hand cases, metric axioms."""

import numpy as np
import pytest

from maxvit import ops
from maxvit.checks import check_cross_entropy_oracle, check_emd_hand_case, check_emd_metric_axioms
from maxvit.errors import DataError, DimensionError
from maxvit.gradcheck import GRAD_TOL, grad_check
from maxvit.tensor import Tensor


def _t(a):
    return Tensor(np.asarray(a, dtype=np.float64))


# -- cross-entropy ----------------------------------------------------------------

def test_cross_entropy_matches_oracle():
    check_cross_entropy_oracle(seed=0, batch=8, classes=5, spread=3.0)


def test_cross_entropy_uniform_logits():
    # all-zero logits over k classes: loss is log(k)
    got = ops.softmax_cross_entropy(_t(np.zeros((4, 10))), np.zeros(4, dtype=np.int64))
    assert got.item() == pytest.approx(np.log(10.0), rel=1e-12)


def test_cross_entropy_perfect_prediction_is_tiny():
    logits = np.full((2, 3), -50.0)
    logits[0, 1] = 50.0
    logits[1, 2] = 50.0
    got = ops.softmax_cross_entropy(_t(logits), np.array([1, 2]))
    assert 0.0 <= got.item() < 1e-12


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(DataError):
        ops.softmax_cross_entropy(_t(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(DataError):
        ops.softmax_cross_entropy(_t(np.zeros((2, 3))), np.array([-1, 0]))
    with pytest.raises(DataError):
        ops.softmax_cross_entropy(_t(np.zeros((2, 3))), np.array([0.5, 1.5]))
    with pytest.raises(DimensionError):
        ops.softmax_cross_entropy(_t(np.zeros((2, 3, 1))), np.array([0, 1]))


def test_cross_entropy_gradient():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.standard_normal((4, 6)))
    labels = rng.integers(0, 6, size=4)
    assert grad_check(lambda lg: ops.softmax_cross_entropy(lg, labels), [logits]) < GRAD_TOL


# -- earth mover distance -----------------------------------------------------------

def emd_oracle(p, q, r):
    cp, cq = np.cumsum(p), np.cumsum(q)
    return (np.mean(np.abs(cp - cq) ** r)) ** (1.0 / r)


def test_emd_hand_case():
    check_emd_hand_case()


def test_emd_matches_oracle_and_r_values():
    rng = np.random.default_rng(2)
    for r in (1.0, 2.0, 3.0):
        p = rng.random(10)
        p /= p.sum()
        q = rng.random(10)
        q /= q.sum()
        got = ops.emd_loss(_t(p), _t(q), r=r)
        assert got.item() == pytest.approx(emd_oracle(p, q, r), rel=1e-12)


def test_emd_batched_averages_leading_axes():
    rng = np.random.default_rng(3)
    p = rng.random((4, 10))
    p /= p.sum(axis=1, keepdims=True)
    q = rng.random((4, 10))
    q /= q.sum(axis=1, keepdims=True)
    got = ops.emd_loss(_t(p), _t(q), r=2.0)
    want = np.mean([emd_oracle(p[i], q[i], 2.0) for i in range(4)])
    assert got.item() == pytest.approx(want, rel=1e-12)


def _simplex(rng, n=10):
    v = rng.random(n) + 1e-9
    return v / v.sum()


def test_emd_metric_axioms_random_triples():
    check_emd_metric_axioms(seed=4, triples=200)


def test_emd_positive_on_distinct_distributions():
    rng = np.random.default_rng(5)
    p, q = _simplex(rng), _simplex(rng)
    assert ops.emd_loss(_t(p), _t(q)).item() > 0.0


def test_emd_respects_bin_distance():
    # moving mass further along the bins costs more
    base = np.zeros(10)
    base[0] = 1.0
    near = np.zeros(10)
    near[1] = 1.0
    far = np.zeros(10)
    far[9] = 1.0
    d_near = ops.emd_loss(_t(base), _t(near)).item()
    d_far = ops.emd_loss(_t(base), _t(far)).item()
    assert d_far > d_near


def test_emd_rejects_bad_args():
    with pytest.raises(DimensionError):
        ops.emd_loss(_t(np.zeros(3)), _t(np.zeros(4)))
    with pytest.raises(DataError):
        ops.emd_loss(_t(np.ones(3) / 3), _t(np.ones(3) / 3), r=0.5)


def test_emd_gradient_including_both_sides():
    rng = np.random.default_rng(6)
    p = Tensor(_simplex(rng))
    q = Tensor(_simplex(rng))
    assert grad_check(lambda a, b: ops.emd_loss(a, b, r=2.0), [p, q]) < GRAD_TOL
