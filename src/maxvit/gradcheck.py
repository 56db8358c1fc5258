"""Central-difference verification of tape gradients.

`grad_check` compares reverse-mode gradients against (f(x+h) - f(x-h)) / 2h
for every scalar entry of every input, in 64-bit, and reports the worst
relative error. The pass threshold used across the test suite is 1e-4.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError
from .ops import _finite_real
from .tape import GradTape
from .tensor import Tensor

__all__ = ["grad_check", "GRAD_TOL"]

GRAD_TOL = 1e-4


def _eval_scalar(f: Callable[..., Tensor], params: Sequence[Tensor]) -> float:
    out = f(*params)
    val = float(out.data.reshape(()))
    if not np.isfinite(val):
        raise NumericError("grad_check: function value is not finite")
    return val


def grad_check(
    f: Callable[..., Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between tape and central-difference gradients.

    f must map the given tensors to a scalar Tensor and be side-effect free;
    it is re-evaluated 2 * total_entries times. All inputs are promoted to
    f64 first, so callers can hand in f32 parameters directly.
    """
    if not (_finite_real(eps) and 1e-6 <= eps <= 1e-4):
        raise NumericError(f"grad_check: eps {eps!r} outside supported range [1e-6, 1e-4]")
    params64 = [p.astype(np.float64) for p in params]
    with GradTape() as tape:
        out = f(*params64)
        if not np.isfinite(float(out.data.reshape(()))):
            raise NumericError("grad_check: function value is not finite")
        analytic = tape.gradient(out, params64)

    worst = 0.0
    for pi, base in enumerate(params64):
        flat = base.data.ravel()
        for j in range(flat.size):
            bumped = flat.copy()
            bumped[j] += eps
            plus = _eval_scalar(f, _swap(params64, pi, Tensor(bumped.reshape(base.shape))))
            bumped[j] -= 2 * eps
            minus = _eval_scalar(f, _swap(params64, pi, Tensor(bumped.reshape(base.shape))))
            fd = (plus - minus) / (2 * eps)
            an = float(analytic[pi].data.ravel()[j])
            err = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            if err > worst:
                worst = err
    return worst


def _swap(params: list[Tensor], i: int, replacement: Tensor) -> list[Tensor]:
    out = list(params)
    out[i] = replacement
    return out


def primitive_cases(seed: int = 0):
    """Standard battery: (name, scalar_fn, params) for every primitive op.

    Each fn reduces through reduce_mean/reduce_sum so the final value is
    scalar; shapes are small because central differences cost two forward
    evaluations per parameter entry.
    """
    from . import ops

    rng = np.random.default_rng(seed)

    def t(*shape):
        return Tensor(rng.standard_normal(shape))

    def mean(x):
        return ops.reduce_mean(x)

    labels = np.array([1, 0, 2])
    probs = rng.random((2, 6)) + 0.1
    probs /= probs.sum(axis=1, keepdims=True)
    probs2 = rng.random((2, 6)) + 0.1
    probs2 /= probs2.sum(axis=1, keepdims=True)
    bias_idx = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])

    cases = [
        ("add", lambda a, b: mean(ops.add(a, b)), [t(3, 4), t(3, 4)]),
        ("add_broadcast", lambda a, b: mean(ops.add(a, b)), [t(2, 3, 4), t(4)]),
        ("mul", lambda a, b: mean(ops.mul(a, b)), [t(2, 5), t(2, 5)]),
        ("mul_broadcast", lambda a, b: mean(ops.mul(a, b)), [t(2, 3, 5), t(3, 1)]),
        ("scale", lambda x: mean(ops.scale(x, 1.7)), [t(4, 4)]),
        ("matmul", lambda a, b: mean(ops.matmul(a, b)), [t(3, 4), t(4, 2)]),
        ("matmul_batched", lambda a, b: mean(ops.matmul(a, b)), [t(2, 3, 4), t(2, 4, 2)]),
        ("reshape", lambda x: mean(ops.reshape(x, (6, 2))), [t(3, 4)]),
        ("transpose", lambda x: mean(ops.mul(ops.transpose(x, (2, 0, 1)), ops.transpose(x, (2, 0, 1)))), [t(2, 3, 4)]),
        ("reduce_sum", lambda x: ops.reduce_sum(ops.mul(x, x)), [t(3, 4)]),
        ("reduce_mean_axes", lambda x: ops.reduce_mean(ops.reduce_mean(ops.mul(x, x), axes=(1,))), [t(3, 4)]),
        ("gelu", lambda x: mean(ops.gelu(x)), [t(4, 5)]),
        ("gelu_bias", lambda x, b: mean(ops.mul(ops.gelu(x, b), x)), [t(3, 5), t(5)]),
        ("silu", lambda x: mean(ops.silu(x)), [t(4, 5)]),
        ("sigmoid", lambda x: mean(ops.sigmoid(x)), [t(4, 5)]),
        ("softmax_lastdim", lambda x: mean(ops.mul(ops.softmax_lastdim(x), x)), [t(3, 6)]),
        ("layer_norm", lambda x, g, b: mean(ops.mul(ops.layer_norm(x, g, b), x)), [t(3, 4, 6), t(6), t(6)]),
        (
            "batch_norm_train",
            lambda x, g, b: mean(ops.mul(ops.batch_norm_train(x, g, b)[0], x)),
            [t(2, 3, 3, 4), t(4), t(4)],
        ),
        (
            "batch_norm_inference",
            lambda x, g, b: mean(ops.mul(ops.batch_norm_inference(x, g, b, _FROZEN_MEAN, _FROZEN_VAR), x)),
            [t(2, 3, 3, 4), t(4), t(4)],
        ),
        (
            "batch_norm_train_gelu",
            lambda x, g, b: mean(ops.mul(ops.batch_norm_train(x, g, b, gelu=True)[0], x)),
            [t(2, 3, 3, 4), t(4), t(4)],
        ),
        (
            "batch_norm_inference_gelu",
            lambda x, g, b: mean(ops.mul(ops.batch_norm_inference(x, g, b, _FROZEN_MEAN, _FROZEN_VAR, gelu=True), x)),
            [t(2, 3, 3, 4), t(4), t(4)],
        ),
        ("conv2d_3x3", lambda x, w, b: mean(ops.conv2d(x, w, b)), [t(2, 5, 5, 2), t(3, 3, 2, 3), t(3)]),
        ("conv2d_1x1", lambda x, w: mean(ops.mul(ops.conv2d(x, w), ops.conv2d(x, w))), [t(2, 4, 4, 3), t(1, 1, 3, 2)]),
        ("conv2d_stride2", lambda x, w: mean(ops.conv2d(x, w, stride=2)), [t(1, 6, 6, 2), t(3, 3, 2, 2)]),
        ("depthwise_conv2d", lambda x, w: mean(ops.depthwise_conv2d(x, w, stride=2)), [t(2, 6, 6, 3), t(3, 3, 3)]),
        ("avg_pool2d", lambda x: mean(ops.mul(ops.avg_pool2d(x, 2), ops.avg_pool2d(x, 2))), [t(2, 4, 4, 3)]),
        ("gather_rows", lambda tb: mean(ops.mul(ops.gather_rows(tb, bias_idx), ops.gather_rows(tb, bias_idx))), [t(2, 3)]),
        ("softmax_cross_entropy", lambda lg: ops.softmax_cross_entropy(lg, labels), [t(3, 5)]),
        (
            "emd_loss",
            lambda p, q: ops.emd_loss(p, q, r=2.0),
            [Tensor(probs), Tensor(probs2)],
        ),
    ]
    return cases


_FROZEN_MEAN = np.random.default_rng(99).standard_normal(4)
_FROZEN_VAR = np.random.default_rng(100).random(4) + 0.5
