"""AdamW against a straight-line numpy reference, plus clipping and decay rules."""

from dataclasses import dataclass

import numpy as np
import pytest

from maxvit.errors import ConfigError, DimensionError
from maxvit.optim import AdamW, AdamWConfig, decay_excluded, global_grad_norm
from maxvit.tensor import Tensor


@dataclass
class Head:
    w: Tensor
    gamma: Tensor


@dataclass
class Net:
    head: Head
    bias_table: Tensor


def make_net(rng):
    return Net(
        head=Head(
            w=Tensor(rng.standard_normal((3, 4))),
            gamma=Tensor(np.ones(4)),
        ),
        bias_table=Tensor(rng.standard_normal((5,))),
    )


def grads_like(params, rng):
    return [Tensor(rng.standard_normal(p.shape)) for p in params]


def reference_adamw(params, grad_seq, cfg, excluded):
    """Independent re-derivation of the update rule, plain numpy."""
    p = [np.array(x, dtype=np.float64) for x in params]
    m = [np.zeros_like(x) for x in p]
    v = [np.zeros_like(x) for x in p]
    for t, grads in enumerate(grad_seq, start=1):
        norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads))
        scale = 1.0
        if cfg.clip_norm is not None and norm > cfg.clip_norm:
            scale = cfg.clip_norm / norm
        for i, g0 in enumerate(grads):
            g = g0 * scale
            m[i] = cfg.beta1 * m[i] + (1 - cfg.beta1) * g
            v[i] = cfg.beta2 * v[i] + (1 - cfg.beta2) * g * g
            mhat = m[i] / (1 - cfg.beta1 ** t)
            vhat = v[i] / (1 - cfg.beta2 ** t)
            new = p[i] - cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)
            if cfg.weight_decay and not excluded[i]:
                new = new - cfg.lr * cfg.weight_decay * p[i]
            p[i] = new
    return p


def test_matches_reference_over_several_steps():
    rng = np.random.default_rng(0)
    net = make_net(rng)
    cfg = AdamWConfig(lr=0.01, weight_decay=0.05, clip_norm=1.0)
    opt = AdamW(net, cfg)
    names = [name for name, _, _ in opt._slots]
    excluded = [decay_excluded(n) for n in names]
    start = [p.data.copy() for p in opt.parameters()]
    grad_seq = [grads_like(opt.parameters(), rng) for _ in range(4)]

    for grads in grad_seq:
        opt.step(grads)

    want = reference_adamw(start, [[g.data for g in gs] for gs in grad_seq], cfg, excluded)
    for got, ref in zip(opt.parameters(), want):
        np.testing.assert_allclose(got.data, ref, rtol=1e-12, atol=1e-12)


def test_first_step_moves_by_lr_signs():
    # fresh moments and unit gradient: bias-corrected ratio is 1, so |delta| = lr
    rng = np.random.default_rng(1)
    net = make_net(rng)
    opt = AdamW(net, AdamWConfig(lr=0.25, clip_norm=None))
    before = [p.data.copy() for p in opt.parameters()]
    opt.step([Tensor(np.ones(p.shape)) for p in opt.parameters()])
    for b, a in zip(before, opt.parameters()):
        np.testing.assert_allclose(b - a.data, 0.25, rtol=1e-6)


def test_zero_grads_apply_only_decay_to_eligible_params():
    rng = np.random.default_rng(2)
    net = make_net(rng)
    cfg = AdamWConfig(lr=0.1, weight_decay=0.5)
    opt = AdamW(net, cfg)
    before = {n: getattr(h, k).data.copy() for n, h, k in opt._slots}
    opt.step([Tensor(np.zeros(p.shape)) for p in opt.parameters()])
    for name, holder, key in opt._slots:
        after = getattr(holder, key).data
        if decay_excluded(name):
            np.testing.assert_array_equal(after, before[name])
        else:
            np.testing.assert_allclose(after, before[name] * (1 - 0.1 * 0.5), rtol=1e-12)


def test_step_returns_preclip_norm_and_clip_is_rescaling():
    rng = np.random.default_rng(3)
    net_a = make_net(rng)
    rng2 = np.random.default_rng(3)
    net_b = make_net(rng2)

    opt_a = AdamW(net_a, AdamWConfig(lr=0.01, clip_norm=1.0))
    opt_b = AdamW(net_b, AdamWConfig(lr=0.01, clip_norm=None))

    grads = [Tensor(np.full(p.shape, 2.0)) for p in opt_a.parameters()]
    norm = global_grad_norm(grads)
    assert norm > 1.0
    assert opt_a.step(grads) == pytest.approx(norm)

    pre_scaled = [Tensor(g.data / norm) for g in grads]
    opt_b.step(pre_scaled)
    for a, b in zip(opt_a.parameters(), opt_b.parameters()):
        np.testing.assert_allclose(a.data, b.data, rtol=1e-12)


def test_decay_excluded_names():
    assert decay_excluded("stages.0.blocks.1.norm1.gamma")
    assert decay_excluded("head.norm.beta")
    assert decay_excluded("stages.2.blocks.0.block_attn.attn.bias_table")
    assert not decay_excluded("head.fc.b")
    assert not decay_excluded("stem.conv1.w")


def test_gradient_misalignment_raises():
    net = make_net(np.random.default_rng(4))
    opt = AdamW(net)
    with pytest.raises(DimensionError):
        opt.step([Tensor(np.zeros(p.shape)) for p in opt.parameters()][:-1])
    bad = [Tensor(np.zeros(p.shape)) for p in opt.parameters()]
    bad[0] = Tensor(np.zeros((1, 1)))
    with pytest.raises(DimensionError):
        opt.step(bad)
    assert opt._t == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        AdamWConfig(lr=-1.0).validate()
    with pytest.raises(ConfigError):
        AdamWConfig(beta1=1.0).validate()
    with pytest.raises(ConfigError):
        AdamWConfig(clip_norm=0.0).validate()
    AdamWConfig().validate()


def test_parameters_are_fresh_tensors_in_stable_order():
    net = make_net(np.random.default_rng(5))
    opt = AdamW(net)
    before = opt.parameters()
    names = [n for n, _, _ in opt._slots]
    opt.step([Tensor(np.ones(p.shape)) for p in opt.parameters()])
    assert names == [n for n, _, _ in opt._slots]
    for old, new in zip(before, opt.parameters()):
        assert new is not old
        assert not np.array_equal(new.data, old.data)
