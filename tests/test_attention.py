"""Relative attention: bias indexing, dense oracle equivalence, invariances."""

import numpy as np
import pytest

from maxvit import checks, ops
from maxvit.attention import (
    attention_layer,
    build_bias_index,
    init_attention,
    init_attention_layer,
    interpolate_bias,
    multi_head_attention,
    rel_attention,
)
from maxvit.errors import ConfigError, DimensionError, PartitionError
from maxvit.tensor import Tensor


def _t(a):
    return Tensor(np.asarray(a, dtype=np.float64))


# -- bias index ------------------------------------------------------------------

def bias_index_oracle(p):
    """Direct displacement enumeration over row-major token coordinates."""
    out = np.zeros((p * p, p * p), dtype=np.int64)
    for i in range(p * p):
        for j in range(p * p):
            dr = i // p - j // p
            dc = i % p - j % p
            out[i, j] = (dr + p - 1) * (2 * p - 1) + (dc + p - 1)
    return out


@pytest.mark.parametrize("p", [1, 2, 3, 7])
def test_bias_index_matches_enumeration(p):
    got = build_bias_index(p)
    assert got.shape == (p * p, p * p)
    assert np.array_equal(got, bias_index_oracle(p))


def test_bias_index_golden_window2():
    # displacement table side 3; token coords (0,0),(0,1),(1,0),(1,1)
    want = [[4, 3, 1, 0], [5, 4, 2, 1], [7, 6, 4, 3], [8, 7, 5, 4]]
    assert build_bias_index(2).tolist() == want


def test_bias_index_range_and_symmetry():
    idx = build_bias_index(7)
    assert idx.min() == 0 and idx.max() == 13 * 13 - 1
    assert (np.diag(idx) == (13 * 13 - 1) // 2).all()  # zero displacement at center
    # index(i, j) and index(j, i) are mirror slots
    side = 13
    r, c = idx // side, idx % side
    assert np.array_equal(r + r.T, np.full_like(r, side - 1))
    assert np.array_equal(c + c.T, np.full_like(c, side - 1))


def test_identical_displacements_share_entries():
    idx = build_bias_index(3)
    # tokens (0,0)->(1,1) and (1,1)->(2,2) have the same displacement (-1,-1)
    assert idx[0, 4] == idx[4, 8]


def test_bias_index_is_built_once_and_read_only():
    idx = build_bias_index(7)
    assert build_bias_index(7) is idx
    with pytest.raises(ValueError):
        idx[0, 0] = 1


@pytest.mark.parametrize("entries", [50, 36, 0], ids=["not-square", "even-side", "empty"])
def test_window_is_read_from_the_bias_table(entries):
    p = init_attention(np.random.default_rng(0), channels=8, window=3, head_dim=4)
    assert p.window == 3
    p.bias_table = _t(np.zeros((2, entries)))
    with pytest.raises(DimensionError):
        p.window


# -- single-head relative attention -----------------------------------------------

def dense_attention_oracle(q, k, v, bias):
    d = q.shape[-1]
    logits = q @ k.T / np.sqrt(d) + bias
    logits -= logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=-1, keepdims=True)
    return w @ v


def test_rel_attention_identity_hand_case():
    eye = _t(np.eye(2))
    out = rel_attention(eye, eye, eye, _t(np.zeros((2, 2))))
    np.testing.assert_allclose(out.data, [[0.6698, 0.3302], [0.3302, 0.6698]], atol=5e-5)


def test_rel_attention_matches_dense_oracle():
    rng = np.random.default_rng(0)
    q, k, v = (rng.standard_normal((6, 4)) for _ in range(3))
    bias = rng.standard_normal((6, 6))
    got = rel_attention(_t(q), _t(k), _t(v), _t(bias))
    np.testing.assert_allclose(got.data, dense_attention_oracle(q, k, v, bias), rtol=1e-12)


def test_rel_attention_rows_are_convex_combinations():
    rng = np.random.default_rng(1)
    q, k = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    v = np.ones((5, 3))
    out = rel_attention(_t(q), _t(k), _t(v), _t(np.zeros((5, 5))))
    np.testing.assert_allclose(out.data, 1.0, atol=1e-12)  # weights sum to one


def test_rel_attention_shape_mismatch():
    with pytest.raises(DimensionError):
        rel_attention(_t(np.zeros((4, 2))), _t(np.zeros((5, 2))), _t(np.zeros((4, 2))), _t(np.zeros((4, 4))))


# -- multi-head over windows ---------------------------------------------------------

def test_multi_head_attention_matches_oracle():
    rng = np.random.default_rng(2)
    p = init_attention(rng, channels=8, window=2, head_dim=4, dtype=np.float64)
    p.bias_table = _t(rng.standard_normal(p.bias_table.shape))  # non-trivial bias
    index = build_bias_index(2)
    x = rng.standard_normal((2, 2, 6, 8))  # 3 groups of each kind
    for kind in ("block", "grid"):
        got = multi_head_attention(_t(x), p, index, kind)
        np.testing.assert_allclose(got.data, checks.dense_attention_oracle(x, p, index, kind), rtol=1e-10, atol=1e-12)


def test_multi_head_rejects_wrong_token_count():
    rng = np.random.default_rng(3)
    p = init_attention(rng, channels=8, window=2, head_dim=4)
    with pytest.raises(PartitionError):  # 5 rows do not divide into size-2 groups
        multi_head_attention(Tensor(np.zeros((1, 5, 4, 8), dtype=np.float32)), p, build_bias_index(2), "grid")
    with pytest.raises(DimensionError):  # token form is not an NHWC map
        multi_head_attention(Tensor(np.zeros((1, 4, 8), dtype=np.float32)), p, build_bias_index(2), "block")


def test_init_attention_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        init_attention(np.random.default_rng(0), channels=10, window=2, head_dim=4)


# -- full pre-norm layer ---------------------------------------------------------------

def test_attention_layer_translation_equivariance():
    # cyclic shift by a full window permutes windows; outputs shift identically
    rng = np.random.default_rng(4)
    layer = init_attention_layer(rng, "block", channels=8, window=2, head_dim=4, dtype=np.float64)
    layer.attn.bias_table = _t(rng.standard_normal(layer.attn.bias_table.shape))
    x = rng.standard_normal((1, 4, 6, 8))
    base = attention_layer(_t(x), layer).data
    rolled = attention_layer(_t(np.roll(x, 2, axis=1)), layer).data
    np.testing.assert_allclose(rolled, np.roll(base, 2, axis=1), atol=1e-6)


def test_single_window_permutation_equivariance_zero_bias():
    # with one window and zero bias, token order cannot matter
    rng = np.random.default_rng(5)
    layer = init_attention_layer(rng, "block", channels=8, window=2, head_dim=4, dtype=np.float64)
    x = rng.standard_normal((1, 2, 2, 8))
    flat = x.reshape(4, 8)
    perm = np.array([2, 0, 3, 1])
    permuted = flat[perm].reshape(1, 2, 2, 8)
    base = attention_layer(_t(x), layer).data.reshape(4, 8)
    out_p = attention_layer(_t(permuted), layer).data.reshape(4, 8)
    np.testing.assert_allclose(out_p, base[perm], atol=1e-10)


def test_grid_layer_runs_and_differs_from_block():
    rng = np.random.default_rng(6)
    blk = init_attention_layer(rng, "block", channels=8, window=2, head_dim=4, dtype=np.float64)
    grd = init_attention_layer(np.random.default_rng(6), "grid", channels=8, window=2, head_dim=4, dtype=np.float64)
    x = _t(np.random.default_rng(7).standard_normal((1, 4, 4, 8)))
    yb = attention_layer(x, blk)
    yg = attention_layer(x, grd)
    assert yb.shape == x.shape == yg.shape
    assert not np.allclose(yb.data, yg.data)  # different mixing pattern


def test_attention_layer_gradients():
    from maxvit.gradcheck import GRAD_TOL, grad_check
    from maxvit.model import parameter_slots

    rng = np.random.default_rng(8)
    layer = init_attention_layer(rng, "grid", channels=4, window=2, head_dim=2, dtype=np.float64)
    layer.attn.bias_table = _t(0.1 * rng.standard_normal(layer.attn.bias_table.shape))
    x0 = _t(rng.standard_normal((1, 4, 4, 4)))
    slots = parameter_slots(layer)
    names = [s[0] for s in slots]

    def f(x, *params):
        for (name, holder, key), t in zip(slots, params):
            setattr(holder, key, t)
        return ops.reduce_mean(ops.mul(attention_layer(x, layer), x))

    params = [getattr(holder, key) for _, holder, key in slots]
    assert grad_check(f, [x0] + params) < GRAD_TOL, names


# -- bias interpolation -------------------------------------------------------------------

def bilinear_oracle(img, new_side):
    """Scalar align-corners bilinear resize of one (s, s) table."""
    s = img.shape[0]
    out = np.zeros((new_side, new_side))
    for i in range(new_side):
        for j in range(new_side):
            y = (s - 1) / 2 if new_side == 1 else i * (s - 1) / (new_side - 1)
            x = (s - 1) / 2 if new_side == 1 else j * (s - 1) / (new_side - 1)
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            y1, x1 = min(y0 + 1, s - 1), min(x0 + 1, s - 1)
            fy, fx = y - y0, x - x0
            out[i, j] = (
                img[y0, x0] * (1 - fy) * (1 - fx)
                + img[y1, x0] * fy * (1 - fx)
                + img[y0, x1] * (1 - fy) * fx
                + img[y1, x1] * fy * fx
            )
    return out


@pytest.mark.parametrize("p,p2", [(7, 12), (7, 8), (2, 3), (3, 2), (7, 1)])
def test_interpolate_bias_matches_oracle(p, p2):
    rng = np.random.default_rng(p * 100 + p2)
    heads = 2
    table = _t(rng.standard_normal((heads, (2 * p - 1) ** 2)))
    got = interpolate_bias(table, p2)
    assert got.shape == (heads, (2 * p2 - 1) ** 2)
    for h in range(heads):
        want = bilinear_oracle(table.data[h].reshape(2 * p - 1, 2 * p - 1), 2 * p2 - 1)
        np.testing.assert_allclose(got.data[h].reshape(2 * p2 - 1, 2 * p2 - 1), want, rtol=1e-12)


def test_interpolate_bias_identity_is_bitwise():
    rng = np.random.default_rng(9)
    table = Tensor(rng.standard_normal((3, 169)).astype(np.float32))
    got = interpolate_bias(table, 7)
    assert np.array_equal(got.data, table.data)


def test_interpolate_bias_preserves_corners():
    # corner alignment pins the four extreme displacements exactly
    rng = np.random.default_rng(10)
    table = _t(rng.standard_normal((1, 25)))  # window 3, side 5
    got = interpolate_bias(table, 6).data.reshape(11, 11)
    src = table.data.reshape(5, 5)
    assert got[0, 0] == pytest.approx(src[0, 0], rel=1e-12)
    assert got[0, -1] == pytest.approx(src[0, -1], rel=1e-12)
    assert got[-1, 0] == pytest.approx(src[-1, 0], rel=1e-12)
    assert got[-1, -1] == pytest.approx(src[-1, -1], rel=1e-12)
