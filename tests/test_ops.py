"""Forward-value oracles for the primitive ops.

Oracles are deliberately naive (triple loops, scalar math) and independent of
the vectorized implementations they check. Gradient coverage lives in
test_gradcheck.py; the conv tests also check their VJP against central
differences of the loop oracle.
"""

import math

import numpy as np
import pytest
from scipy.special import erf

from maxvit import axes, nn, ops
from maxvit import tape as tape_module
from maxvit.attention import build_bias_index, interpolate_bias, rel_attention
from maxvit.checks import GELU_F32_BOUND, _check_gelu_f32_matches_exact
from maxvit.counting import count_model
from maxvit.checks import MINIATURE
from maxvit.model import VARIANTS, build_model, forward, validate_geometry
from maxvit.errors import ConfigError, DataError, DimensionError, PartitionError
from maxvit.tape import GradTape, record
from maxvit.tensor import Tensor, tensor


def _t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def _sweep(output=None, params=None):
    """tape.gradient of sum(w * w), with `output` or `params` swapped in when given."""
    w = _t64([1.0, 2.0])
    with GradTape() as tape:
        y = ops.reduce_sum(ops.mul(w, w))
    return tape.gradient(y if output is None else output, [w] if params is None else params)


def _record(out, inputs):
    with GradTape():
        record(out, inputs, lambda g: (g,))


# -- matmul ---------------------------------------------------------------------

def matmul_oracle(a, b):
    """Triple-loop batched matrix product."""
    a, b = np.asarray(a), np.asarray(b)
    batch = a.shape[:-2]
    out = np.zeros(batch + (a.shape[-2], b.shape[-1]))
    for idx in np.ndindex(*batch) if batch else [()]:
        for i in range(a.shape[-2]):
            for j in range(b.shape[-1]):
                acc = 0.0
                for k in range(a.shape[-1]):
                    acc += a[idx + (i, k)] * b[idx + (k, j)]
                out[idx + (i, j)] = acc
    return out


def test_matmul_hand_case():
    a = _t64([[1.0, 2.0], [3.0, 4.0]])
    b = _t64([[5.0], [6.0]])
    assert ops.matmul(a, b).tolist() == [[17.0], [39.0]]


def test_matmul_identity():
    eye = _t64(np.eye(2))
    assert ops.matmul(eye, eye).tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_matmul_batched_against_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 4, 5))
    got = ops.matmul(_t64(a), _t64(b))
    assert got.shape == (2, 3, 5)
    np.testing.assert_allclose(got.data, matmul_oracle(a, b), rtol=1e-12)


def test_matmul_rejects_inner_mismatch():
    with pytest.raises(DimensionError) as e:
        ops.matmul(_t64(np.zeros((2, 3))), _t64(np.zeros((4, 2))))
    # the message must name both shapes
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


def test_matmul_rejects_batch_broadcast():
    with pytest.raises(DimensionError):
        ops.matmul(_t64(np.zeros((2, 3, 4))), _t64(np.zeros((4, 5))))
    with pytest.raises(DimensionError):
        ops.matmul(_t64(np.zeros((2, 3, 4))), _t64(np.zeros((1, 4, 5))))


def test_mixed_dtypes_rejected():
    with pytest.raises(DataError):
        ops.add(tensor([1.0]), _t64([1.0]))


# -- softmax ----------------------------------------------------------------------

def softmax_oracle(row):
    e = [np.exp(v) for v in row]
    s = sum(e)
    return [v / s for v in e]


def test_softmax_hand_case():
    got = ops.softmax_lastdim(_t64([1.0, 2.0]))
    np.testing.assert_allclose(got.data, [0.26894, 0.73106], atol=5e-6)


def test_softmax_rows_sum_to_one_and_match_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 5, 6))
    y = ops.softmax_lastdim(_t64(x))
    np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)
    for i in range(4):
        for j in range(5):
            np.testing.assert_allclose(y.data[i, j], softmax_oracle(x[i, j]), rtol=1e-12)


def test_softmax_invariant_under_row_shift():
    x = np.array([[1.0, 2.0, 3.0]])
    a = ops.softmax_lastdim(_t64(x))
    b = ops.softmax_lastdim(_t64(x + 1000.0))
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_softmax_extreme_inputs_stay_finite():
    y = ops.softmax_lastdim(_t64([[1e30, -1e30, 0.0]]))
    assert np.isfinite(y.data).all()
    np.testing.assert_allclose(y.data.sum(), 1.0)


# -- elementwise / reductions ------------------------------------------------------

def test_add_broadcasts():
    a = _t64(np.ones((2, 1, 3)))
    b = _t64(np.arange(3, dtype=np.float64))
    assert ops.add(a, b).shape == (2, 1, 3)
    np.testing.assert_allclose(ops.add(a, b).data[0, 0], [1.0, 2.0, 3.0])


def test_reductions():
    x = _t64([[1.0, 2.0], [3.0, 4.0]])
    assert ops.reduce_sum(x).item() == 10.0
    assert ops.reduce_mean(x).item() == 2.5
    assert ops.reduce_mean(x, axes=(0,)).tolist() == [2.0, 3.0]
    assert ops.reduce_sum(x, axes=(1,), keepdims=True).tolist() == [[3.0], [7.0]]
    assert ops.reduce_sum(x, axes=-1).tolist() == [3.0, 7.0]


@pytest.mark.parametrize("op", [ops.reduce_sum, ops.reduce_mean], ids=["sum", "mean"])
@pytest.mark.parametrize("axes", [5, 2, -3, (1, 2)], ids=["5", "2", "-3", "1,2"])
def test_reduction_axes_out_of_range_rejected(op, axes):
    with pytest.raises(DimensionError):
        op(_t64(np.ones((2, 3))), axes=axes)


# -- transpose ---------------------------------------------------------------------

def test_transpose_forward_and_inverse_permutation_backward():
    rng = np.random.default_rng(11)
    x = _t64(rng.standard_normal((2, 3, 4, 5)))
    c = rng.standard_normal((4, 2, 5, 3))  # cotangent in the output layout
    with GradTape() as tape:
        y = ops.transpose(x, (2, 0, 3, 1))
        loss = ops.reduce_sum(ops.mul(y, _t64(c)))
    (g,) = tape.gradient(loss, [x])
    assert y.data.flags.c_contiguous
    for i, j, k, l in np.ndindex(2, 3, 4, 5):
        assert y.data[k, i, l, j] == x.data[i, j, k, l] and g.data[i, j, k, l] == c[k, i, l, j]


def test_transpose_keeps_rank_zero():
    x = _t64(2.5)
    with GradTape() as tape:
        y = ops.transpose(x, ())
    (g,) = tape.gradient(y, [x])
    assert y.shape == g.shape == () and y.item() == 2.5 and g.item() == 1.0


@pytest.mark.parametrize(
    "perm", [(0, 1), (0, 1, 2, 3), (0, 1, 1), (0, 1, 3), (-1, 0, 1), (0, 1.0, 2), ("0", 1, 2)],
    ids=["short", "long", "repeated", "out-of-range", "negative", "float", "str"],
)
def test_transpose_rejects_non_permutation(perm):
    with pytest.raises(DimensionError):
        ops.transpose(_t64(np.ones((2, 3, 4))), perm)


def test_gelu_matches_scalar_definition():
    import math

    xs = np.linspace(-4, 4, 41)
    got = ops.gelu(_t64(xs))
    want = [x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in xs]
    np.testing.assert_allclose(got.data, want, rtol=1e-15, atol=1e-15)


def test_gelu_known_points():
    got = ops.gelu(_t64([0.0, 1.0, -1.0]))
    np.testing.assert_allclose(got.data, [0.0, 0.841345, -0.158655], atol=1e-6)


def test_gelu_f64_is_the_exact_erf_form_bitwise():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.standard_normal(5000) * 4, [0.0, -0.0, 1e-300, -40.0, 40.0]])
    # the exact form as ops has always evaluated it; x / sqrt(2) would differ from x * (1 / sqrt(2)) in the last bit
    want = x * (0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0)))))
    got = ops.gelu(_t64(x)).data
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


_BLOCK = ops._GELU_BLOCK
_GELU_SHAPES = [(), (0,), (3, 0, 2), (_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,), (2, 3, _BLOCK - 1)]
_GELU_IDS = ["0d", "empty", "empty-3d", "block-1", "block", "block+1", "2x3x(block-1)"]


@pytest.mark.parametrize(
    "shape,dtype",
    [(s, np.float32) for s in _GELU_SHAPES] + [(s, np.float64) for s in _GELU_SHAPES],
    ids=_GELU_IDS + [f"{i}-f64" for i in _GELU_IDS],
)
def test_gelu_f32_dtype_shape_and_values(shape, dtype):
    """Both dtypes at the block edges: values within the f32 bound of the exact form
    (f64 is the exact form), the same bits without a tape, and a gradient bitwise
    equal to the unblocked formula over Phi = output / x (1/2 where |x| < tiny)."""
    rng = np.random.default_rng(12)
    x = Tensor(np.asarray(rng.standard_normal(shape) * 4, dtype))
    w = Tensor(np.asarray(rng.standard_normal(shape), dtype))
    with GradTape() as tape:
        y = ops.gelu(x)
        loss = ops.reduce_sum(ops.mul(y, w))
    (g,) = tape.gradient(loss, [x])
    assert y.dtype == g.dtype == dtype
    assert y.shape == g.shape == shape
    assert np.array_equal(ops.gelu(x).data, y.data)
    x64 = x.data.astype(np.float64)
    exact = ops.gelu(Tensor(x64)).data
    assert (np.abs(y.data - exact) <= GELU_F32_BOUND * np.maximum(1.0, np.abs(x64))).all()
    cdf = _cdf_of_output(y.data, x.data)
    want = w.data * (cdf + x.data * (np.exp(-0.5 * x.data**2) * (1.0 / math.sqrt(2.0 * math.pi))))
    assert np.array_equal(g.data, want)


def _cdf_of_output(out, y):
    """Phi(y) read back from a GELU output out = y * Phi(y), unblocked."""
    with np.errstate(invalid="ignore"):
        return np.where(np.abs(y) < np.finfo(y.dtype).tiny, y.dtype.type(0.5), out / y)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_gelu_backward_takes_phi_one_half_at_zero_and_subnormal_y(dtype):
    """Where |y| < tiny, out / y would be 0/0 or a rounded subnormal quotient (0.571
    at y = 1e-44 in f32); the backward takes Phi = 1/2 there, so dx = g / 2 exactly."""
    tiny = np.finfo(dtype).tiny
    sub = np.float32(1e-44) if dtype == np.float32 else 5e-324
    x = Tensor(np.array([0.0, -0.0, sub, -sub, tiny / 3, -tiny / 2, tiny], dtype))
    w = Tensor(np.linspace(1.0, 2.0, 7).astype(dtype))
    for bias in (None, Tensor(np.zeros(7, dtype))):
        params = [x] if bias is None else [x, bias]
        with GradTape() as tape:
            loss = ops.reduce_sum(ops.mul(ops.gelu(*params), w))
        gx = tape.gradient(loss, params)[0].data
        assert gx.dtype == dtype and np.array_equal(gx, w.data * dtype(0.5))


def test_gelu_f32_matches_exact_property():
    _check_gelu_f32_matches_exact()


def test_sigmoid_silu():
    np.testing.assert_allclose(ops.sigmoid(_t64([0.0])).data, [0.5])
    np.testing.assert_allclose(ops.silu(_t64([0.0])).data, [0.0])
    big = ops.sigmoid(_t64([1000.0, -1000.0]))
    np.testing.assert_allclose(big.data, [1.0, 0.0], atol=1e-12)


# -- layer/batch norm ---------------------------------------------------------------

def test_layer_norm_zero_mean_unit_var():
    rng = np.random.default_rng(5)
    x = _t64(rng.standard_normal((3, 4, 8)))
    gamma = _t64(np.ones(8))
    beta = _t64(np.zeros(8))
    y = ops.layer_norm(x, gamma, beta).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)  # eps-induced slack


def test_layer_norm_affine():
    x = _t64(np.random.default_rng(6).standard_normal((2, 8)))
    gamma = _t64(np.full(8, 2.0))
    beta = _t64(np.full(8, 1.0))
    base = ops.layer_norm(x, _t64(np.ones(8)), _t64(np.zeros(8))).data
    y = ops.layer_norm(x, gamma, beta).data
    np.testing.assert_allclose(y, base * 2.0 + 1.0, rtol=1e-12)


@pytest.mark.parametrize("which", ["gamma", "beta"])
def test_layer_norm_rejects_mixed_dtype_affines(which):
    x = Tensor(np.ones((2, 4), np.float32))
    affines = {"gamma": Tensor(np.ones(4, np.float32)), "beta": Tensor(np.zeros(4, np.float32))}
    affines[which] = Tensor(affines[which].data.astype(np.float64))
    with pytest.raises(DataError):
        ops.layer_norm(x, **affines)


def _layer_norm_stored_xhat(x, gamma, beta, g, eps=1e-5):
    """Layer norm with a stored xhat: (out, dx, dgamma, dbeta) for cotangent g.

    Its reductions are the op's: row means as rows @ (1/C), column sums as
    ones @ rows."""
    c = x.shape[-1]
    rows, g = x.reshape(-1, c), g.reshape(-1, c)
    w, ones = np.full(c, 1.0 / c, x.dtype), np.ones(len(rows), x.dtype)
    mean = (rows @ w)[:, None]
    var = (np.square(rows - mean) @ w)[:, None]
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (rows - mean) * inv
    gx = g * gamma
    m1 = (gx @ w)[:, None]
    m2 = ((gx * xhat) @ w)[:, None]
    dx = (gx - m1 - xhat * m2) * inv
    return (xhat * gamma + beta).reshape(x.shape), dx.reshape(x.shape), ones @ (g * xhat), ones @ g


def _batch_norm_stored_xhat(x, gamma, beta, g, eps=1e-5):
    """Batch norm with a stored xhat: (out, dx, dgamma, dbeta) for cotangent g.

    Its sums are the op's: einsums, but ones @ rows for dbeta."""
    n = x.shape[0] * x.shape[1] * x.shape[2]
    ones = np.ones(n, x.dtype)
    mean = np.einsum("abcz->z", x) / n
    xhat = x - mean
    var = np.einsum("abcz,abcz->z", xhat, xhat) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    y = xhat * gamma
    y += beta
    sg, sgx = ones @ g.reshape(n, -1), np.einsum("abcz,abcz->z", g, xhat)
    dx = xhat * (-sgx / n)
    dx += g
    dx -= sg / n
    dx *= gamma * inv
    return y, dx, sgx, sg


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("c", [16, 64])
@pytest.mark.parametrize("op", ["layer_norm", "batch_norm_train"])
def test_norm_rebuilt_xhat_is_the_same_bits_as_stored(op, c, dtype):
    """The backward rebuilds xhat from x and the stats; output and gradients match a stored xhat bitwise."""
    rng = np.random.default_rng(c)
    shape = (4, 6, 6, c) if op == "batch_norm_train" else (2, 5, 7, c)
    arrays = (rng.standard_normal(shape) * 3.0 + 1.0, rng.standard_normal(c) + 1.0, rng.standard_normal(c),
              rng.standard_normal(shape))
    x, gamma, beta, w = (Tensor(a.astype(dtype)) for a in arrays)
    with GradTape() as tape:
        y = getattr(ops, op)(x, gamma, beta)
        y = y[0] if op == "batch_norm_train" else y
        loss = ops.reduce_sum(ops.mul(y, w))  # y's cotangent is exactly w
    got = [y.data] + [t.data for t in tape.gradient(loss, [x, gamma, beta])]
    reference = _batch_norm_stored_xhat if op == "batch_norm_train" else _layer_norm_stored_xhat
    want = reference(x.data, gamma.data, beta.data, w.data)
    for name, a, b in zip(("out", "dx", "dgamma", "dbeta"), got, want):
        assert a.dtype == b.dtype == dtype, name
        assert np.array_equal(a, b), name


def _batch_norm_train_reference(x, gamma, beta, g, eps=1e-5):
    """The unfolded batch norm: (out, mean, var, dx, dgamma, dbeta) for cotangent g."""
    red = (0, 1, 2)
    mean = x.mean(axis=red)
    var = x.var(axis=red)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    gx = g * gamma
    m1 = gx.mean(axis=red)
    m2 = (gx * xhat).mean(axis=red)
    dx = (gx - m1 - xhat * m2) * inv
    return xhat * gamma + beta, mean, var, dx, (g * xhat).sum(axis=red), g.sum(axis=red)


def test_batch_norm_train_stats():
    rng = np.random.default_rng(8)
    x = _t64(rng.standard_normal((4, 3, 3, 5)) * 3.0 + 1.0)
    y, mean, var = ops.batch_norm_train(x, _t64(np.ones(5)), _t64(np.zeros(5)))
    np.testing.assert_allclose(mean, x.data.mean(axis=(0, 1, 2)))
    np.testing.assert_allclose(var, x.data.var(axis=(0, 1, 2)))
    np.testing.assert_allclose(y.data.mean(axis=(0, 1, 2)), 0.0, atol=1e-12)
    for c in (16, 64):
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            arrays = [
                rng.standard_normal((4, 6, 6, c)) * 3.0 + 1.0,
                rng.standard_normal(c) + 1.0,
                rng.standard_normal(c),
                rng.standard_normal((4, 6, 6, c)),
            ]
            xa, gamma, beta, w = (Tensor(a.astype(dtype)) for a in arrays)
            with GradTape() as tape:
                y, mean, var = ops.batch_norm_train(xa, gamma, beta)
                loss = ops.reduce_sum(ops.mul(y, w))
            got = [y.data, mean, var] + [t.data for t in tape.gradient(loss, [xa, gamma, beta])]
            want = _batch_norm_train_reference(xa.data, gamma.data, beta.data, w.data)
            for name, a, b in zip(("out", "mean", "var", "dx", "dgamma", "dbeta"), got, want):
                assert a.dtype == dtype, (c, name)
                np.testing.assert_allclose(a, b, rtol=tol, atol=tol * np.abs(b).max(), err_msg=f"C={c} {name}")


_BN_C = 4


def _bn_call(op, **bad):
    """Call a batch-norm op on f32 NHWC input with the given per-channel arguments replaced."""
    kw = dict(
        x=Tensor(np.zeros((2, 3, 3, _BN_C), np.float32)),
        gamma=Tensor(np.ones(_BN_C, np.float32)),
        beta=Tensor(np.zeros(_BN_C, np.float32)),
        running_mean=np.zeros(_BN_C, np.float32),
        running_var=np.ones(_BN_C, np.float32),
    )
    kw.update(bad)
    if op == "train":
        return ops.batch_norm_train(kw["x"], kw["gamma"], kw["beta"])
    return ops.batch_norm_inference(**kw)


@pytest.mark.parametrize(
    "op,bad,error",
    [
        ("inference", {"gamma": Tensor(np.ones(_BN_C + 1, np.float32))}, DimensionError),
        ("inference", {"beta": Tensor(np.zeros(_BN_C + 1, np.float32))}, DimensionError),
        ("inference", {"running_mean": np.zeros(1, np.float32)}, DimensionError),
        ("inference", {"running_var": np.ones(_BN_C + 1, np.float32)}, DimensionError),
        ("inference", {"gamma": Tensor(np.ones(_BN_C))}, DataError),
        ("inference", {"running_mean": np.zeros(_BN_C), "running_var": np.ones(_BN_C)}, DataError),
        ("inference", {"running_mean": [0.0] * _BN_C}, DataError),
        ("train", {"gamma": Tensor(np.ones(_BN_C))}, DataError),
        ("train", {"beta": Tensor(np.zeros(_BN_C))}, DataError),
    ],
    ids=[
        "inference-gamma-C+1", "inference-beta-C+1", "inference-mean-1", "inference-var-C+1",
        "inference-f64-gamma", "inference-f64-stats", "inference-list-mean", "train-f64-gamma", "train-f64-beta",
    ],
)
def test_batch_norm_rejects_misshaped_or_mixed_dtype_params(op, bad, error):
    with pytest.raises(error):
        _bn_call(op, **bad)


def _frozen_stats(x):
    rng = np.random.default_rng(31)
    c = x.shape[-1]
    return (rng.standard_normal(c) * 0.5).astype(x.dtype), (rng.random(c) + 0.5).astype(x.dtype)


# form -> (separate ops, fused op), each (x, gamma, beta) -> Tensor
_FUSED_FORMS = {
    "train": (
        lambda x, g, b: ops.gelu(ops.batch_norm_train(x, g, b)[0]),
        lambda x, g, b: ops.batch_norm_train(x, g, b, gelu=True)[0],
    ),
    "inference": (
        lambda x, g, b: ops.gelu(ops.batch_norm_inference(x, g, b, *_frozen_stats(x))),
        lambda x, g, b: ops.batch_norm_inference(x, g, b, *_frozen_stats(x), gelu=True),
    ),
    "bias": (lambda x, g, b: ops.gelu(ops.add(x, b)), lambda x, g, b: ops.gelu(x, b)),
}


# (rows, C) over several GELU blocks with a partial last one, and one block
@pytest.mark.parametrize("shape", [(3, 25, 29, 48), (2, 3, 3, 5)], ids=["blocks", "small"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("form", list(_FUSED_FORMS))
def test_fused_gelu_matches_the_separate_ops(form, dtype, shape):
    """The fused pass has the bits of the separate norm or bias and GELU, taped or
    not, and gradients equal to theirs to rounding (the fused sums run per block)."""
    rng = np.random.default_rng(30)
    c = shape[-1]
    x = Tensor((rng.standard_normal(shape) * 2.0 + 0.5).astype(dtype))
    gamma, beta = (Tensor((rng.standard_normal(c) + k).astype(dtype)) for k in (1.0, 0.0))
    w = Tensor(rng.standard_normal(shape).astype(dtype))
    params = [x, gamma, beta] if form != "bias" else [x, beta]
    results = []
    for run in _FUSED_FORMS[form]:
        with GradTape() as tape:
            y = run(x, gamma, beta)
            loss = ops.reduce_sum(ops.mul(y, w))
        results.append((y.data, [t.data for t in tape.gradient(loss, params)]))
    (y_sep, g_sep), (y_fused, g_fused) = results
    assert y_fused.dtype == dtype and np.array_equal(y_fused, y_sep)
    # without a tape, the output is the same bits
    assert np.array_equal(_FUSED_FORMS[form][1](x, gamma, beta).data, y_sep)
    tol = 5e-6 if dtype == np.float32 else 1e-13
    for a, b in zip(g_fused, g_sep):
        assert a.dtype == dtype and a.shape == b.shape
        assert np.linalg.norm(a - b) <= tol * np.linalg.norm(b)


@pytest.mark.parametrize("c", [16, 64, 128])
@pytest.mark.parametrize("form", ["plain", *_FUSED_FORMS])
def test_gelu_backward_rebuilds_the_forwards_phi_bits(form, c, monkeypatch):
    """The backward rebuilds the forward's y, block for block and bit for bit, for
    every f32 GELU entry, and takes Phi as the forward's output over that y.
    3 * 29 * 31 rows leave the last block part full at every C, and the plain
    form's odd length leaves a tail shorter than a SIMD vector."""
    rng = np.random.default_rng(33)
    x = Tensor((rng.standard_normal((3, 29, 31, c)) * 3.0).astype(np.float32))
    gamma, beta = (Tensor((rng.standard_normal(c) + k).astype(np.float32)) for k in (1.0, 0.0))
    run = (lambda x, g, b: ops.gelu(x)) if form == "plain" else _FUSED_FORMS[form][1]
    if form == "plain":
        x = Tensor(x.data.ravel()[1:])
    cdf, cdf_of_output, forward, backward = ops._cdf, ops._cdf_of_output, [], []

    def kept_cdf(y, *scratch):
        forward.append(y.copy())
        return cdf(y, *scratch)

    def kept_cdf_of_output(o, y, *scratch):
        phi = cdf_of_output(o, y, *scratch)
        backward.append((o, y.copy(), phi.copy()))
        return phi

    monkeypatch.setattr(ops, "_cdf", kept_cdf)
    monkeypatch.setattr(ops, "_cdf_of_output", kept_cdf_of_output)
    with GradTape() as tape:
        out = run(x, gamma, beta)
        loss = ops.reduce_sum(out)
    tape.gradient(loss, [x])
    assert len(forward) == len(backward) > 1
    for y, (o, yb, phi) in zip(forward, backward):
        assert y.shape == yb.shape and np.array_equal(y, yb)
        assert np.shares_memory(o, out.data)
        assert np.array_equal(phi, _cdf_of_output(o, y))


def test_batch_norm_inference_is_batch_independent():
    rng = np.random.default_rng(9)
    gamma, beta = _t64(rng.standard_normal(4)), _t64(rng.standard_normal(4))
    mean, var = rng.standard_normal(4), rng.random(4) + 0.5
    x1 = rng.standard_normal((2, 3, 3, 4))
    x2 = rng.standard_normal((5, 3, 3, 4))
    joint = np.concatenate([x1, x2])
    y_joint = ops.batch_norm_inference(_t64(joint), gamma, beta, mean, var).data
    y_solo = ops.batch_norm_inference(_t64(x1), gamma, beta, mean, var).data
    np.testing.assert_allclose(y_joint[:2], y_solo, rtol=1e-15)


# -- convolution ---------------------------------------------------------------------

def conv2d_oracle(x, w, b=None, stride=1):
    """Six-loop NHWC 'same' convolution with bottom/right-heavy padding."""
    bsz, h, wid, cin = x.shape
    kh, kw, _, cout = w.shape
    hout, wout = -(-h // stride), -(-wid // stride)
    pt = max((hout - 1) * stride + kh - h, 0) // 2
    pl = max((wout - 1) * stride + kw - wid, 0) // 2
    out = np.zeros((bsz, hout, wout, cout))
    for n in range(bsz):
        for oy in range(hout):
            for ox in range(wout):
                for oc in range(cout):
                    acc = 0.0
                    for ky in range(kh):
                        for kx in range(kw):
                            iy, ix = oy * stride + ky - pt, ox * stride + kx - pl
                            if 0 <= iy < h and 0 <= ix < wid:
                                acc += (x[n, iy, ix] * w[ky, kx, :, oc]).sum()
                    out[n, oy, ox, oc] = acc + (b[oc] if b is not None else 0.0)
    return out


# max |f32 - f64| / max |f64| of a conv's output and gradients, the f64 side run on
# the f32-rounded inputs; measured up to 3.7e-7 on the cases below
CONV_F32_BOUND = 2e-6


def _check_conv_against_oracle(conv, oracle, arrays, seed):
    """`conv` on Tensors against `oracle` on the same f64 arrays.

    Checks the forward; the gradient of sum(y * c) for a random cotangent c
    against central differences of the oracle along random directions (the
    conv is linear in each input, so these are exact up to rounding); and
    the f32 output and gradients against f64 within CONV_F32_BOUND.
    """
    rng = np.random.default_rng(seed)
    want = oracle(*arrays)
    cot = rng.standard_normal(want.shape).astype(np.float32).astype(np.float64)  # exact in both dtypes

    def run(dtype, inputs):
        ts = [Tensor(a.astype(dtype)) for a in inputs]
        with GradTape() as tape:
            y = conv(*ts)
            loss = ops.reduce_sum(ops.mul(y, Tensor(cot.astype(dtype))))
        return [y] + tape.gradient(loss, ts)

    y, *grads = run(np.float64, arrays)
    np.testing.assert_allclose(y.data, want, rtol=1e-10, atol=1e-12)
    h = 1e-3
    for i, g in enumerate(grads):
        for _ in range(3):
            v = rng.standard_normal(arrays[i].shape)
            shifted = [[a + sign * h * v if j == i else a for j, a in enumerate(arrays)] for sign in (1, -1)]
            fd = ((oracle(*shifted[0]) - oracle(*shifted[1])) * cot).sum() / (2 * h)
            np.testing.assert_allclose((g.data * v).sum(), fd, rtol=1e-8, atol=1e-10)
    rounded = [a.astype(np.float32).astype(np.float64) for a in arrays]
    for got, ref in zip(run(np.float32, arrays), run(np.float64, rounded)):
        assert got.dtype == np.float32 and got.shape == ref.shape
        assert np.abs(got.data - ref.data).max() <= CONV_F32_BOUND * np.abs(ref.data).max()


# (k, stride, extent); the 6x8 cases keep their original ids
_CONV_CASES = [
    pytest.param(k, s, hw, id=f"{k}-{s}" if hw == (6, 8) else f"{k}-{s}-{hw[0]}x{hw[1]}")
    for hw in [(6, 8), (5, 7)]
    for s in [1, 2, 3]
    for k in [1, 2, 3, 5]
]


@pytest.mark.parametrize("k,stride,extent", _CONV_CASES)
def test_conv2d_against_loop_oracle(k, stride, extent, monkeypatch):
    monkeypatch.setattr(ops, "_TAP_BLOCK", 40)  # several row blocks, the last one short
    rng = np.random.default_rng(11 + stride + k)
    x = rng.standard_normal((2, *extent, 3))
    w = rng.standard_normal((k, k, 3, 4))
    b = rng.standard_normal(4)
    _check_conv_against_oracle(
        lambda x, w, b: ops.conv2d(x, w, b, stride=stride),
        lambda x, w, b: conv2d_oracle(x, w, b, stride),
        [x, w, b],
        seed=k + stride + extent[0],
    )


def test_conv2d_identity_kernel():
    x = np.random.default_rng(12).standard_normal((1, 4, 4, 2))
    w = np.zeros((1, 1, 2, 2))
    w[0, 0] = np.eye(2)
    got = ops.conv2d(_t64(x), _t64(w))
    np.testing.assert_allclose(got.data, x)


def test_conv2d_odd_extent_stride2_pads_bottom_right():
    # 5 -> 3 under stride 2 'same'; oracle enforces the pad split convention.
    rng = np.random.default_rng(13)
    x = rng.standard_normal((1, 5, 5, 2))
    w = rng.standard_normal((3, 3, 2, 2))
    got = ops.conv2d(_t64(x), _t64(w), stride=2)
    assert got.shape == (1, 3, 3, 2)
    np.testing.assert_allclose(got.data, conv2d_oracle(x, w, None, 2), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (1, 1)], ids=["3x3-s1", "3x3-s2", "1x1"])
def test_conv2d_skips_the_data_gradient_of_an_input_with_no_reader(k, stride, monkeypatch):
    """A data leaf's gradient has no reader, so conv2d's backward returns None for it
    and runs no data-gradient walk (a matmul for 1x1); the weight and bias gradients
    are the same bits as when x is requested too, also on nested tapes. An x made
    on the outer tape only has no reader on the inner one, and the outer sweep
    still computes it."""
    rng = np.random.default_rng(14)
    leaf = Tensor(rng.standard_normal((2, 6, 6, 3)).astype(np.float32))
    w, b = Tensor(rng.standard_normal((k, k, 3, 4)).astype(np.float32)), Tensor(rng.standard_normal(4).astype(np.float32))
    cot = Tensor(rng.standard_normal((2, 6 // stride, 6 // stride, 4)).astype(np.float32))
    walks, data_grads, shifted_taps, accumulate = [], [], ops._shifted_taps, tape_module._accumulate
    monkeypatch.setattr(ops, "_shifted_taps", lambda *a: walks.append(1) or shifted_taps(*a))

    def spy(grads, inputs, g_inputs, *rest):
        if len(inputs) == 3 and inputs[1][1] == w.shape:  # the conv2d entry: (x, w, b)
            data_grads.append(g_inputs[0] is not None)
        accumulate(grads, inputs, g_inputs, *rest)

    monkeypatch.setattr(tape_module, "_accumulate", spy)

    def sweep(tape, loss, params):
        walks.clear()
        data_grads.clear()
        grads = [t.data for t in tape.gradient(loss, params)]
        (computed,) = data_grads
        assert computed == (len(params) == 3), "a data gradient with no reader was computed, or one was skipped"
        return grads, len(walks)

    def conv_loss(x):
        return ops.reduce_sum(ops.mul(ops.conv2d(x, w, b, stride=stride), cot))

    with GradTape() as tape:
        loss = conv_loss(leaf)
    full, full_walks = sweep(tape, loss, [w, b, leaf])
    with GradTape() as tape:
        loss = conv_loss(leaf)
    pruned, pruned_walks = sweep(tape, loss, [w, b])
    assert pruned_walks == 0 and (full_walks > 0) == (k > 1)
    assert all(np.array_equal(p, f) for p, f in zip(pruned, full[:2]))
    with GradTape() as outer:
        x = ops.scale(leaf, 1.0)  # recorded on the outer tape only
        with GradTape() as inner:
            loss = conv_loss(x)
        inner_grads, inner_walks = sweep(inner, loss, [w, b])
    outer_grads, outer_walks = sweep(outer, loss, [w, b, leaf])
    assert inner_walks == 0 and outer_walks == full_walks
    for got in (inner_grads, outer_grads[:2]):
        assert all(np.array_equal(p, f) for p, f in zip(got, full[:2]))
    assert np.array_equal(outer_grads[2], full[2])


@pytest.mark.parametrize("k,stride,extent", _CONV_CASES)
def test_depthwise_matches_grouped_oracle(k, stride, extent, monkeypatch):
    monkeypatch.setattr(ops, "_TAP_BLOCK", 40)  # several row blocks, the last one short
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, *extent, 3))
    w = rng.standard_normal((k, k, 3))

    def grouped_oracle(x, w):
        # a full conv with a block-diagonal kernel
        wfull = np.zeros((k, k, 3, 3))
        for c in range(3):
            wfull[:, :, c, c] = w[:, :, c]
        return conv2d_oracle(x, wfull, None, stride)

    _check_conv_against_oracle(
        lambda x, w: ops.depthwise_conv2d(x, w, stride=stride), grouped_oracle, [x, w], seed=k + stride + extent[0]
    )


def test_avg_pool2d():
    x = _t64(np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1))
    y = ops.avg_pool2d(x, 2)
    assert y.shape == (1, 2, 2, 1)
    np.testing.assert_allclose(y.data[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])
    z = np.random.default_rng(8).standard_normal((2, 6, 6, 3))
    for k in (1, 3, 6):
        want = z.reshape(2, 6 // k, k, 6 // k, k, 3).mean(axis=(2, 4))
        np.testing.assert_allclose(ops.avg_pool2d(_t64(z), k).data, want, rtol=1e-14, atol=1e-15)
    with pytest.raises(PartitionError):
        ops.avg_pool2d(_t64(np.zeros((1, 5, 4, 1))), 2)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda x: ops.conv2d(x, _t64(np.ones((3, 3, 2, 2))), stride=0), ConfigError),
        (lambda x: ops.conv2d(x, _t64(np.ones((1, 1, 2, 2))), stride=0), ConfigError),
        (lambda x: ops.depthwise_conv2d(x, _t64(np.ones((3, 3, 2))), stride=0), ConfigError),
        (lambda x: ops.depthwise_conv2d(x, _t64(np.ones((3, 3, 2))), stride=-1), ConfigError),
        (lambda x: ops.avg_pool2d(x, 0), PartitionError),
        (lambda x: ops.avg_pool2d(x, -2), PartitionError),
        (lambda x: ops.conv2d(x, _t64(np.ones((0, 3, 2, 2)))), DimensionError),
        (lambda x: ops.conv2d(x, _t64(np.ones((3, 0, 2, 2))), stride=2), DimensionError),
        (lambda x: ops.conv2d(x, _t64(np.ones((0, 0, 2, 2)))), DimensionError),
        (lambda x: ops.depthwise_conv2d(x, _t64(np.ones((0, 3, 2)))), DimensionError),
        (lambda x: ops.depthwise_conv2d(x, _t64(np.ones((3, 0, 2))), stride=2), DimensionError),
    ],
    ids=[
        "conv3x3-stride0", "conv1x1-stride0", "depthwise-stride0", "depthwise-stride-1", "pool-0", "pool-2",
        "conv-kernel0x3", "conv-kernel3x0-stride2", "conv-kernel0x0", "depthwise-kernel0x3",
        "depthwise-kernel3x0-stride2",
    ],
)
def test_non_positive_stride_or_pool_size_rejected(call, error):
    with pytest.raises(error):
        call(_t64(np.zeros((1, 4, 4, 2))))


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: ops.reshape(_t64(np.ones((2, 3))), (-2, -3)), DimensionError),
        (lambda: ops.softmax_cross_entropy(_t64(np.zeros((0, 3))), np.zeros(0, np.int64)), DimensionError),
        (lambda: ops.layer_norm(_t64(1.0), _t64(np.ones(1)), _t64(np.zeros(1))), DimensionError),
        (lambda: ops.emd_loss(_t64(1.0), _t64(1.0)), DimensionError),
        (lambda: ops.emd_loss(_t64([0.5, 0.5]), _t64([0.2, 0.8]), r=float("nan")), DataError),
        (lambda: ops.emd_loss(_t64(np.zeros((0, 10))), _t64(np.zeros((0, 10)))), DimensionError),
        (lambda: ops.emd_loss(_t64(np.zeros((3, 0))), _t64(np.zeros((3, 0)))), DimensionError),
        (lambda: ops.reduce_sum(_t64(np.ones((2, 3))), axes=(0.5,)), DimensionError),
        (lambda: ops.reduce_mean(_t64(np.ones((2, 3))), axes="0"), DimensionError),
        (lambda: ops.scale(_t64(np.ones(2)), "a"), DataError),
        (lambda: ops.conv2d(_t64(np.zeros((1, 4, 4, 2))), _t64(np.ones((3, 3, 2, 2))), stride=1.5), ConfigError),
        (lambda: ops.depthwise_conv2d(_t64(np.zeros((1, 4, 4, 2))), _t64(np.ones((3, 3, 2))), stride=1.5), ConfigError),
        (lambda: ops.gelu(_t64(np.zeros((2, 3))), _t64(np.zeros(2))), DimensionError),
        (lambda: ops.gelu(_t64(1.0), _t64(np.zeros(1))), DimensionError),
        (lambda: ops.gelu(_t64(np.zeros((2, 3))), np.zeros(3)), DataError),
        (lambda: ops.gelu(tensor(np.zeros((2, 3))), _t64(np.zeros(3))), DataError),
        (lambda: count_model("T", 224, num_classes=0), ConfigError),
        (lambda: count_model("T", 224, num_classes="a"), ConfigError),
        (lambda: count_model("T", "224"), ConfigError),
        (lambda: count_model("T", 0), ConfigError),
        (lambda: _sweep(output=np.ones(())), DataError),
        (lambda: _sweep(params=[np.ones(2)]), DataError),
        (lambda: _sweep(params=_t64([1.0, 2.0])), DataError),
        (lambda: _record(np.ones(2), (_t64([1.0, 2.0]),)), DataError),
        (lambda: _record(_t64([1.0, 2.0]), (np.ones(2),)), DataError),
        (lambda: _record(_t64([1.0, 2.0]), _t64([1.0, 2.0])), DataError),
        (lambda: ops.softmax_lastdim(_t64(np.zeros((2, 0)))), DimensionError),
        (lambda: ops.softmax_lastdim(_t64(1.0)), DimensionError),
        (lambda: ops.avg_pool2d(_t64(np.zeros((1, 4, 4, 2))), 2.0), PartitionError),
        (lambda: ops.avg_pool2d(_t64(np.zeros((1, 4, 4, 2))), True), PartitionError),
        (lambda: axes.to_heads(_t64(np.zeros((1, 4, 4, 4))), "block", 2.0, 2), PartitionError),
        (lambda: axes.to_heads(_t64(np.zeros((1, 4, 4, 4))), "grid", True), PartitionError),
        (lambda: axes.to_heads(_t64(np.zeros((1, 4, 4, 4))), "block", 2, 2.0), DimensionError),
        (lambda: build_bias_index(7.0), ConfigError),
        (lambda: build_bias_index(True), ConfigError),
        (lambda: interpolate_bias(_t64(np.zeros((1, 9))), 3.0), ConfigError),
        (lambda: validate_geometry(VARIANTS["T"], 224.0, 224), DimensionError),
        (lambda: forward(build_model(MINIATURE, num_classes=2), np.zeros((1, 28, 28, 3), np.float32)), DataError),
        (lambda: ops.mul(_t64(np.ones(2)), 2.0), DataError),
        (lambda: ops.gelu(np.zeros(3)), DataError),
        (lambda: ops.depthwise_conv2d(_t64(np.zeros((1, 4, 4, 2))), np.ones((3, 3, 2))), DataError),
        (lambda: ops.add(_t64(np.ones(2)), np.ones(2)), DataError),
        (lambda: ops.conv2d(_t64(np.zeros((1, 4, 4, 2))), np.ones((3, 3, 2, 2))), DataError),
        (lambda: ops.layer_norm(_t64(np.ones((2, 3))), np.ones(3), np.zeros(3)), DataError),
        (lambda: ops.reshape(_t64(np.ones((2, 3))), (2.7, 3)), DimensionError),
        (lambda: ops.reshape(_t64(np.ones((2, 3))), ("2", 3)), DimensionError),
        (lambda: ops.transpose(_t64(np.ones((2, 3))), (True, False)), DimensionError),
        (lambda: ops.reduce_sum(_t64(np.ones((2, 3))), axes=True), DimensionError),
        (lambda: nn.linear(_t64(np.ones((2, 3))), nn.LinearParams(_t64(np.ones(3)))), DimensionError),
        (lambda: ops.sigmoid(np.zeros((1, 4, 4, 2))), DataError),
        (lambda: ops.silu(np.zeros((1, 4, 4, 2))), DataError),
        (lambda: ops.softmax_lastdim(np.zeros((1, 4, 4, 2))), DataError),
        (lambda: ops.reduce_sum(np.zeros((1, 4, 4, 2))), DataError),
        (lambda: ops.reduce_mean(np.zeros((1, 4, 4, 2))), DataError),
        (lambda: ops.transpose(np.zeros((1, 4, 4, 2)), (0, 1, 2, 3)), DataError),
        (lambda: ops.reshape(np.zeros((1, 4, 4, 2)), (2, 16)), DataError),
        (lambda: ops.avg_pool2d(np.zeros((1, 4, 4, 2)), 2), DataError),
        (lambda: ops.gather_rows(np.zeros((2, 9)), np.zeros((4, 4), np.int64)), DataError),
        (lambda: ops.softmax_cross_entropy(np.zeros((2, 3)), np.zeros(2, np.int64)), DataError),
        (lambda: ops.scale(np.zeros((1, 4, 4, 2)), 2.0), DataError),
        (lambda: ops.batch_norm_train(np.zeros((1, 4, 4, 2)), _t64(np.ones(2)), _t64(np.zeros(2))), DataError),
        (
            lambda: ops.batch_norm_inference(
                np.zeros((1, 4, 4, 2)), _t64(np.ones(2)), _t64(np.zeros(2)), np.zeros(2), np.ones(2)
            ),
            DataError,
        ),
        (lambda: ops.transpose(_t64(np.zeros((1, 4, 4, 2))), 0), DimensionError),
        (lambda: ops.conv2d(np.zeros((1, 4, 4, 2)).tolist(), _t64(np.ones((1, 1, 2, 2)))), DataError),
        (lambda: ops.conv2d(_t64(np.zeros((1, 4, 4, 2))), _t64(np.ones((3, 3, 2, 2))), [0.0, 0.0]), DataError),
        (lambda: ops.depthwise_conv2d(np.zeros((1, 4, 4, 2)).tolist(), _t64(np.ones((3, 3, 2)))), DataError),
        (lambda: ops.emd_loss([0.5, 0.5], _t64([0.2, 0.8])), DataError),
        (lambda: ops.emd_loss(_t64([0.5, 0.5]), _t64([0.2, 0.8]), r=True), DataError),
        (lambda: ops.layer_norm(_t64(np.ones((2, 3))), [1.0, 1.0, 1.0], _t64(np.zeros(3))), DataError),
        (lambda: rel_attention(np.zeros((1, 4, 2)).tolist(), *[_t64(np.zeros((1, 4, 2)))] * 2, _t64(np.zeros((4, 4)))), DataError),
        (lambda: interpolate_bias(np.zeros((1, 9)), 3), DataError),
        (lambda: nn.linear([[1.0, 2.0, 3.0]], nn.LinearParams(_t64(np.ones((3, 2))))), DataError),
        (lambda: nn.global_avg_pool(np.zeros((1, 4, 4, 2)).tolist()), DataError),
        (lambda: nn.se_module(np.zeros((1, 4, 4, 2)).tolist(), nn.init_se(np.random.default_rng(0), 2, 1)), DataError),
        (lambda: axes.to_heads(np.zeros((1, 4, 4, 4)).tolist(), "block", 2), DataError),
        (lambda: axes.from_heads(np.zeros((1, 4, 1, 4, 4)).tolist(), "block", 4, 4, 2), DataError),
    ],
    ids=[
        "reshape-negative-extents", "cross-entropy-empty-batch", "layer-norm-0d", "emd-0d", "emd-r-nan",
        "emd-empty-batch", "emd-zero-bins", "reduce-sum-float-axis", "reduce-mean-str-axes", "scale-str",
        "conv-stride-1.5", "depthwise-stride-1.5", "gelu-bias-misshaped", "gelu-bias-0d-input", "gelu-bias-ndarray",
        "gelu-bias-mixed-dtype", "count-zero-classes", "count-str-classes", "count-str-resolution",
        "count-zero-resolution", "gradient-ndarray-output", "gradient-ndarray-param", "gradient-bare-tensor-params",
        "record-ndarray-out", "record-ndarray-input", "record-bare-tensor-inputs", "softmax-empty-last-axis",
        "softmax-0d", "pool-size-float", "pool-size-bool", "to-heads-size-float", "to-heads-size-bool",
        "to-heads-heads-float", "bias-index-window-float", "bias-index-window-bool", "interpolate-bias-window-float",
        "geometry-float-extent", "forward-ndarray-images", "mul-float-operand", "gelu-ndarray",
        "depthwise-ndarray-kernel", "add-ndarray-operand", "conv-ndarray-kernel", "layer-norm-ndarray-affines",
        "reshape-float-extent", "reshape-str-extent", "transpose-bool-axes", "reduce-sum-bool-axes",
        "linear-rank1-weight", "sigmoid-ndarray", "silu-ndarray", "softmax-ndarray", "reduce-sum-ndarray",
        "reduce-mean-ndarray", "transpose-ndarray", "reshape-ndarray", "pool-ndarray", "gather-ndarray-table",
        "cross-entropy-ndarray-logits", "scale-ndarray", "batch-norm-train-ndarray", "batch-norm-inference-ndarray",
        "transpose-int-perm", "conv-list-input", "conv-list-bias", "depthwise-list-input", "emd-list-operand",
        "emd-r-bool", "layer-norm-list-gamma", "rel-attention-list-query", "interpolate-bias-ndarray-table",
        "linear-list-input", "global-pool-list-input", "se-list-input", "to-heads-list-input", "from-heads-list-input",
    ],
)
def test_misuse_raises_from_the_error_taxonomy(call, error):
    with pytest.raises(error):
        call()


# -- gather ---------------------------------------------------------------------------

def test_gather_rows():
    table = _t64([[10.0, 20.0, 30.0], [1.0, 2.0, 3.0]])
    idx = np.array([[0, 2], [1, 1]])
    got = ops.gather_rows(table, idx)
    assert got.shape == (2, 2, 2)
    assert got.data[0].tolist() == [[10.0, 30.0], [20.0, 20.0]]
    assert got.data[1].tolist() == [[1.0, 3.0], [2.0, 2.0]]
    with pytest.raises(DataError):
        ops.gather_rows(table, np.array([[3]]))


@pytest.mark.parametrize("shape", [(0,), (2, 0)], ids=["empty", "2x0"])
def test_gather_rows_empty_index(shape):
    table = _t64([[10.0, 20.0, 30.0], [1.0, 2.0, 3.0]])
    with GradTape() as tape:
        y = ops.gather_rows(table, np.zeros(shape, np.int64))
        loss = ops.reduce_sum(y)
    assert y.shape == (2, *shape)
    (g,) = tape.gradient(loss, [table])
    assert g.shape == table.shape and not g.data.any()
