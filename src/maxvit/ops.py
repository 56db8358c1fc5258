"""Differentiable primitive operations.

Every function here computes a forward result with numpy and registers a
backward rule on the active GradTape. Backward rules are hand-derived and
covered by central-difference checks in 64-bit mode (see gradcheck.py).

Conventions:
  * dtype propagates from the inputs; mixing f32 and f64 operands is an error.
  * `add`/`mul` broadcast under numpy rules; the backward sums the
    cotangent over broadcast axes so gradient shapes always match inputs.
  * `matmul` does NOT broadcast batch dims: both operands must have the same
    rank and identical leading extents. Dense layers flatten explicitly.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy.special import erf

from .errors import ConfigError, DataError, DimensionError, NumericError, PartitionError
from .tape import _needed, record
from .tensor import Tensor, debug_checks_enabled

__all__ = [
    "add", "mul", "scale", "matmul", "reshape", "transpose",
    "reduce_sum", "reduce_mean", "gelu", "silu", "sigmoid",
    "softmax_lastdim", "layer_norm", "batch_norm_train", "batch_norm_inference",
    "conv2d", "depthwise_conv2d", "avg_pool2d", "gather_rows",
    "softmax_cross_entropy", "emd_loss",
]

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_NORM_EPS = 1e-5  # added to the variance by every layer and batch norm


def _out(arr: np.ndarray, context: str) -> Tensor:
    # 0-d arithmetic in numpy yields scalars; normalize back to 0-d arrays
    if not isinstance(arr, np.ndarray):
        arr = np.asarray(arr)
    if debug_checks_enabled() and not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {context}")
    return Tensor(arr)


def _check_rank(context: str, x: Tensor, rank: int, layout: str, at_least: bool = False) -> None:
    """`x` is a Tensor (else DataError) of rank `rank`, or more when `at_least`
    (else DimensionError naming `layout`)."""
    _same_dtype(context, x)
    if x.ndim < rank or (x.ndim > rank and not at_least):
        raise DimensionError(f"{context} expects {layout} input, got shape {x.shape}")


def _int_at_least(v, low: int = 1) -> bool:
    """v is an integer >= low; a bool or a float of integral value is not.

    A plain int skips the `numbers.Integral` check, which goes through
    `ABCMeta.__instancecheck__` and costs about ten times as much.
    """
    return (type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)) and v >= low


def _int_arg(context: str, name: str, value, low: int = 1, error=ConfigError) -> int:
    """`value` as a plain int if `_int_at_least(value, low)`, else `error` naming it."""
    if not _int_at_least(value, low):
        raise error(f"{context}: {name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _finite_real(v) -> bool:
    """v is a finite real number; a bool is not."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and -np.inf < v < np.inf


def _same_dtype(context: str, *ts: Tensor) -> None:
    """Every operand is a Tensor, all of one dtype, else DataError."""
    for t in ts:
        if not isinstance(t, Tensor):
            raise DataError(f"{context}: operands must be Tensors, got {type(t).__name__}")
    dt = ts[0].dtype
    for t in ts[1:]:
        if t.dtype != dt:
            raise DataError(f"{context}: mixed dtypes {dt} and {t.dtype}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` over the axes that numpy broadcasting expanded to reach g.shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- arithmetic ---------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("add", a, b)
    try:
        out = _out(a.data + b.data, "add")
    except ValueError as e:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from e

    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    record(out, (a, b), backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("mul", a, b)
    try:
        out = _out(a.data * b.data, "mul")
    except ValueError as e:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from e

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    record(out, (a, b), backward)
    return out


def scale(x: Tensor, s: float) -> Tensor:
    _same_dtype("scale", x)
    if not _finite_real(s):
        raise DataError(f"scale: factor must be a finite real number, got {s!r}")
    s = float(s)
    out = _out(x.data * x.dtype.type(s), "scale")
    record(out, (x,), lambda g: (g * s,))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with strict batch-extent equality.

    a: (*batch, M, K), b: (*batch, K, N) -> (*batch, M, N). Ranks must match
    and batch extents must be identical; there is no implicit broadcasting.
    """
    _same_dtype("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul: operands must be at least rank 2, got {a.shape} x {b.shape}")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = _out(np.matmul(a.data, b.data), "matmul")

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return ga, gb

    record(out, (a, b), backward)
    return out


# -- shape ops ----------------------------------------------------------------

def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    _same_dtype("reshape", x)
    if not isinstance(shape, (tuple, list)) or not all(_int_at_least(d, 0) for d in shape):
        raise DimensionError(f"reshape: shape {shape!r} is not a sequence of non-negative integers")
    shape = tuple(int(d) for d in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}")
    # The flat buffer is preserved bitwise; only the shape header changes.
    out = Tensor(x.data.reshape(shape))
    x_shape = x.shape
    record(out, (x,), lambda g: (g.reshape(x_shape),))
    return out


def transpose(x: Tensor, perm: tuple[int, ...]) -> Tensor:
    """Axis i of the result is axis perm[i] of x, as one contiguous copy."""
    _same_dtype("transpose", x)
    axes_ok = isinstance(perm, (tuple, list)) and all(_int_at_least(a, 0) for a in perm)
    if not axes_ok or sorted(perm) != list(range(x.ndim)):
        raise DimensionError(f"transpose: {perm} is not a permutation of the axes of rank-{x.ndim} input")
    inverse = tuple(int(a) for a in np.argsort(perm))
    out = Tensor(x.data.transpose(perm).copy())
    record(out, (x,), lambda g: (g.transpose(inverse).copy(),))
    return out


def _norm_axes(axes, ndim) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, numbers.Integral):
        axes = (axes,)
    if not isinstance(axes, (tuple, list)) or not all(_int_at_least(a, -ndim) and a < ndim for a in axes):
        raise DimensionError(f"reduction axes {axes!r} are not integers in [-{ndim}, {ndim})")
    out = tuple(sorted(a % ndim for a in axes))
    if len(set(out)) != len(out):
        raise DimensionError(f"duplicate reduction axes {axes}")
    return out


def reduce_sum(x: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    _same_dtype("reduce_sum", x)
    ax = _norm_axes(axes, x.ndim)
    out = _out(np.asarray(x.data.sum(axis=ax, keepdims=keepdims)), "reduce_sum")
    x_shape = x.shape

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, x_shape).copy(),)

    record(out, (x,), backward)
    return out


def reduce_mean(x: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    _same_dtype("reduce_mean", x)
    ax = _norm_axes(axes, x.ndim)
    count = int(np.prod([x.shape[a] for a in ax], dtype=np.int64))
    out = _out(np.asarray(x.data.mean(axis=ax, keepdims=keepdims)), "reduce_mean")
    x_shape = x.shape

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g / count, x_shape).copy(),)  # divide the small cotangent, then spread it

    record(out, (x,), backward)
    return out


# -- activations ----------------------------------------------------------------

_GELU_BLOCK = 1 << 15  # elements per block: a block's arrays, the tiled operands too, fit in L2

# f32 erf(z) ~ tanh(z * P(z^2)), P from the highest degree in z^2 down: a
# least-squares fit in f64 of atanh(erf(z)) on z in [0, 4], weighted by
# 1 - erf(z)^2 so that it is a fit in erf's own error, then Lawson
# reweighting toward minimax; max |erf error| 5.8e-8. z^2 is clamped at 25:
# z * P(z^2) rises monotonically to 46 at |z| = 5 and grows linearly past
# it, and f32 tanh is exactly +-1 from 9.01 on, so Phi(-inf) is 0 and
# gelu(-inf) = -inf * 0 is nan.
_ERF_TANH_P = tuple(np.float32(c) for c in (
    1.589777360183682e-07, -5.986025089565569e-06, 8.971488636399110e-05, -6.257266923406146e-04,
    -1.843735421309113e-04, 1.027654754161421e-01, 1.128379706562100e+00,
))


def _apply(steps, src: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """A per-channel map given as [(ufunc, operand), ...]: the first step reads
    `src` into `buf`, the rest run in place on it. No steps return `src`."""
    for k, (f, a) in enumerate(steps):
        f(buf if k else src, a, out=buf)
    return buf if steps else src


def _row_blocks(x: np.ndarray, per_channel: bool, *step_lists, scratch: int = 0):
    """x as (rows, C), or as one column when nothing is per channel; the rows
    per block, so that a block holds about `_GELU_BLOCK` elements; each step
    list with its (C,) operands tiled to one block of rows; and `scratch`
    block buffers. Cut with `_cut`, the block ops run on same-shape operands,
    two or three times faster than a (C,) broadcast for the small C of this
    model. Tiles and scratch share one allocation: with one small heap chunk
    per buffer between the full-size arrays, the toy training step's peak
    RSS varied from run to run (by up to 72 MB on a 2-vCPU x86_64 VM).
    """
    c = x.shape[-1] if per_channel else 1
    rows = x.reshape(-1 if c else 0, c)
    step = max(1, _GELU_BLOCK // max(c, 1))
    bufs = iter(np.empty((sum(map(len, step_lists)) + scratch, min(step, len(rows)), c), x.dtype))
    tiled = [[(f, _fill(next(bufs), a)) for f, a in steps] for steps in step_lists]
    return rows, step, tiled, list(bufs)


def _fill(buf: np.ndarray, a: np.ndarray) -> np.ndarray:
    buf[...] = a
    return buf


def _cut(steps, n: int):
    """Tiled steps cut to the n rows of a block."""
    return [(f, a[:n]) for f, a in steps]


def _cdf(y: np.ndarray, z: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Phi(y) = (1 + erf(y / sqrt(2))) / 2 of one block into `out`; z and t are scratch.

    f32 takes erf(z) = tanh(z * P(z^2)) (`_ERF_TANH_P`), f64 scipy's exact
    erf. Only the GELU forward calls this; the backward reads Phi back from
    the output (`_cdf_of_output`).
    """
    np.multiply(y, y.dtype.type(_INV_SQRT2), out=z)
    if y.dtype == np.float32:
        with np.errstate(over="ignore"):  # z^2 and z * P(25) reach inf past |z| ~ 1.8e19, where tanh is +-1 anyway
            np.square(z, out=t)
            np.minimum(t, np.float32(25.0), out=t)
            np.multiply(t, _ERF_TANH_P[0], out=out)
            for c in _ERF_TANH_P[1:-1]:
                out += c
                out *= t
            out += _ERF_TANH_P[-1]
            out *= z
            np.tanh(out, out=out)
    else:
        erf(z, out=out)
    out += 1.0
    out *= 0.5
    return out


def _cdf_of_output(o: np.ndarray, y: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Phi(y) of one block read back from the GELU output o = y * Phi(y): o / y,
    and exactly 1/2 where |y| < tiny, whose quotient would be 0/0 at y = 0 and
    rounded from a subnormal product below it (0.571 at y = 1e-44 in f32)."""
    with np.errstate(invalid="ignore"):  # 0 / 0; the 1/2 below replaces it
        np.divide(o, y, out=out)
    np.abs(y, out=t)
    small = t < np.finfo(y.dtype).tiny
    if small.any():
        out[small] = 0.5
    return out


def _gelu_forward(x: np.ndarray, steps=(), out: np.ndarray | None = None) -> np.ndarray:
    """y * Phi(y) for y = steps(x), in x's dtype, one block of rows at a time.

    `steps` is a per-channel pre-activation ([(ufunc, (C,) operand), ...], see
    `_apply`) formed per block of rows in cache, in the op order of the
    separate op, so y has its bits: a batch norm or a bias add then costs no
    full-size pass and no full-size output. Phi lives in one block of
    scratch. f32 is within 5e-7 * max(1, |y|) of the exact-erf GELU (checked
    by `checks.gelu_f32_matches_exact`); f64 is the exact form. `out` may be
    x itself.
    """
    xr, step, (steps,), (y, z, t, c) = _row_blocks(x, bool(steps), steps, scratch=4)
    res = np.empty_like(xr) if out is None else out.reshape(xr.shape)
    for lo in range(0, len(xr), step):
        xb = xr[lo:lo + step]
        n = len(xb)
        yb = _apply(_cut(steps, n), xb, y[:n])
        np.multiply(yb, _cdf(yb, z[:n], t[:n], c[:n]), out=res[lo:lo + n])
    return res.reshape(x.shape)


def _gelu_grad(x: np.ndarray, o: np.ndarray, g: np.ndarray, steps=(), hat=(), from_hat: bool = False):
    """Pass one of a GELU backward, in blocks: gy = g * (Phi + y * pdf(y)), y = steps(x).

    y is rebuilt per block from x, or, with `from_hat`, from xhat = hat(x),
    on the forward's block partition, so it has the forward's bits; Phi is
    read back from the forward's output o (`_cdf_of_output`). With
    per-channel steps it also returns the channel sums of gy and, with
    `hat`, of gy * xhat (a batch norm's dbeta and dgamma), else None for
    them; each block adds into a block-sized sum, reduced once at the end,
    which costs one in-cache add per block and no per-block reduction call.
    The ops after Phi run in the order of the unblocked `g * (Phi + y *
    (exp(-0.5 * y**2) * (1/sqrt(2 pi))))`, so gy is the same bits as it.
    """
    per_channel = bool(steps)
    xr, step, (steps, hat), (h, y, t, c, sg, sgx) = _row_blocks(x, per_channel, steps, hat, scratch=6)
    gr, orows = g.reshape(xr.shape), o.reshape(xr.shape)
    gy = np.empty_like(gr)
    sg[...] = 0
    sgx[...] = 0
    for lo in range(0, len(xr), step):
        xb = xr[lo:lo + step]
        n = len(xb)
        hb = _apply(_cut(hat, n), xb, h[:n])
        yb = _apply(_cut(steps, n), hb if from_hat else xb, y[:n])
        tb, gyb = t[:n], gy[lo:lo + n]
        cb = _cdf_of_output(orows[lo:lo + n], yb, tb, c[:n])
        np.square(yb, out=tb)
        tb *= -0.5
        np.exp(tb, out=tb)
        tb *= _INV_SQRT_2PI  # pdf
        tb *= yb
        tb += cb
        np.multiply(gr[lo:lo + n], tb, out=gyb)
        if per_channel:
            sg[:n] += gyb
        if hat:
            sgx[:n] += np.multiply(gyb, hb, out=tb)
    return gy.reshape(g.shape), _channel_sum(sg) if per_channel else None, _channel_sum(sgx) if hat else None


def gelu(x: Tensor, bias: Tensor | None = None) -> Tensor:
    """Exact-erf form: y * Phi(y), with Phi the standard normal CDF and y = x (+ bias).

    f32 evaluates erf as tanh(z * P(z^2)) (`_cdf`); f64 uses scipy's exact
    erf. A (C,) `bias` over x's last axis is added per block inside the GELU
    loop, with the bits of `add(x, bias)`. The backward keeps x and the
    output, not the sum and not Phi: it rebuilds the sum per block and reads
    Phi as output / sum. The output costs no memory, as the op that reads it
    (fc2) keeps it too.
    """
    operands = (x,) if bias is None else (x, bias)
    _same_dtype("gelu", *operands)
    steps = ()
    if bias is not None:
        if x.ndim < 1 or bias.shape != x.shape[-1:]:
            raise DimensionError(f"gelu: bias shape {bias.shape} does not match the last axis of {x.shape}")
        steps = ((np.add, bias.data),)
    out = _out(_gelu_forward(x.data, steps), "gelu")
    o = out.data
    n = len(operands)  # gy, and the channel sum of gy as the bias gradient
    record(out, operands, lambda g: _gelu_grad(x.data, o, g, steps)[:n])
    return out


def sigmoid(x: Tensor) -> Tensor:
    _same_dtype("sigmoid", x)
    y = _sigmoid(x.data)
    out = _out(y, "sigmoid")
    record(out, (x,), lambda g: (g * y * (1.0 - y),))
    return out


def silu(x: Tensor) -> Tensor:
    _same_dtype("silu", x)
    s = _sigmoid(x.data)
    out = _out(x.data * s, "silu")
    record(out, (x,), lambda g: (g * (s + x.data * s * (1.0 - s)),))
    return out


def _sigmoid(a: np.ndarray) -> np.ndarray:
    # Split by sign to avoid overflow in exp for large |x|.
    y = np.empty_like(a)
    pos = a >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    y[~pos] = e / (1.0 + e)
    return y


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, max-subtracted for stability."""
    _same_dtype("softmax_lastdim", x)
    if x.ndim < 1 or x.shape[-1] == 0:
        raise DimensionError(f"softmax_lastdim: expects a non-empty last axis, got shape {x.shape}")
    ones = np.ones(x.shape[-1], x.dtype)  # row sums as BLAS matrix-vector products (`_row_dot`)
    y = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y /= _row_dot(y, ones)
    out = _out(y, "softmax_lastdim")

    def backward(g):
        gy = g * y
        dot = _row_dot(gy, ones)
        np.subtract(g, dot, out=gy)
        gy *= y
        return (gy,)

    record(out, (x,), backward)
    return out


# -- normalization ---------------------------------------------------------------

def _rows(a: np.ndarray) -> np.ndarray:
    """a as (rows, last axis); a view when a is contiguous."""
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])


def _row_dot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v over a's last axis, kept as a length-1 axis: one BLAS matrix-vector
    product. numpy's own reduction over a short last axis runs an inner loop
    only that long, several times slower at this model's widths."""
    return (_rows(a) @ v).reshape(a.shape[:-1] + (1,))


def _channel_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sum of `a`, or of `a * b`, over every axis but the last.

    The sum of `a` is ones @ rows, one BLAS matrix-vector product. The sum of
    `a * b` is an einsum, which streams both once with no full-size
    temporary. numpy's own reduction over the leading axes of a C-contiguous
    array runs an inner loop only C elements long, several times slower for
    small C; einsum's one-operand sum is about 3.5 times slower than BLAS
    (on (32, 56, 56, 64) f32: 3.9 against 1.1 ms).
    """
    if b is None:
        rows = _rows(a)
        return np.ones(len(rows), a.dtype) @ rows
    axes = "abcdefghijklmnopqrstuvwxy"[:a.ndim - 1] + "z"  # einsum cannot sum an ellipsis away ("...c->c" raises)
    return np.einsum(f"{axes},{axes}->z", a, b)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then per-feature affine.

    Every reduction is a BLAS matrix-vector product (`_row_dot` with a 1/C
    vector for the row means, `_channel_sum` for dgamma and dbeta). The forward
    centres one copy of x, takes the variance from it and scales and shifts
    it in place into the output. The backward keeps x and the per-row mean
    and 1/std, rebuilds xhat from them with the forward's ops and forms dx in
    place on `g * gamma`, with one more input-sized buffer for the products
    that its reductions read; its gradients are the same bits as the unfused
    formula over a stored xhat with the same reductions.
    """
    _same_dtype("layer_norm", x, gamma, beta)
    _check_rank("layer_norm", x, 1, "(..., features)", at_least=True)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"layer_norm: affines {gamma.shape}/{beta.shape} do not match feature dim {c}")
    w = np.full(c, 1.0 / max(c, 1), x.dtype)
    mean = _row_dot(x.data, w)
    y = x.data - mean  # the one owned copy: centred here, scaled and shifted in place below
    var = _row_dot(np.square(y), w)
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    y *= inv
    y *= gamma.data
    y += beta.data
    out = _out(y, "layer_norm")

    def backward(g):
        # dx = (gx - mean(gx) - xhat * mean(gx * xhat)) * inv, gx = g * gamma
        xhat = x.data - mean
        xhat *= inv
        dx = g * gamma.data
        prod = dx * xhat
        m2 = _row_dot(prod, w)
        m1 = _row_dot(dx, w)
        dgamma = _channel_sum(np.multiply(g, xhat, out=prod))
        xhat *= m2
        dx -= m1
        dx -= xhat
        dx *= inv
        return dx, dgamma, _channel_sum(g)

    record(out, (x, gamma, beta), backward)
    return out


def _check_channel_params(context: str, x: Tensor, **params) -> None:
    """NHWC `x`; each per-channel Tensor or array must be (C,) and of x's dtype."""
    _check_rank(context, x, 4, "NHWC rank-4")
    c = x.shape[-1]
    for name, p in params.items():
        if not isinstance(p, (Tensor, np.ndarray)):
            raise DataError(f"{context}: {name} must be a Tensor or ndarray, got {type(p).__name__}")
        if p.shape != (c,):
            raise DimensionError(f"{context}: {name} shape {p.shape} does not match channels {c}")
        if p.dtype != x.dtype:
            raise DataError(f"{context}: mixed dtypes {x.dtype} and {p.dtype} ({name})")


def _bn_input_grad(gy: np.ndarray, x: np.ndarray, k: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gy * k + (x * a + b) with (C,) k, a and b, in place on gy, one block of rows at a time."""
    steps = [(np.multiply, k)], [(np.multiply, a), (np.add, b)]
    gr, step, (scale, affine), (t,) = _row_blocks(gy, True, *steps, scratch=1)
    xr = x.reshape(gr.shape)
    for lo in range(0, len(gr), step):
        gb = gr[lo:lo + step]
        n = len(gb)
        _apply(_cut(scale, n), gb, gb)
        gb += _apply(_cut(affine, n), xr[lo:lo + n], t[:n])
    return gy


def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, gelu: bool = False):
    """Per-channel batch norm over (batch, height, width) of an NHWC tensor.

    Returns (out, batch_mean, batch_var) where the stats are plain arrays
    (biased 1/n variance) for the caller's running-average update.

    The backward keeps x and the per-channel mean and 1/std, not xhat: it
    rebuilds xhat with the forward's ops in the forward's order, so its
    gradients are the same bits as with a stored xhat.

    With `gelu`, out is gelu(batch norm) from one blocked pass
    (`_gelu_forward`) that scales, shifts and activates the centred copy in
    cache and writes over it, so the batch-norm output never exists at full
    size; out has the bits of the two separate ops. Its backward keeps x, the
    statistics and out, which the next op keeps too, not Phi. Pass one
    rebuilds xhat and y per block, reads Phi as out / y, forms gy = g *
    gelu'(y) and sums gy and gy * xhat per channel; pass two
    forms dx = gy * k + x * a + b per block, with per-channel k, a and b
    folded from those sums.
    """
    _check_channel_params("batch_norm_train", x, gamma=gamma, beta=beta)
    n = x.shape[0] * x.shape[1] * x.shape[2]
    # an einsum, not `_channel_sum`'s BLAS sum: the mean's rounding reaches every gradient,
    # and a BLAS mean moved the toy step's gradients by 1e-6 norm-relative
    mean = np.einsum("abcz->z", x.data) / n
    y = x.data - mean  # the one owned copy: centred here, normalized (and activated) in place below
    var = _channel_sum(y, y) / n  # two-pass, as np.var
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    hat = ((np.subtract, mean), (np.multiply, inv))
    affine = ((np.multiply, gamma.data), (np.add, beta.data))
    if gelu:
        _gelu_forward(y, hat[1:] + affine, out=y)
    else:
        _apply(hat[1:] + affine, y, y)
    out = _out(y, "batch_norm_train")

    def backward(g):
        # dx = k * (g - sum(g)/n - xhat * sum(g * xhat)/n), k = gamma * inv; the two sums are dbeta and dgamma
        dx = x.data - mean  # xhat, rebuilt; dx is then formed in place on it
        dx *= inv
        sg, sgx = _channel_sum(g), _channel_sum(g, dx)
        dx *= -sgx / n
        dx += g
        dx -= sg / n
        dx *= gamma.data * inv
        return dx, sgx, sg

    def backward_gelu(g):
        # the same dx with g -> gy, regrouped as gy * k + x * a + b
        dx, sg, sgx = _gelu_grad(x.data, y, g, affine, hat, from_hat=True)
        k = gamma.data * inv
        a = k * inv * (-sgx / n)
        return _bn_input_grad(dx, x.data, k, a, -k * (sg / n) - a * mean), sgx, sg

    record(out, (x, gamma, beta), backward_gelu if gelu else backward)
    return out, mean, var


def batch_norm_inference(
    x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray, running_var: np.ndarray, gelu: bool = False
) -> Tensor:
    """Affine-only normalization with frozen stats; batch-independent by construction.

    Folded into one per-channel scale s = gamma / sqrt(var + eps) and shift
    beta - mean * s, so the forward makes two passes over x. With `gelu`,
    out is gelu of that, formed per block in the GELU loop (`_gelu_forward`)
    with the same bits as the two ops; its backward keeps x and out, rebuilds
    xhat and y per block, reads Phi as out / y and returns dx = gy * s.
    """
    _check_channel_params(
        "batch_norm_inference", x, gamma=gamma, beta=beta, running_mean=running_mean, running_var=running_var
    )
    inv = 1.0 / np.sqrt(running_var + _NORM_EPS)
    s = gamma.data * inv
    affine = ((np.multiply, s), (np.add, beta.data - running_mean * s))
    if gelu:
        y = _gelu_forward(x.data, affine)
    else:
        y = _apply(affine, x.data, np.empty_like(x.data))
    out = _out(y, "batch_norm_inference")

    def backward(g):
        xhat = (x.data - running_mean) * inv
        return g * s, _channel_sum(g, xhat), _channel_sum(g)

    def backward_gelu(g):
        dx, sg, sgx = _gelu_grad(x.data, y, g, affine, ((np.subtract, running_mean), (np.multiply, inv)))
        dx *= s
        return dx, sgx, sg

    record(out, (x, gamma, beta), backward_gelu if gelu else backward)
    return out


# -- convolution -------------------------------------------------------------------

_TAP_BLOCK = 1 << 16  # elements of a row block's widest operand: one tap's slice, product and sum stay in L2


def _check_kernel(context: str, kh: int, kw: int, stride: int) -> None:
    if kh < 1 or kw < 1:
        raise DimensionError(f"{context}: kernel extent ({kh}, {kw}) must be positive")
    _int_arg(context, "stride", stride)


def _same_pad(extent: int, k: int, stride: int) -> tuple[int, int]:
    # TF-style SAME: output ceil(extent/stride); odd total padding goes after.
    out = -(-extent // stride)
    total = max((out - 1) * stride + k - extent, 0)
    return total // 2, total - total // 2


def _phase_slices(extent: int, pad: int, s: int) -> list[tuple[slice, slice]]:
    """Per phase r < s: the input slice whose padded index is r mod s, and its phase-plane slice."""
    out = []
    for r in range(s):
        i0 = (r - pad) % s
        q0 = (pad + i0) // s
        out.append((slice(i0, extent, s), slice(q0, q0 + len(range(i0, extent, s)))))
    return out


def _shifted_taps(src: np.ndarray, taps, out: np.ndarray) -> None:
    """out[r] = sum over taps (off, p, w) of src[p, r + off] @ w, or * w for a 1-D w.

    `src` is (phases, rows, C), `out` is (n, cout) and every r + off < rows.
    Rows are walked in blocks of about `_TAP_BLOCK` elements, so that each
    tap's slice, its product and the block's sum stay in L2.
    """
    n, cout = out.shape
    rows = max(1, _TAP_BLOCK // max(src.shape[-1], cout, 1))
    tmp = np.empty((min(rows, n), cout), src.dtype)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        acc, t = out[r0:r1], tmp[:r1 - r0]
        for k, (off, p, w) in enumerate(taps):
            mul = np.matmul if w.ndim == 2 else np.multiply
            mul(src[p, r0 + off:r1 + off], w, out=t if k else acc)
            if k:
                acc += t


def _tap_conv(x: np.ndarray, kh: int, kw: int, stride: int, taps, fold_phases: bool):
    """'same' conv of NHWC `x` as shifted taps over its flat padded plane.

    The input is padded once into s*s phase planes of hout + ceil(k/s) - 1
    rows and wq = wout + ceil(k/s) - 1 columns; padded pixel (p, q) lands at
    row p // s, column q // s of phase (p % s, q % s). Viewed flat, a tap
    (a, b, phase, w) reads rows at offset a*wq + b of its phase. With
    `fold_phases` the phases are folded into channels (space-to-depth) and
    every tap's phase is 0. Output rows are computed at the plane's width,
    then cropped. The plane is a padded copy of x, so the forward drops it
    after the walk and the backward, which keeps x, builds it again.
    Returns (y, backward), backward(g, data) -> (gx, [gw per tap]); gx is
    None, and its mirrored walk skipped, unless `data`.
    """
    bsz, h, wid, c = x.shape
    cout = taps[0][3].shape[-1]
    s = stride
    (pt, _), (pl, _) = _same_pad(h, kh, s), _same_pad(wid, kw, s)
    hout, wout = -(-h // s), -(-wid // s)
    hq, wq = hout - 1 + -(-kh // s), wout - 1 + -(-kw // s)
    rows = bsz * hq * wq
    phases = [
        ((slice(None), xr, xc), (r, t, slice(None), qr, qc))
        for r, (xr, qr) in enumerate(_phase_slices(h, pt, s))
        for t, (xc, qc) in enumerate(_phase_slices(wid, pl, s))
    ]

    def phase_view(a: np.ndarray):
        """(s, s, B, hq, wq, C) view of a plane laid out for the walker."""
        return a.transpose(3, 4, 0, 1, 2, 5) if fold_phases else a

    shape = (bsz, hq, wq, s, s, c) if fold_phases else (s, s, bsz, hq, wq, c)

    def build_plane() -> np.ndarray:
        plane = np.zeros(shape, x.dtype)
        for xi, qi in phases:
            phase_view(plane)[qi] = x[xi]
        return plane.reshape((1, rows, s * s * c) if fold_phases else (s * s, rows, c))

    flat_taps = [(a * wq + b, p, w) for a, b, p, w in taps]
    reach = max(off for off, _, _ in flat_taps)
    y = np.empty((rows, cout), x.dtype)
    _shifted_taps(build_plane(), flat_taps, y[:rows - reach])  # the rows past it are all cropped
    y = y.reshape(bsz, hq, wq, cout)[:, :hout, :wout]

    def backward(g, data: bool):
        plane = build_plane()
        # g at the plane's width, behind `reach` zero rows: the data gradient is
        # then the same walk over g, with each tap's offset mirrored.
        gpad = np.zeros((1, reach + rows, cout), g.dtype)
        gpad[0, reach:].reshape(bsz, hq, wq, cout)[:, :hout, :wout] = g
        gflat = gpad[0, reach:]
        gws = [
            plane[p, off:off + rows - reach].T @ gflat[:rows - reach] if w.ndim == 2
            else _channel_sum(plane[p, off:off + rows - reach], gflat[:rows - reach])
            for off, p, w in flat_taps
        ]
        if not data:
            return None, gws
        gplane = np.empty_like(plane)  # the walk overwrites every row of each phase a tap reads
        for p in range(len(plane)):
            mirrored = [(reach - off, 0, w.T) for off, q, w in flat_taps if q == p]
            if mirrored:
                _shifted_taps(gpad, mirrored, gplane[p])
            else:  # a phase no tap reads (k < s) has a zero gradient
                gplane[p] = 0
        gx = np.empty_like(x)
        gp = phase_view(gplane.reshape(shape))
        for xi, qi in phases:
            gx[xi] = gp[qi]
        return gx, gws

    return y, backward


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1) -> Tensor:
    """NHWC 'same' convolution. w: (kh, kw, cin, cout); odd pad goes bottom/right.

    A 1x1 stride-1 kernel is one matmul. Any other kernel is a sum of shifted
    matmuls over the flat padded input (`_tap_conv`); stride s first moves each
    s x s pixel block into channels (space-to-depth), which turns the kernel
    into a zero-padded ceil(k/s) x ceil(k/s) kernel over s*s*cin channels.
    The backward computes no data gradient for an x that has no reader
    (`tape._needed`), such as the images under the stem.
    """
    inputs = (x, w) if b is None else (x, w, b)
    _same_dtype("conv2d", *inputs)
    _check_rank("conv2d", x, 4, "NHWC rank-4")
    _check_rank("conv2d", w, 4, "(kh, kw, cin, cout) kernel")
    bsz, h, wid, cin = x.shape
    kh, kw, wcin, cout = w.shape
    if wcin != cin:
        raise DimensionError(f"conv2d: kernel expects {wcin} input channels, tensor has {cin}")
    if b is not None and b.shape != (cout,):
        raise DimensionError(f"conv2d: bias shape {b.shape} does not match {cout} output channels")
    _check_kernel("conv2d", kh, kw, stride)

    if kh == 1 and kw == 1 and stride == 1:
        flat = x.data.reshape(bsz * h * wid, cin)
        y = flat @ w.data.reshape(cin, cout)
        if b is not None:
            y += b.data  # in place on the fresh product
        out = _out(y.reshape(bsz, h, wid, cout), "conv2d")

        def backward1x1(g):
            gf = g.reshape(bsz * h * wid, cout)
            gx = (gf @ w.data.reshape(cin, cout).T).reshape(x.shape) if _needed(0) else None
            gw = (flat.T @ gf).reshape(w.shape)
            return (gx, gw) if b is None else (gx, gw, _channel_sum(gf))

        record(out, inputs, backward1x1)
        return out

    s = stride
    kqh, kqw = -(-kh // s), -(-kw // s)
    wpad = np.zeros((kqh * s, kqw * s, cin, cout), w.dtype)
    wpad[:kh, :kw] = w.data
    # (kqh, s, kqw, s, cin, cout) -> (kqh, kqw, s*s*cin, cout), matching the plane's (s, s, cin) channel order
    wfold = wpad.reshape(kqh, s, kqw, s, cin, cout).transpose(0, 2, 1, 3, 4, 5).reshape(kqh, kqw, s * s * cin, cout)
    taps = [(i, j, 0, wfold[i, j]) for i in range(kqh) for j in range(kqw)]
    y, tap_backward = _tap_conv(x.data, kh, kw, s, taps, fold_phases=True)
    y = y + b.data if b is not None else np.ascontiguousarray(y)
    out = _out(y, "conv2d")

    def backward(g):
        gx, gws = tap_backward(g, _needed(0))
        gw = np.stack(gws).reshape(kqh, kqw, s, s, cin, cout).transpose(0, 2, 1, 3, 4, 5)
        gw = np.ascontiguousarray(gw.reshape(wpad.shape)[:kh, :kw])
        return (gx, gw) if b is None else (gx, gw, _channel_sum(g))

    record(out, inputs, backward)
    return out


def depthwise_conv2d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """Per-channel NHWC 'same' convolution. w: (kh, kw, c); no channel mixing.

    A sum of shifted elementwise products over the flat padded input
    (`_tap_conv`); stride s reads tap (i, j) from phase plane (i % s, j % s).
    """
    _same_dtype("depthwise_conv2d", x, w)
    _check_rank("depthwise_conv2d", x, 4, "NHWC rank-4")
    _check_rank("depthwise_conv2d", w, 3, "(kh, kw, c) kernel")
    bsz, h, wid, c = x.shape
    kh, kw, wc = w.shape
    if wc != c:
        raise DimensionError(f"depthwise_conv2d: kernel has {wc} channels, tensor has {c}")
    _check_kernel("depthwise_conv2d", kh, kw, stride)
    s = stride
    taps = [(i // s, j // s, (i % s) * s + j % s, w.data[i, j]) for i in range(kh) for j in range(kw)]
    y, tap_backward = _tap_conv(x.data, kh, kw, s, taps, fold_phases=False)
    out = _out(np.ascontiguousarray(y), "depthwise_conv2d")

    def backward(g):
        gx, gws = tap_backward(g, _needed(0))
        return gx, np.stack(gws).reshape(w.shape)

    record(out, (x, w), backward)
    return out


def avg_pool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k mean pooling; spatial extents must divide by k."""
    _check_rank("avg_pool2d", x, 4, "NHWC rank-4")
    bsz, h, w, c = x.shape
    k = _int_arg("avg_pool2d", "pool size", k, error=PartitionError)
    if h % k or w % k:
        raise PartitionError(f"avg_pool2d: pool size {k} does not divide extent ({h}, {w})")
    # the k*k strided slices summed into one fresh array: no 6-D reduction with a k-long inner loop
    first, *rest = (x.data[:, i::k, j::k] for i in range(k) for j in range(k))
    y = first.copy()
    for part in rest:
        y += part
    y /= k * k
    out = _out(y, "avg_pool2d")

    def backward(g):
        g = g[:, :, None, :, None, :] / (k * k)
        g = np.broadcast_to(g, (bsz, h // k, k, w // k, k, c))
        return (g.reshape(bsz, h, w, c).copy(),)

    record(out, (x,), backward)
    return out


# -- indexed gather -------------------------------------------------------------

def gather_rows(table: Tensor, index: np.ndarray) -> Tensor:
    """out[..., i, j] = table[..., index[i, j]]; backward scatter-adds into the table.

    `table` is (heads, entries) and `index` an integer array, typically the
    (L, L) relative-displacement index of an attention window.
    """
    _check_rank("gather_rows", table, 2, "a (heads, entries) table")
    idx = np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DataError("gather_rows: index must be integral")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[1]):
        raise DataError(
            f"gather_rows: index range [{idx.min()}, {idx.max()}] exceeds table entries {table.shape[1]}"
        )
    out = _out(table.data[:, idx], "gather_rows")

    def backward(g):
        gt = np.zeros_like(table.data)
        flat_idx = idx.ravel()
        gflat = g.reshape(table.shape[0], flat_idx.size)
        for head in range(table.shape[0]):  # one-dimensional np.add.at has numpy's fast path
            np.add.at(gt[head], flat_idx, gflat[head])
        return (gt,)

    record(out, (table,), backward)
    return out


# -- losses ----------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels.

    logits: (batch, classes), labels: (batch,) ints in [0, classes).
    """
    _check_rank("softmax_cross_entropy", logits, 2, "(batch, classes) logits")
    y = np.asarray(labels)
    bsz, k = logits.shape
    if bsz == 0:
        raise DimensionError(f"softmax_cross_entropy: empty batch, logits shape {logits.shape}")
    if y.shape != (bsz,) or not np.issubdtype(y.dtype, np.integer):
        raise DataError(f"softmax_cross_entropy: labels must be {bsz} ints, got {y.shape} {y.dtype}")
    if y.min() < 0 or y.max() >= k:
        raise DataError(f"softmax_cross_entropy: label out of range [0, {k})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    nll = logsumexp - z[np.arange(bsz), y]
    out = _out(np.asarray(nll.mean(), dtype=logits.dtype), "softmax_cross_entropy")

    def backward(g):
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(bsz), y] -= 1.0
        return (p * (g / bsz),)

    record(out, (logits,), backward)
    return out


def emd_loss(p: Tensor, q: Tensor, r: float = 2.0) -> Tensor:
    """Mallows distance between two discrete distributions over ordered bins.

    ((1/N) * sum_k |CDF_p(k) - CDF_q(k)|^r) ** (1/r) along the last axis,
    averaged over any leading batch axes. Exact metric for normalized inputs.
    """
    _same_dtype("emd_loss", p, q)
    if p.shape != q.shape:
        raise DimensionError(f"emd_loss: shapes {p.shape} and {q.shape} differ")
    _check_rank("emd_loss", p, 1, "(..., bins)", at_least=True)
    if not _finite_real(r) or r < 1.0:
        raise DataError(f"emd_loss: order r must be a finite number >= 1, got {r!r}")
    if p.size == 0:
        raise DimensionError(f"emd_loss: empty input of shape {p.shape}")
    n = p.shape[-1]
    diff = np.cumsum(p.data - q.data, axis=-1)
    powed = np.abs(diff) ** r
    inner = powed.mean(axis=-1)
    per = inner ** (1.0 / r)
    out = _out(np.asarray(per.mean(), dtype=p.dtype), "emd_loss")
    batch = per.size

    def backward(g):
        # d per / d diff_k = per**(1-r)/N * |d_k|^(r-1) * sign(d_k); reverse-cumsum maps to p.
        safe = np.where(per > 0, per, 1.0)
        coeff = (safe ** (1.0 - r))[..., None] / n
        dd = coeff * np.abs(diff) ** (r - 1.0) * np.sign(diff)
        dd = np.where(per[..., None] > 0, dd, 0.0)
        dp = np.flip(np.cumsum(np.flip(dd, axis=-1), axis=-1), axis=-1) * (g / batch)
        return dp, -dp

    record(out, (p, q), backward)
    return out
