"""Reverse-mode gradients against central differences, plus tape semantics."""

import weakref

import numpy as np
import pytest

from maxvit import ops
from maxvit.checks import MINIATURE
from maxvit.errors import ConfigError, DimensionError, NumericError
from maxvit.gradcheck import GRAD_TOL, grad_check, primitive_cases
from maxvit.model import TOY_VARIANT, build_model, forward
from maxvit.tape import GradTape, record
from maxvit.tensor import Tensor, tensor


def test_hand_case_sum_of_squares():
    # f(w) = sum(w^2), df/dw = 2w: both routes must agree to machine-level.
    w = Tensor(np.array([1.0, -2.0, 3.0]))
    with GradTape() as tape:
        y = ops.reduce_sum(ops.mul(w, w))
    (g,) = tape.gradient(y, [w])
    np.testing.assert_allclose(g.data, 2 * w.data, rtol=1e-14)
    assert grad_check(lambda v: ops.reduce_sum(ops.mul(v, v)), [w]) < GRAD_TOL


@pytest.mark.parametrize("case", primitive_cases(seed=0), ids=lambda c: c[0])
def test_primitive_gradients(case):
    name, fn, params = case
    assert grad_check(fn, params) < GRAD_TOL, name


def test_grad_check_catches_wrong_gradient():
    # a corrupted backward rule must produce a large reported error
    def bad_op(x):
        out = Tensor(np.asarray((x.data ** 3).sum()))
        from maxvit.tape import record

        record(out, (x,), lambda g: (g * 2.0 * x.data,))  # wrong: should be 3x^2
        return out

    err = grad_check(bad_op, [Tensor(np.array([1.5, -0.5]))])
    assert err > 0.1


def test_unused_parameter_gets_exact_zero_gradient():
    used = Tensor(np.array([2.0]))
    unused = Tensor(np.array([5.0, 6.0]))
    with GradTape() as tape:
        y = ops.reduce_sum(ops.mul(used, used))
    g_used, g_unused = tape.gradient(y, [used, unused])
    assert g_used.data.tolist() == [4.0]
    assert g_unused.shape == (2,)
    assert np.all(g_unused.data == 0.0)


def test_zero_dim_parameter_gets_zero_dim_gradient():
    w = Tensor(np.array(3.0))
    with GradTape() as tape:
        y = ops.reduce_sum(ops.mul(w, w))
    (g,) = tape.gradient(y, [w])
    assert g.shape == () and g.item() == 6.0


def test_parameter_reuse_accumulates():
    w = Tensor(np.array([3.0]))
    with GradTape() as tape:
        y = ops.reduce_sum(ops.add(ops.mul(w, w), w))  # w^2 + w -> 2w + 1
    (g,) = tape.gradient(y, [w])
    assert g.data.tolist() == [7.0]


def test_gradient_requires_scalar_output():
    w = Tensor(np.array([1.0, 2.0]))
    with GradTape() as tape:
        y = ops.mul(w, w)
    with pytest.raises(DimensionError):
        tape.gradient(y, [w])


def test_no_tape_records_outside_context():
    w = Tensor(np.array([1.0, 2.0]))
    tape = GradTape()
    with tape:
        pass
    ops.mul(w, w)  # outside the context: nothing recorded
    assert len(tape) == 0


def test_nested_tapes_record_independently():
    w = Tensor(np.array([2.0]))
    with GradTape() as outer:
        ops.mul(w, w)
        with GradTape() as inner:
            ops.mul(w, w)
    assert len(inner) == 1
    assert len(outer) == 2  # outer also sees the inner op


def test_tape_yields_gradients_once():
    w = Tensor(np.array([3.0]))
    with GradTape() as tape:
        y = ops.reduce_sum(ops.mul(w, w))
    (g,) = tape.gradient(y, [w])
    assert g.data.tolist() == [6.0]
    with pytest.raises(ConfigError):
        tape.gradient(y, [w])


def test_sweep_frees_entries_and_cotangents_as_it_goes():
    # y = sum(h^2), h = 3w. When h's own backward runs, the later entries'
    # activation (h^2) and the cotangent they handed down must already be gone.
    w = Tensor(np.array([1.0, -2.0]))
    refs = {}

    def h_backward(g):
        assert refs["activation"]() is None, "the swept entries still hold their activation"
        assert refs["cotangent"]() is None, "the consumed cotangent is still held"
        return (3.0 * g,)

    def sq_backward(g):
        refs["cotangent"] = weakref.ref(g)
        return (2.0 * h.data * g,)

    with GradTape() as tape:
        h = Tensor(3.0 * w.data)
        record(h, (w,), h_backward)
        z = Tensor(np.square(h.data))
        record(z, (h,), sq_backward)
        refs["activation"] = weakref.ref(z.data)
        y = ops.reduce_sum(z)
    del z
    (g,) = tape.gradient(y, [w])
    assert g.data.tolist() == [18.0, -36.0]  # d/dw sum(9 w^2) = 18 w


def _outer_gradient(sweep_inner: bool):
    w = Tensor(np.array([0.5, -1.5, 2.0]))
    with GradTape() as outer:
        a = ops.mul(w, w)
        with GradTape() as inner:
            b = ops.mul(a, w)
            inner_loss = ops.reduce_sum(b)
        if sweep_inner:
            g_w, g_a = inner.gradient(inner_loss, [w, a])
            # the inner tape saw only b = a * w, with a a leaf
            assert np.array_equal(g_w.data, a.data) and np.array_equal(g_a.data, w.data)
        y = ops.reduce_sum(ops.add(ops.mul(b, b), a))  # sum(w^6 + w^2)
    return outer.gradient(y, [w, a])


def test_outer_tape_survives_inner_sweep():
    swept = _outer_gradient(sweep_inner=True)
    plain = _outer_gradient(sweep_inner=False)
    for got, want in zip(swept, plain):
        assert np.array_equal(got.data, want.data)
    w = np.array([0.5, -1.5, 2.0])
    np.testing.assert_allclose(swept[0].data, 6 * w**5 + 2 * w, rtol=1e-14)


def test_gradients_stay_exact_when_dead_intermediates_ids_are_reused():
    # Each round spreads h into three reshaped copies and sums them: the
    # copies and partial sums die when the round ends (shape-only rules keep
    # no tensor), and CPython hands their ids to the next round's tensors.
    # h ends as 3^n x + (3^n - 1) / 2 c; the tape must keep the cotangents of
    # the freed tensors and of the new ones with their ids apart.
    x = Tensor(np.array([[1.0, -2.0, 3.0], [0.5, 4.0, -1.0]]))
    c = Tensor(np.array([1.0, 2.0, -1.0, 0.0, 3.0, -2.0]))
    rounds, ids = 6, []
    with GradTape() as tape:
        h = x
        for _ in range(rounds):
            parts = [ops.reshape(h, (6,)) for _ in range(3)]
            total = ops.add(ops.add(parts[0], parts[1]), ops.add(parts[2], c))
            ids += [id(t) for t in parts] + [id(total)]
            h = ops.reshape(total, (2, 3))
            del parts, total
        loss = ops.reduce_sum(ops.mul(h, h))
    assert len(set(ids)) < len(ids), "no id was reused; the test shows nothing"
    gx, gc = tape.gradient(loss, [x, c])
    k = 3.0**rounds
    h = k * x.data + (k - 1) / 2 * c.data.reshape(2, 3)
    assert np.array_equal(gx.data, 2.0 * k * h)
    assert np.array_equal(gc.data, ((k - 1) * h).reshape(6))


def test_tape_entries_hold_keys_not_tensors():
    model = build_model(MINIATURE, num_classes=2, seed=0)
    images = Tensor(np.random.default_rng(0).standard_normal((2, 28, 28, 3)).astype(np.float32))
    with GradTape() as tape:
        ops.softmax_cross_entropy(forward(model, images, training=True), np.array([0, 1]))
    assert len(tape) > 100
    for entry in tape._entries:
        assert type(entry.out) is int and callable(entry.backward)
        for key, shape, dtype in entry.inputs:
            assert type(key) is int and isinstance(dtype, np.dtype)
            assert type(shape) is tuple and all(type(d) is int for d in shape)


_SHAPE_ONLY_CASES = {
    "reshape": lambda x: ops.reshape(x, (2, 64, 4)),
    "add": lambda x: ops.add(x, Tensor(np.ones(4))),
    "reduce_sum": lambda x: ops.reduce_sum(x, axes=(1, 2)),
    "reduce_mean": lambda x: ops.reduce_mean(x, axes=(1, 2), keepdims=True),
    "avg_pool2d": lambda x: ops.avg_pool2d(x, 2),
    "transpose": lambda x: ops.transpose(x, (0, 3, 1, 2)),
    "scale": lambda x: ops.scale(x, 0.5),
}


@pytest.mark.parametrize("name", list(_SHAPE_ONLY_CASES))
def test_shape_only_backwards_capture_no_array(name):
    x = Tensor(np.random.default_rng(4).standard_normal((2, 8, 8, 4)))
    with GradTape() as tape:
        _SHAPE_ONLY_CASES[name](x)
    (entry,) = tape._entries
    assert _captured_arrays(entry.backward) == [], f"{name} backward keeps an array"


def _captured_arrays(fn) -> list[np.ndarray]:
    """Every ndarray a backward closure holds, through nested functions, containers and Tensors."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # empty cell
                    pass
    return found


def _buffer(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _affines(r):
    return [Tensor(r.standard_normal(4)) for _ in "gb"]


_RETENTION_CASES = {
    "batch_norm_train": lambda x, r: ops.batch_norm_train(x, *_affines(r))[0],
    "batch_norm_train+gelu": lambda x, r: ops.batch_norm_train(x, *_affines(r), gelu=True)[0],
    "batch_norm_inference+gelu": lambda x, r: ops.batch_norm_inference(
        x, *_affines(r), r.standard_normal(4), r.random(4) + 0.5, gelu=True
    ),
    "gelu+bias": lambda x, r: ops.gelu(x, Tensor(r.standard_normal(4))),
    "layer_norm": lambda x, r: ops.layer_norm(x, *(Tensor(r.standard_normal(4)) for _ in "gb")),
    "conv2d-3x3-s1": lambda x, r: ops.conv2d(x, Tensor(r.standard_normal((3, 3, 4, 4))), Tensor(r.standard_normal(4))),
    "conv2d-3x3-s2": lambda x, r: ops.conv2d(x, Tensor(r.standard_normal((3, 3, 4, 4))), stride=2),
    "depthwise-3x3-s1": lambda x, r: ops.depthwise_conv2d(x, Tensor(r.standard_normal((3, 3, 4)))),
    "depthwise-3x3-s2": lambda x, r: ops.depthwise_conv2d(x, Tensor(r.standard_normal((3, 3, 4))), stride=2),
}


_KEEPS_OUTPUT = {"batch_norm_train+gelu", "batch_norm_inference+gelu", "gelu+bias"}


@pytest.mark.parametrize("name", list(_RETENTION_CASES))
def test_backward_keeps_no_input_sized_array_but_the_input(name):
    """A backward rule keeps its input and small statistics; xhat, the biased sum and padded planes are rebuilt.

    A GELU, fused behind a norm or a bias, also keeps its output, to read Phi
    from it, and no other rule keeps its output. That the GELU output costs
    no memory in the model is checked over the toy forward's whole tape
    (`test_toy_forward_tape_keeps_each_gelu_output_once`).
    """
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((2, 8, 8, 4)))
    with GradTape() as tape:
        out = _RETENTION_CASES[name](x, rng)
    (entry,) = tape._entries
    held = _captured_arrays(entry.backward)
    own, out_buf = _buffer(x.data), _buffer(out.data)
    extra = [a for a in held if a.nbytes >= x.data.nbytes and _buffer(a) is not own and _buffer(a) is not out_buf]
    assert not extra, f"{name} backward keeps input-sized arrays {[a.shape for a in extra]}"
    keeps_output = any(_buffer(a) is out_buf for a in held)
    assert keeps_output == (name in _KEEPS_OUTPUT), f"{name} backward keeps its output: {keeps_output}"
    assert any(_buffer(a) is own for a in held), "the walk never reached the input"


def test_toy_forward_tape_keeps_each_gelu_output_once(monkeypatch):
    """The GELU backwards keep their outputs (as softmax and sigmoid do), yet the
    distinct buffers that the toy forward's tape keeps alive are the same set
    without every backward's reference to its own output: each such output is
    also kept by the op that reads it (a conv, the SE mul, fc2, attn @ v)."""
    outputs = []
    recorded = ops.record

    def record_output(out, inputs, backward):
        outputs.append(out.data)
        recorded(out, inputs, backward)

    model = build_model(TOY_VARIANT, num_classes=2, seed=0)
    images = Tensor(np.random.default_rng(22).standard_normal((2, 112, 112, 3)).astype(np.float32))
    monkeypatch.setattr(ops, "record", record_output)
    with GradTape() as tape:
        forward(model, images, training=True)
    assert len(outputs) == len(tape._entries)
    held = [{id(_buffer(a)) for a in _captured_arrays(e.backward)} for e in tape._entries]
    own_out = [id(_buffer(o)) for o in outputs]
    keepers = {i for i, (h, o) in enumerate(zip(held, own_out)) if o in h}
    gelus = {i for i, e in enumerate(tape._entries) if "gelu" in e.backward.__qualname__}
    assert len(gelus) == 13 and gelus <= keepers  # the stem's, 2 per MBConv and 1 per MLP, 3 blocks
    assert set().union(*held) == set().union(*(h - {o} for h, o in zip(held, own_out)))


def test_grad_check_rejects_nonfinite_function():
    def exploder(x):
        out = Tensor(np.asarray(np.inf))
        from maxvit.tape import record

        record(out, (x,), lambda g: (np.zeros_like(x.data),))
        return out

    with pytest.raises(NumericError):
        grad_check(exploder, [Tensor(np.array([1.0]))])


def test_grad_check_eps_bounds():
    with pytest.raises(NumericError):
        grad_check(lambda x: ops.reduce_sum(x), [tensor([1.0])], eps=1e-2)


def test_gradients_preserve_dtype():
    w32 = tensor([1.0, 2.0])
    with GradTape() as tape:
        y = ops.reduce_sum(ops.mul(w32, w32))
    (g,) = tape.gradient(y, [w32])
    assert g.dtype == np.float32


def test_grids_and_blocks_end_to_end_gradient():
    from maxvit.axes import block, grid, unblock, ungrid

    def f(x):
        y = block(x, 2)
        y = unblock(y, 4, 4, 2)
        z = grid(y, 2)
        z = ungrid(z, 4, 4, 2)
        return ops.reduce_mean(ops.mul(z, z))

    x = Tensor(np.random.default_rng(0).standard_normal((1, 4, 4, 2)))
    assert grad_check(f, [x]) < GRAD_TOL
