"""Tensor container, keys, dtype policy, and the on-disk tensor format."""

import copy
import pickle

import numpy as np
import pytest

from maxvit.checks import MINIATURE
from maxvit.errors import DataError, DimensionError
from maxvit.model import build_model, named_parameters, with_window
from maxvit.tensor import (
    Tensor,
    dump_tensor_bytes,
    load_tensor,
    parse_tensor_bytes,
    save_tensor,
    tensor,
    zeros,
)


def test_tensor_is_c_contiguous_and_readonly():
    t = tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.data.flags.c_contiguous
    assert not t.data.flags.writeable
    with pytest.raises(ValueError):
        t.data[0, 0] = 9.0


def test_flat_buffer_is_row_major():
    t = tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.data.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]
    assert t.size == 4 and t.shape == (2, 2)


def test_constructor_copies_caller_data():
    src = np.ones((2, 2), dtype=np.float32)
    t = tensor(src)
    src[0, 0] = 7.0
    assert t.data[0, 0] == 1.0


def test_default_dtype_is_f32():
    assert tensor([1.0]).dtype == np.float32
    assert zeros((3,)).dtype == np.float32


def test_dtype_override():
    assert tensor([1.0], dtype=np.float64).dtype == np.float64


def test_integer_buffers_rejected():
    with pytest.raises(DataError):
        Tensor(np.arange(4))


def test_item_requires_scalar():
    with pytest.raises(DimensionError):
        tensor([1.0, 2.0]).item()
    assert tensor(3.5).item() == 3.5


# -- keys ---------------------------------------------------------------------

def test_copies_and_pickles_never_share_a_key():
    t = tensor([[1.0, 2.0], [3.0, 4.0]])
    twins = [copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))]
    alive = [t, *twins]
    assert len({a.key for a in alive}) == len(alive)
    for twin in twins:
        assert type(twin) is Tensor and twin.dtype == t.dtype
        assert np.array_equal(twin.data, t.data) and not twin.data.flags.writeable
    assert twins[0].data is t.data  # a shallow copy aliases the read-only buffer
    holder = {"a": t, "b": [t, t]}
    deep = copy.deepcopy(holder)
    assert deep["a"] is deep["b"][0] is deep["b"][1]  # one tensor stays one tensor
    assert deep["a"].key != t.key


def test_with_window_shares_parameter_tensors_and_their_keys():
    model = build_model(MINIATURE, num_classes=2, seed=0)
    moved = with_window(model, 4)
    base = dict(named_parameters(model))
    for name, t in named_parameters(moved):
        if "bias_table" in name:
            assert t.key not in {b.key for b in base.values()}, name
        else:
            assert t is base[name] and t.key == base[name].key, name
    both = {id(t): t for _, t in named_parameters(model) + named_parameters(moved)}
    assert len({t.key for t in both.values()}) == len(both)


# -- serialization ------------------------------------------------------------

def test_serialization_header_format():
    raw = dump_tensor_bytes(tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    header, _, body = raw.partition(b"\n")
    assert header == b"f32 2 2 3"
    assert len(body) == 6 * 4


def test_serialization_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(), (5,), (2, 3), (2, 3, 4), (1, 2, 1, 2)]:
        for dt in (np.float32, np.float64):
            t = Tensor(rng.standard_normal(shape).astype(dt))
            path = tmp_path / "t.tensor"
            save_tensor(t, path)
            back = load_tensor(path)
            assert back.dtype == t.dtype
            assert back.shape == t.shape
            assert back.data.tobytes() == t.data.tobytes()


def test_serialization_golden_bytes():
    # Frozen fixture: f64 vector [1.0, -2.0]; little-endian IEEE754 doubles.
    golden = b"f64 1 2\n" + bytes.fromhex("000000000000f03f") + bytes.fromhex("00000000000000c0")
    t = parse_tensor_bytes(golden)
    assert t.shape == (2,) and t.dtype == np.float64
    assert t.tolist() == [1.0, -2.0]
    assert dump_tensor_bytes(t) == golden


def test_serialization_rejects_corrupt_input():
    good = dump_tensor_bytes(tensor([1.0, 2.0]))
    with pytest.raises(DataError):
        parse_tensor_bytes(good[:-1])  # truncated payload
    with pytest.raises(DataError):
        parse_tensor_bytes(b"f99 1 2\n" + b"\x00" * 8)  # unknown dtype
    with pytest.raises(DataError):
        parse_tensor_bytes(b"f32 2 2\n" + b"\x00" * 16)  # rank/extent mismatch
    with pytest.raises(DataError):
        parse_tensor_bytes(b"no header here")
    with pytest.raises(DataError):
        parse_tensor_bytes(b"f32 2 4294967296 4294967296\n")  # an int64 product wraps to 0
    with pytest.raises(DataError):
        parse_tensor_bytes(b"f32 2 0 1180591620717411303424\n")  # zero elements, an extent past 2**63
