"""Dense tensors over flat row-major buffers, precision control, serialization.

A Tensor is an immutable view of a C-contiguous numpy array. All differentiable
ops live in ops.py; this module only defines the container, dtype policy, and
the on-disk format (one ASCII header line, then raw little-endian data).
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Iterable, Union

import numpy as np

from .errors import DataError, DimensionError

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "default_dtype",
    "debug_checks_enabled",
    "set_debug_checks",
    "save_tensor",
    "load_tensor",
    "dump_tensor_bytes",
    "parse_tensor_bytes",
]

# 32-bit is the working precision; 64-bit is the verification mode used by
# gradient checking. MAXVIT_F64=1, read once at import, is the one switch of
# the process-wide default.
_DEFAULT_DTYPE = np.dtype(np.float64 if os.environ.get("MAXVIT_F64") == "1" else np.float32)
_DEBUG_CHECKS = os.environ.get("MAXVIT_DEBUG") == "1"

_SUPPORTED = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_BY_NAME = {v: k for k, v in _SUPPORTED.items()}


def default_dtype() -> np.dtype:
    return _DEFAULT_DTYPE


def debug_checks_enabled() -> bool:
    return _DEBUG_CHECKS


def set_debug_checks(enabled: bool) -> None:
    """When enabled, every op output is scanned for NaN/Inf (slow, test aid)."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


# One process-wide source of tensor keys. A key, unlike id(), is never reused
# by a later tensor, so the tape can name a tensor that has since been freed.
_KEYS = itertools.count()


class Tensor:
    """Immutable n-d array of f32 or f64 scalars.

    `data` is guaranteed C-contiguous and read-only, so the flat buffer is
    exactly the row-major element sequence and may be aliased freely.
    `key` is an integer no other tensor of the process has; copies, deep
    copies and unpickled tensors are new tensors with keys of their own.
    """

    __slots__ = ("data", "key")

    def __init__(self, data: np.ndarray):
        if not isinstance(data, np.ndarray):
            raise DataError(f"Tensor expects ndarray, got {type(data).__name__}")
        if data.dtype not in _SUPPORTED:
            raise DataError(f"unsupported dtype {data.dtype}")
        # ascontiguousarray would promote rank-0 to rank-1; 0-d is always contiguous
        arr = data if data.flags.c_contiguous else np.ascontiguousarray(data)
        if arr.flags.writeable:
            arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "key", next(_KEYS))

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__, which draws a fresh key
        return Tensor, (self.data,)

    # -- shape introspection ------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def tolist(self):
        return self.data.tolist()

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(np.dtype(dtype)))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={_SUPPORTED[self.dtype]})"


# -- constructors -----------------------------------------------------------

def tensor(values: Union[Iterable, np.ndarray, float, int], dtype=None) -> Tensor:
    """Build a Tensor from nested lists / scalars / an array (data is copied)."""
    dt = np.dtype(dtype) if dtype is not None else default_dtype()
    return Tensor(np.array(values, dtype=dt, order="C"))


def zeros(shape, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype or default_dtype()))


def ones(shape, dtype=None) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype or default_dtype()))


# -- serialization ----------------------------------------------------------
# Format: one ASCII line "dtype rank d0 d1 ... dk\n", then size*itemsize bytes
# of little-endian row-major data. A rank-0 tensor has no extents on the line.

def dump_tensor_bytes(t: Tensor) -> bytes:
    name = _SUPPORTED[t.dtype]
    header = " ".join([name, str(t.ndim)] + [str(d) for d in t.shape])
    little = t.data.astype(t.dtype.newbyteorder("<"), copy=False)
    return header.encode("ascii") + b"\n" + little.tobytes(order="C")


def parse_tensor_bytes(raw: bytes) -> Tensor:
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataError("truncated tensor: missing header line")
    fields = raw[:nl].decode("ascii", errors="replace").split()
    if len(fields) < 2 or fields[0] not in _BY_NAME:
        raise DataError(f"bad tensor header {fields!r}")
    dt = _BY_NAME[fields[0]]
    try:
        rank = int(fields[1])
        dims = [int(d) for d in fields[2:]]
    except ValueError as e:
        raise DataError(f"bad tensor header {fields!r}") from e
    if rank != len(dims) or rank < 0 or any(d < 0 for d in dims):
        raise DataError(f"bad tensor header {fields!r}")
    count = math.prod(dims)
    body = raw[nl + 1 :]
    expect = count * dt.itemsize
    if len(body) != expect:
        raise DataError(f"tensor payload is {len(body)} bytes, header implies {expect}")
    arr = np.frombuffer(body, dtype=dt.newbyteorder("<"), count=count).astype(dt)
    try:
        return Tensor(arr.reshape(dims))
    except ValueError as e:  # a zero count whose other extents overflow numpy's index range
        raise DataError(f"bad tensor header {fields!r}") from e


def save_tensor(t: Tensor, path) -> None:
    with open(path, "wb") as f:
        f.write(dump_tensor_bytes(t))


def load_tensor(path) -> Tensor:
    with open(path, "rb") as f:
        return parse_tensor_bytes(f.read())
