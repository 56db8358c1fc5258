"""Reverse-mode autodiff over a linear tape of primitive-op records.

Each primitive op appends one entry while a tape is active: the output tensor,
its input tensors, and a backward callable mapping the output cotangent to one
cotangent per input (or None for inputs the op does not differentiate).
`gradient` replays the tape in reverse, accumulating cotangents by tensor
identity. Parameters that do not influence the loss get exact-zero gradients.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError
from .tensor import Tensor

__all__ = ["GradTape", "active_tape", "record"]

_ACTIVE: list["GradTape"] = []


class _Entry:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class GradTape:
    """Context manager recording every primitive op executed inside it."""

    def __init__(self):
        self._entries: list[_Entry] = []

    def __enter__(self) -> "GradTape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _ACTIVE.pop()
        assert popped is self, "tapes must unwind in LIFO order"

    def __len__(self) -> int:
        return len(self._entries)

    def gradient(self, output: Tensor, params: Sequence[Tensor]) -> list[Tensor]:
        """Cotangents of a scalar `output` with respect to each of `params`.

        Tensors among `params` that the recorded computation never used (or
        that only feed non-differentiable arguments) come back as zeros of
        the parameter's own shape and dtype.
        """
        if output.size != 1:
            raise DimensionError(f"gradient() needs a scalar output, got shape {output.shape}")
        grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
        for entry in reversed(self._entries):
            g_out = grads.get(id(entry.out))
            if g_out is None:
                continue
            g_inputs = entry.backward(g_out)
            for inp, g in zip(entry.inputs, g_inputs):
                if g is None:
                    continue
                if g.shape != inp.shape:
                    raise DimensionError(
                        f"backward produced gradient of shape {g.shape} for input of shape {inp.shape}"
                    )
                acc = grads.get(id(inp))
                if acc is None:
                    grads[id(inp)] = g.astype(inp.dtype, copy=False)
                else:
                    grads[id(inp)] = acc + g
        out: list[Tensor] = []
        for p in params:
            g = grads.get(id(p))
            out.append(Tensor(np.asarray(g).copy()) if g is not None else Tensor(np.zeros_like(p.data)))
        return out


def active_tape() -> Optional[GradTape]:
    return _ACTIVE[-1] if _ACTIVE else None


def record(out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
    """Append one op record to every active tape (outer tapes see inner work)."""
    if _ACTIVE:
        entry = _Entry(out, inputs, backward)
        for tape in _ACTIVE:
            tape._entries.append(entry)
