"""Reverse-mode autodiff over a linear tape of primitive-op records.

Each primitive op appends one entry while a tape is active: the output tensor,
its input tensors, and a backward callable mapping the output cotangent to one
cotangent per input (or None for inputs the op does not differentiate).
A backward rule keeps its inputs and per-channel statistics; an intermediate
that one pass over those can rebuild (a norm's xhat, a conv's padded input)
is rebuilt in the backward rather than kept.
`gradient` replays the tape in reverse, accumulating cotangents by tensor
identity. Parameters that do not influence the loss get exact-zero gradients.

The sweep frees as it goes: it takes the entry list off the tape, drops each
entry (and with it the activations its backward captured) once it has run,
and drops each intermediate cotangent once its entry has read it, so the
forward's and the backward's arrays are never all alive at once. A tape is
therefore single-use: a second `gradient` call raises `ConfigError`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError
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
        self._swept = False

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

        The sweep consumes the tape: each entry is released once its backward
        has run, and each cotangent that is not one of `params` once its
        entry has read it. A tape yields gradients once; calling `gradient`
        again raises `ConfigError`. Entries shared with an enclosing tape stay
        on that tape, so the outer tape can still be swept afterwards.
        """
        if self._swept:
            raise ConfigError("gradient() was already called on this tape; a tape yields gradients once")
        if output.size != 1:
            raise DimensionError(f"gradient() needs a scalar output, got shape {output.shape}")
        self._swept = True
        entries, self._entries = self._entries, []
        keep = {id(p) for p in params}
        pending = {id(e.out) for e in entries}  # outputs of entries not yet swept
        grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
        while entries:
            entry = entries.pop()
            key = id(entry.out)
            pending.discard(key)
            g_out = grads.get(key) if key in keep else grads.pop(key, None)
            if g_out is not None:
                _accumulate(grads, entry.inputs, entry.backward(g_out), keep, pending)
            del entry, g_out
        out: list[Tensor] = []
        for p in params:
            g = grads.get(id(p))
            out.append(Tensor(np.asarray(g).copy()) if g is not None else Tensor(np.zeros_like(p.data)))
        return out


def _accumulate(grads, inputs, g_inputs, keep, pending) -> None:
    """Add one entry's input cotangents into `grads`.

    Only inputs that are requested parameters or outputs of entries still to
    be swept are stored; any other cotangent (a data leaf's) has no reader.
    """
    for inp, g in zip(inputs, g_inputs):
        if g is None:
            continue
        if g.shape != inp.shape:
            raise DimensionError(
                f"backward produced gradient of shape {g.shape} for input of shape {inp.shape}"
            )
        key = id(inp)
        if key not in keep and key not in pending:
            continue
        acc = grads.get(key)
        if acc is None:
            grads[key] = g.astype(inp.dtype, copy=False)
        else:
            grads[key] = acc + g


def active_tape() -> Optional[GradTape]:
    return _ACTIVE[-1] if _ACTIVE else None


def record(out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
    """Append one op record to every active tape (outer tapes see inner work)."""
    if _ACTIVE:
        entry = _Entry(out, inputs, backward)
        for tape in _ACTIVE:
            tape._entries.append(entry)
