"""Reverse-mode autodiff over a linear tape of primitive-op records.

Each primitive op appends one entry while a tape is active: the output
tensor's key, the key, shape and dtype of each input, and a backward callable
mapping the output cotangent to one cotangent per input (or None for inputs
the op does not differentiate). Entries hold no tensors: a tensor lives only
as long as the caller or a backward rule that reads it holds it. A backward
rule keeps only what it reads: its inputs' data and per-channel statistics,
or just a shape when that is all it needs. An intermediate that one pass
over those can rebuild (a norm's xhat, a conv's padded input) is rebuilt in
the backward rather than kept. An output that the next op keeps anyway costs
nothing to read: a GELU's backward takes Phi as its output over its input.
`gradient` replays the tape in reverse, accumulating cotangents by tensor
key (`Tensor.key`, never reused, unlike the id of a freed tensor).
Parameters that do not influence the loss get exact-zero gradients.

The sweep frees as it goes: it takes the entry list off the tape, drops each
entry (and with it the activations its backward captured) once it has run,
and drops each intermediate cotangent once its entry has read it, so the
forward's and the backward's arrays are never all alive at once. A tape is
therefore single-use: a second `gradient` call raises `ConfigError`. While a
backward rule runs, `_needed(i)` says whether its input i has a reader, so a
rule can skip a cotangent that would be dropped (a convolution's image
gradient).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .tensor import Tensor

__all__ = ["GradTape", "active_tape", "record"]

_ACTIVE: list["GradTape"] = []
_SWEEP: list[tuple[bool, ...]] = []  # per running backward rule: which inputs of its entry have a reader


class _Entry:
    """One op record: `out` is the output's key, `inputs` one (key, shape, dtype) per input."""

    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out: int, inputs: tuple[tuple[int, tuple[int, ...], np.dtype], ...], backward: Callable):
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

        Cotangents are accumulated by tensor key. Tensors among `params` that
        the recorded computation never used (or that only feed
        non-differentiable arguments) come back as zeros of the parameter's
        own shape and dtype. A non-Tensor `output`, or `params` that is not a
        list or tuple of Tensors (a bare Tensor, say), raises `DataError`.

        The sweep consumes the tape: each entry is released once its backward
        has run, and each cotangent that is not one of `params` once its
        entry has read it. A tape yields gradients once; calling `gradient`
        again raises `ConfigError`. Entries shared with an enclosing tape stay
        on that tape, so the outer tape can still be swept afterwards.
        """
        if self._swept:
            raise ConfigError("gradient() was already called on this tape; a tape yields gradients once")
        if not isinstance(output, Tensor):
            raise DataError(f"gradient() needs a Tensor output, got {type(output).__name__}")
        if not isinstance(params, (list, tuple)) or not all(isinstance(p, Tensor) for p in params):
            raise DataError(f"gradient() needs a list or tuple of Tensor params, got {params!r}")
        if output.size != 1:
            raise DimensionError(f"gradient() needs a scalar output, got shape {output.shape}")
        self._swept = True
        entries, self._entries = self._entries, []
        keep = {p.key for p in params}
        pending = {e.out for e in entries}  # outputs of entries not yet swept
        grads: dict[int, np.ndarray] = {output.key: np.ones_like(output.data)}
        while entries:
            entry = entries.pop()
            key = entry.out
            pending.discard(key)
            g_out = grads.get(key) if key in keep else grads.pop(key, None)
            if g_out is not None:
                _SWEEP.append(tuple(k in keep or k in pending for k, _, _ in entry.inputs))
                try:
                    g_inputs = entry.backward(g_out)
                finally:
                    _SWEEP.pop()
                _accumulate(grads, entry.inputs, g_inputs, keep, pending)
            del entry, g_out
        out: list[Tensor] = []
        for p in params:
            g = grads.get(p.key)
            out.append(Tensor(np.asarray(g).copy()) if g is not None else Tensor(np.zeros_like(p.data)))
        return out


def _needed(i: int) -> bool:
    """Whether input i of the entry whose backward rule is running has a reader:
    it is a requested parameter or the output of an entry still to be swept.
    True outside a sweep. A rule may return None for an input that has none."""
    return _SWEEP[-1][i] if _SWEEP else True


def _accumulate(grads, inputs, g_inputs, keep, pending) -> None:
    """Add one entry's input cotangents into `grads`.

    Only inputs that `_needed` names are stored; any other cotangent (a data
    leaf's) has no reader.
    """
    for (key, shape, dtype), g in zip(inputs, g_inputs):
        if g is None:
            continue
        if g.shape != shape:
            raise DimensionError(f"backward produced gradient of shape {g.shape} for input of shape {shape}")
        if key not in keep and key not in pending:
            continue
        acc = grads.get(key)
        if acc is None:
            grads[key] = g.astype(dtype, copy=False)
        else:
            grads[key] = acc + g


def active_tape() -> Optional[GradTape]:
    return _ACTIVE[-1] if _ACTIVE else None


def record(out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
    """Append one op record to every active tape (outer tapes see inner work).

    The record keeps keys, shapes and dtypes, not the tensors; a non-Tensor
    `out` or input raises `DataError` while a tape is active.
    """
    if _ACTIVE:
        if not isinstance(inputs, tuple) or not all(isinstance(t, Tensor) for t in (out, *inputs)):
            raise DataError(
                f"record() needs a Tensor output and a tuple of Tensor inputs, got {type(out).__name__} and {inputs!r}"
            )
        entry = _Entry(out.key, tuple((t.key, t.shape, t.dtype) for t in inputs), backward)
        for tape in _ACTIVE:
            tape._entries.append(entry)
