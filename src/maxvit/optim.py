"""Decoupled-weight-decay Adam with global gradient-norm clipping.

The optimizer owns per-parameter first/second moment buffers keyed by the
model's parameter slots and writes updated tensors back through them.
Weight decay never touches normalization affines or relative-bias tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError
from .model import parameter_slots
from .ops import _finite_real
from .tensor import Tensor

__all__ = ["AdamWConfig", "AdamW", "decay_excluded", "global_grad_norm"]


@dataclass(frozen=True)
class AdamWConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    clip_norm: Optional[float] = 1.0

    def validate(self) -> None:
        if not all(_finite_real(v) for v in (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay)):
            raise ConfigError(f"AdamWConfig values must be finite real numbers, got {self}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must be in [0, 1), got ({self.beta1}, {self.beta2})")
        if self.lr <= 0 or self.eps <= 0 or self.weight_decay < 0:
            raise ConfigError(f"lr and eps must be positive and weight_decay non-negative, got {self}")
        if self.clip_norm is not None and not (_finite_real(self.clip_norm) and self.clip_norm > 0):
            raise ConfigError(f"clip_norm must be a finite positive number or None, got {self.clip_norm!r}")


def decay_excluded(name: str) -> bool:
    """Normalization affines and bias tables are never decayed."""
    leaf = name.rsplit(".", 1)[-1]
    return leaf in ("gamma", "beta", "bias_table")


def global_grad_norm(grads: Sequence[Tensor]) -> float:
    total = 0.0
    for g in grads:
        total += float(np.square(g.data, dtype=np.float64).sum())
    return float(np.sqrt(total))


class AdamW:
    """step() consumes gradients aligned with `parameters()` order."""

    def __init__(self, model, config: AdamWConfig = AdamWConfig()):
        config.validate()
        self.config = config
        self._slots = parameter_slots(model)
        self._m = [np.zeros(getattr(h, k).shape, dtype=np.float64) for _, h, k in self._slots]
        self._v = [np.zeros(getattr(h, k).shape, dtype=np.float64) for _, h, k in self._slots]
        self._t = 0

    def parameters(self) -> list[Tensor]:
        """Current parameter tensors (fresh objects after every step)."""
        return [getattr(holder, key) for _, holder, key in self._slots]

    def step(self, grads: Sequence[Tensor]) -> float:
        """Apply one update; returns the pre-clip global gradient norm.

        Misshaped gradients raise before any parameter, moment or step count
        changes.
        """
        if len(grads) != len(self._slots):
            raise DimensionError(f"expected {len(self._slots)} gradients, got {len(grads)}")
        for i, (p, g) in enumerate(zip(self.parameters(), grads)):
            if g.shape != p.shape:
                raise DimensionError(f"gradient {i} has shape {g.shape}, parameter {self._slots[i][0]} has {p.shape}")
        cfg = self.config
        norm = global_grad_norm(grads)
        scale = 1.0
        if cfg.clip_norm is not None and norm > cfg.clip_norm:
            scale = cfg.clip_norm / norm
        self._t += 1
        bc1 = 1.0 - cfg.beta1 ** self._t
        bc2 = 1.0 - cfg.beta2 ** self._t
        for i, (name, holder, key) in enumerate(self._slots):
            p: Tensor = getattr(holder, key)
            g = grads[i].data.astype(np.float64) * scale
            self._m[i] = cfg.beta1 * self._m[i] + (1.0 - cfg.beta1) * g
            self._v[i] = cfg.beta2 * self._v[i] + (1.0 - cfg.beta2) * np.square(g)
            update = (self._m[i] / bc1) / (np.sqrt(self._v[i] / bc2) + cfg.eps)
            new = p.data.astype(np.float64) - cfg.lr * update
            if cfg.weight_decay and not decay_excluded(name):
                new -= cfg.lr * cfg.weight_decay * p.data
            setattr(holder, key, Tensor(new.astype(p.dtype)))
        return norm
