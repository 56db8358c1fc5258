"""Desk-scale training demonstration on a procedurally generated dataset.

The dataset is 32 color-blob images in two linearly separable classes (the
dominant blob channel differs); the model is the toy variant. Everything is
seeded, full-batch, and CPU-sized: the point is an end-to-end check that
gradients, optimizer, and model wiring actually train, not benchmark chasing.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .errors import DataError, NumericError
from .model import TOY_VARIANT, MaxVitModel, build_model, forward
from .optim import AdamW, AdamWConfig
from .tape import GradTape
from .tensor import Tensor

__all__ = ["ToyDataset", "make_toy_dataset", "TrainResult", "train_toy", "TOY_STEPS", "TOY_LOSS_TARGET"]

TOY_IMAGES = 32
TOY_SIZE = 112
TOY_STEPS = 300
TOY_LOSS_TARGET = 0.05
# Pinned by pilot runs. Higher rates reach the target in <10 steps but then
# drive the f32 loss to exact zero, which breaks the strict-descent property;
# 3e-4 still clears the target by step ~41 and keeps every 50-step window
# strictly decreasing through step 300. Decay stays off so the loss has no
# equilibrium floor to stall at.
TOY_OPT = AdamWConfig(lr=3e-4, weight_decay=0.0, clip_norm=1.0)


@dataclass
class ToyDataset:
    images: Tensor     # (n, size, size, 3)
    labels: np.ndarray  # (n,) int64


def make_toy_dataset(seed: int = 0) -> ToyDataset:
    """TOY_IMAGES noisy TOY_SIZE x TOY_SIZE images in two classes, with one soft color blob each.

    Class 0 blobs are red-dominant, class 1 blue-dominant; the channel means
    alone separate the classes linearly, so a working model must reach a
    near-zero loss quickly.
    """
    count, size = TOY_IMAGES, TOY_SIZE
    rng = np.random.default_rng(ops._int_arg("make_toy_dataset", "seed", seed, 0))
    labels = np.arange(count) % 2  # balanced
    rng.shuffle(labels)
    ys, xs = np.mgrid[0:size, 0:size]
    images = rng.normal(0.0, 0.1, size=(count, size, size, 3))
    channel_mix = {0: np.array([1.0, 0.2, 0.1]), 1: np.array([0.1, 0.2, 1.0])}
    for i in range(count):
        cy, cx = rng.uniform(size * 0.25, size * 0.75, size=2)
        sigma = rng.uniform(size * 0.12, size * 0.2)
        bump = np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * sigma**2))
        images[i] += bump[:, :, None] * channel_mix[int(labels[i])]
    return ToyDataset(Tensor(images.astype(np.float32)), labels.astype(np.int64))


@dataclass
class TrainResult:
    losses: list[float]
    final_loss: float
    accuracy: float
    model: MaxVitModel
    steps: int
    seed: int


def train_toy(
    seed: int = 0,
    steps: int = TOY_STEPS,
    trace_path: Optional[str] = None,
    log_every: int = 0,
) -> TrainResult:
    """Full-batch training of the toy variant; deterministic for a given seed.

    `trace_path` is opened before the first step, so a path that cannot be
    written raises `DataError` before any training; the per-step losses
    replace its contents as CSV after the last step, so a run that fails
    leaves an existing file as it was.
    """
    ops._int_arg("train_toy", "steps", steps, 0)
    ops._int_arg("train_toy", "log_every", log_every, 0)
    data = make_toy_dataset(seed)
    try:
        trace = open(trace_path, "a", newline="") if trace_path else nullcontext()
    except OSError as e:
        raise DataError(f"train_toy: cannot write trace_path {trace_path!r}: {e}") from e
    with trace as f:
        model = build_model(TOY_VARIANT, num_classes=2, seed=seed)
        opt = AdamW(model, TOY_OPT)
        losses: list[float] = []
        for step in range(steps):
            params = opt.parameters()
            with GradTape() as tape:
                logits = forward(model, data.images, training=True)
                loss = ops.softmax_cross_entropy(logits, data.labels)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"training diverged: non-finite loss at step {step}")
            losses.append(value)
            grads = tape.gradient(loss, params)
            opt.step(grads)
            if log_every and step % log_every == 0:
                print(f"step {step:4d}  loss {value:.6f}")
        logits = forward(model, data.images, training=False)
        accuracy = float((logits.data.argmax(axis=1) == data.labels).mean())
        if f is not None:
            f.truncate(0)  # append mode: the rows then go to the start
            writer = csv.writer(f)
            writer.writerow(["step", "loss"])
            writer.writerows((i, f"{v:.8f}") for i, v in enumerate(losses))
    return TrainResult(
        losses=losses,
        final_loss=losses[-1] if losses else float("nan"),
        accuracy=accuracy,
        model=model,
        steps=steps,
        seed=seed,
    )
