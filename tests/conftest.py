"""Shared fixtures. The full toy-training run takes several minutes, so it is
session-scoped and computed once for every test that inspects its trace."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import maxvit.axes
from maxvit.tensor import Tensor
from maxvit.train import TOY_STEPS, train_toy


@pytest.fixture(scope="session")
def toy_run():
    """Deterministic 300-step toy training run, with its wall-clock seconds."""
    t0 = time.monotonic()
    result = train_toy(seed=0, steps=TOY_STEPS)
    return SimpleNamespace(result=result, seconds=time.monotonic() - t0)


@pytest.fixture
def skewed_grid(monkeypatch):
    """An off-by-one fault in `maxvit.axes.grid`: every group's tokens rotated by one."""
    real_grid = maxvit.axes.grid
    monkeypatch.setattr(maxvit.axes, "grid", lambda x, g: Tensor(np.roll(real_grid(x, g).data, 1, axis=2)))
