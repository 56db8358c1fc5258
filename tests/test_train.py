"""Toy dataset generation and the end-to-end training loop.

The heavy 300-step run lives in the session-scoped `toy_run` fixture; the
property assertions here read its trace rather than retraining.
"""

import numpy as np
import pytest

from maxvit import train as train_module
from maxvit.errors import ConfigError, DataError, NumericError
from maxvit.train import (
    TOY_IMAGES,
    TOY_LOSS_TARGET,
    TOY_SIZE,
    TOY_STEPS,
    make_toy_dataset,
    train_toy,
)


# -- dataset ------------------------------------------------------------------------

def test_dataset_shapes_and_balance():
    ds = make_toy_dataset(seed=0)
    assert ds.images.shape == (TOY_IMAGES, TOY_SIZE, TOY_SIZE, 3)
    assert ds.images.dtype == np.float32
    assert ds.labels.shape == (TOY_IMAGES,)
    assert ds.labels.dtype == np.int64
    counts = np.bincount(ds.labels, minlength=2)
    assert counts[0] == counts[1] == TOY_IMAGES // 2


def test_dataset_deterministic_per_seed():
    a = make_toy_dataset(seed=7)
    b = make_toy_dataset(seed=7)
    c = make_toy_dataset(seed=8)
    np.testing.assert_array_equal(a.images.data, b.images.data)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images.data, c.images.data)


def test_dataset_is_linearly_separable_by_channel_means():
    # the label is encoded in the red-vs-blue channel balance, so a trivial
    # rule must already classify perfectly; the model has no excuse not to fit
    ds = make_toy_dataset(seed=0)
    means = ds.images.data.mean(axis=(1, 2))  # (n, 3)
    pred = (means[:, 2] > means[:, 0]).astype(np.int64)
    assert np.array_equal(pred, ds.labels)


# -- training loop mechanics ----------------------------------------------------------

def test_short_run_records_finite_losses_and_is_deterministic():
    a = train_toy(seed=0, steps=2)
    b = train_toy(seed=0, steps=2)
    assert len(a.losses) == 2
    assert all(np.isfinite(v) for v in a.losses)
    assert a.losses == b.losses  # bitwise identical trace per seed
    assert a.steps == 2 and a.seed == 0


def test_different_seed_changes_the_trace():
    a = train_toy(seed=0, steps=1)
    b = train_toy(seed=1, steps=1)
    assert a.losses != b.losses


def test_zero_steps_returns_empty_trace():
    r = train_toy(seed=0, steps=0)
    assert r.losses == []
    assert np.isnan(r.final_loss)


def test_negative_steps_rejected():
    with pytest.raises(ConfigError):
        train_toy(seed=0, steps=-1)


def test_trace_csv_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    r = train_toy(seed=0, steps=2, trace_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 3
    step, loss = lines[1].split(",")
    assert int(step) == 0
    assert float(loss) == pytest.approx(r.losses[0], abs=1e-7)


def test_unwritable_trace_path_fails_before_any_step(tmp_path, monkeypatch):
    """The trace file is opened before step 0: a missing directory raises DataError
    from the error taxonomy and no forward pass runs."""
    forwards = []
    monkeypatch.setattr(train_module, "forward", lambda *a, **k: forwards.append(1))
    with pytest.raises(DataError, match="trace_path"):
        train_toy(seed=0, steps=1, trace_path=str(tmp_path / "missing" / "trace.csv"))
    assert forwards == []


def test_trace_replaces_a_file_after_the_run_and_a_failed_run_keeps_it(tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    path.write_text("old\n" * 5)
    train_toy(seed=0, steps=1, trace_path=str(path))
    assert path.read_text().splitlines()[0] == "step,loss" and len(path.read_text().splitlines()) == 2
    path.write_text("old\n")

    def diverge(*args, **kwargs):
        raise NumericError("diverged")

    monkeypatch.setattr(train_module, "forward", diverge)
    with pytest.raises(NumericError):
        train_toy(seed=0, steps=1, trace_path=str(path))
    assert path.read_text() == "old\n"


# -- full-run properties (shared 300-step fixture) -------------------------------------

def test_full_run_reaches_target(toy_run):
    r = toy_run.result
    assert len(r.losses) == TOY_STEPS
    assert min(r.losses) < TOY_LOSS_TARGET
    assert r.final_loss < TOY_LOSS_TARGET


def test_full_run_losses_all_finite(toy_run):
    assert np.isfinite(np.asarray(toy_run.result.losses)).all()


def test_full_run_descends_over_every_50_step_window(toy_run):
    losses = np.asarray(toy_run.result.losses)
    margins = losses[:-50] - losses[50:]
    assert (margins > 0).all(), f"worst window margin {margins.min():.3e} at {margins.argmin()}"
