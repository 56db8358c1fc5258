"""Argument validation: one integer rule, one finite-real rule, the debug switch.

Every integer argument of a public entry point goes through `ops._int_arg`:
a float of integral value, a bool, a string or a value below the bound
raises that entry point's `MaxVitError` subclass, never a raw TypeError or
ValueError. The finite-real arguments go through `ops._finite_real`.
"""

import ast
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import maxvit
from maxvit import axes, ops
from maxvit.attention import build_bias_index, init_bias_table, interpolate_bias
from maxvit.counting import count_model
from maxvit.errors import ConfigError, DataError, DimensionError, NumericError, PartitionError
from maxvit.gradcheck import grad_check
from maxvit.model import TOY_VARIANT, VARIANTS, build_model, default_window, validate_geometry
from maxvit.nn import init_se
from maxvit.optim import AdamWConfig
from maxvit.tensor import Tensor, debug_checks_enabled, set_debug_checks
from maxvit.train import make_toy_dataset, train_toy

_X = Tensor(np.zeros((1, 4, 4, 4), np.float32))
_T = VARIANTS["T"]


def _stage(**kw):
    return replace(_T, stages=(replace(_T.stages[0], **kw),) + _T.stages[1:]).validate()


# (id, call with the value under test, error class, lowest valid value)
_INT_ARGS = [
    ("build_bias_index.window", lambda v: build_bias_index(v), ConfigError, 1),
    ("interpolate_bias.new_window", lambda v: interpolate_bias(Tensor(np.zeros((2, 9), np.float32)), v), ConfigError, 1),
    ("count_model.num_classes", lambda v: count_model("T", 224, num_classes=v), ConfigError, 1),
    ("count_model.resolution", lambda v: count_model("T", v), ConfigError, 1),
    ("VariantSpec.stem_channels", lambda v: replace(_T, stem_channels=v).validate(), ConfigError, 1),
    ("VariantSpec.window", lambda v: replace(_T, window=v).validate(), ConfigError, 1),
    ("VariantSpec.head_dim", lambda v: replace(_T, head_dim=v).validate(), ConfigError, 1),
    ("VariantSpec.stage_depth", lambda v: _stage(depth=v), ConfigError, 1),
    ("VariantSpec.stage_channels", lambda v: _stage(channels=v), ConfigError, 1),
    ("build_model.num_classes", lambda v: build_model(TOY_VARIANT, num_classes=v), ConfigError, 1),
    ("build_model.seed", lambda v: build_model(TOY_VARIANT, seed=v), ConfigError, 0),
    ("conv2d.stride", lambda v: ops.conv2d(_X, Tensor(np.zeros((3, 3, 4, 4), np.float32)), stride=v), ConfigError, 1),
    ("depthwise_conv2d.stride", lambda v: ops.depthwise_conv2d(_X, Tensor(np.zeros((3, 3, 4), np.float32)), stride=v),
     ConfigError, 1),
    ("init_se.bottleneck", lambda v: init_se(np.random.default_rng(0), 4, v), ConfigError, 1),
    ("validate_geometry.height", lambda v: validate_geometry(_T, v, 224), DimensionError, 1),
    ("validate_geometry.width", lambda v: validate_geometry(_T, 224, v), DimensionError, 1),
    ("to_heads.heads", lambda v: axes.to_heads(_X, "block", 2, heads=v), DimensionError, 1),
    ("block.window", lambda v: axes.block(_X, v), PartitionError, 1),
    ("grid.grid_size", lambda v: axes.grid(_X, v), PartitionError, 1),
    ("avg_pool2d.k", lambda v: ops.avg_pool2d(_X, v), PartitionError, 1),
    # entry points that had no integer check before this rule was shared
    ("default_window.resolution", lambda v: default_window(v), ConfigError, 32),
    ("partition_indices.height", lambda v: axes.partition_indices("block", v, 4, 2), DimensionError, 1),
    ("partition_indices.width", lambda v: axes.partition_indices("grid", 4, v, 2), DimensionError, 1),
    ("dump_indices.height", lambda v: axes.dump_indices("block", v, 4, 2), DimensionError, 1),
    ("init_bias_table.heads", lambda v: init_bias_table(v, 2), ConfigError, 1),
    ("init_bias_table.window", lambda v: init_bias_table(2, v), ConfigError, 1),
    ("train_toy.steps", lambda v: train_toy(steps=v), ConfigError, 0),
    ("train_toy.log_every", lambda v: train_toy(steps=0, log_every=v), ConfigError, 0),
    ("train_toy.seed", lambda v: train_toy(seed=v, steps=0), ConfigError, 0),
    ("make_toy_dataset.seed", lambda v: make_toy_dataset(v), ConfigError, 0),
]


@pytest.mark.parametrize("call, error, low", [c[1:] for c in _INT_ARGS], ids=[c[0] for c in _INT_ARGS])
@pytest.mark.parametrize("kind", ["float", "bool", "str", "below"])
def test_integer_arguments_reject_non_integers(call, error, low, kind):
    n = max(low, 2)  # a float or string of a value that passes the bound
    value = {"float": float(n), "bool": True, "str": str(n), "below": low - 1}[kind]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("resolution", ["224", 224.0, np.float64(224.0)])
def test_default_window_rejects_a_non_integer_resolution(resolution):
    with pytest.raises(ConfigError, match="multiple of 32"):
        default_window(resolution)


def test_int_arg_returns_a_plain_int():
    got = ops._int_arg("t", "n", np.int64(7))
    assert got == 7 and type(got) is int
    assert default_window(np.int64(384)) == 12


def test_only_ops_owns_the_integer_rule():
    """Outside ops.py, `_int_at_least` appears only in default_window's multiple-of-32 rule."""

    def uses(node):
        names = lambda n: (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None))
        return [n for n in ast.walk(node) if "_int_at_least" in names(n)]

    offenders = []
    for path in sorted(Path(maxvit.__file__).parent.glob("*.py")):
        if path.name == "ops.py":
            continue
        tree = ast.parse(path.read_text())
        found = uses(tree)
        if path.name == "model.py":
            exempt = [n for top in tree.body if isinstance(top, ast.ImportFrom) and top.module == "ops" for n in uses(top)]
            exempt += [n for top in tree.body if getattr(top, "name", None) == "default_window" for n in uses(top)]
            found = [n for n in found if not any(n is e for e in exempt)]
        offenders += [f"{path.name}:{n.lineno}" for n in found]
    assert not offenders, f"hand-written integer checks; use ops._int_arg: {offenders}"


# -- finite reals -------------------------------------------------------------------------

@pytest.mark.parametrize("field", ["lr", "beta1", "beta2", "eps", "weight_decay", "clip_norm"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.1", True])
def test_adamw_config_rejects_non_finite_values(field, value):
    with pytest.raises(ConfigError):
        AdamWConfig(**{field: value}).validate()


def test_adamw_config_bounds():
    with pytest.raises(ConfigError):
        AdamWConfig(weight_decay=-0.1).validate()
    AdamWConfig(weight_decay=0.0, clip_norm=None).validate()
    AdamWConfig(lr=np.float32(1e-3), weight_decay=1, clip_norm=2).validate()


@pytest.mark.parametrize("eps", ["1e-5", None, math.nan, True])
def test_grad_check_rejects_a_non_real_step(eps):
    p = Tensor(np.ones(2))
    with pytest.raises(NumericError):
        grad_check(lambda a: ops.reduce_sum(ops.mul(a, a)), [p], eps=eps)


def test_emd_order_accepts_finite_reals_from_one():
    p, q = Tensor(np.array([0.5, 0.5])), Tensor(np.array([0.2, 0.8]))
    for r in (1, 2.5, np.float32(3.0)):
        assert np.isfinite(ops.emd_loss(p, q, r=r).item())
    for r in (0.5, math.nan, math.inf, True, "2", None):
        with pytest.raises(DataError):
            ops.emd_loss(p, q, r=r)


@pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, np.float32("nan"), True, "2"])
def test_scale_rejects_a_non_finite_or_non_real_factor(factor):
    with pytest.raises(DataError):
        ops.scale(Tensor(np.ones(2, np.float32)), factor)


# -- debug mode -----------------------------------------------------------------------------

def test_debug_checks_name_the_op_that_made_a_non_finite_value():
    was = debug_checks_enabled()
    set_debug_checks(True)
    try:
        with pytest.raises(NumericError, match="mul"), np.errstate(invalid="ignore"):
            ops.mul(Tensor(np.array([np.inf], np.float32)), Tensor(np.array([0.0], np.float32)))
        got = ops.mul(Tensor(np.array([2.0], np.float32)), Tensor(np.array([3.0], np.float32)))
        assert got.data.tolist() == [6.0]
    finally:
        set_debug_checks(was)


def test_debug_env_runs_the_numerics_suite():
    src = str(Path(maxvit.__file__).resolve().parents[1])
    env = dict(os.environ, MAXVIT_DEBUG="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "maxvit", "check", "--filter", "numerics"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
