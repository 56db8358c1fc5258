"""Tests of the benchmark itself: span arithmetic, tracer hygiene, output checks.

Run from the repository root: python -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import maxvit  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from maxvit import checks, ops  # noqa: E402
from maxvit import model as M  # noqa: E402
from maxvit import tape as T  # noqa: E402
from maxvit.tensor import Tensor  # noqa: E402


# -- self time ----------------------------------------------------------------------

def test_self_times_on_hand_built_tree():
    spans = [
        ["op", 0.0, 10.0, None],    # 0: children 1, 2 cover 3 + 4
        ["a", 1.0, 4.0, 0],         # 1: child 3 covers 1
        ["b", 5.0, 9.0, 0],         # 2: leaf
        ["a.x", 2.0, 3.0, 1],       # 3: leaf
        ["c", 0.0, 2.0, None],      # 4: second root; children overlap and overhang
        ["c.x", 0.5, 1.5, 4],       # 5
        ["c.y", 1.0, 3.0, 4],       # 6: overlaps c.x by 0.5, overhangs c by 1.0
    ]
    own = tracing.self_times(spans)
    assert own[:4] == pytest.approx([3.0, 2.0, 4.0, 1.0])
    assert own[4] == pytest.approx(0.5)  # c.x and c.y cover [0.5, 2.0] of c
    assert own[5:] == pytest.approx([1.0, 2.0])


def test_coverage_and_fold_on_a_traced_forward():
    model = M.build_model(checks.MINIATURE, num_classes=2, seed=0)
    images = Tensor(np.random.default_rng(0).standard_normal((1, 28, 28, 3)).astype(np.float32))
    tr = tracing.Tracer()
    tr.watch_model(model)
    with tr:
        for _ in range(2):
            with tr.operation():
                M.forward(model, images)
    tr.finish()
    assert tr.ops == 2 and not tr.spans
    assert tr.calls["model.forward"] == 2 and tr.calls["model.stage0"] == 2
    assert tr.calls["ops.gelu"] > 0 and tr.self_s["ops.gelu"] > 0
    assert tr.kind_s["conv3x3"] > 0 and tr.kind_s["dense"] > 0 and tr.kind_s["attn_matmul"] > 0
    assert 0.9 < tr.op_covered_s / tr.op_wall_s <= 1.0
    assert {s["op"] for s in tr.kept} == {0, 1}
    ids = {s["id"] for s in tr.kept}
    assert all(s["parent"] is None or s["parent"] in ids for s in tr.kept)


def test_backward_spans_are_children_of_gradient():
    x = Tensor(np.linspace(-2.0, 2.0, 12).reshape(3, 4))
    tr = tracing.Tracer()
    with tr:
        with tr.operation():
            with T.GradTape() as tape:
                y = ops.reduce_sum(ops.gelu(x))
            (g,) = tape.gradient(y, [x])
    tr.finish()
    assert tr.calls["ops.gelu.bwd"] == 1 and tr.calls["tape.gradient"] == 1
    assert tr.under_s["tape.gradient"] == pytest.approx(
        tr.total_s["ops.gelu.bwd"] + tr.total_s["ops.reduce_sum.bwd"])
    assert tr.tape_entries == 2
    assert np.isfinite(g.data).all()


# -- tracer hygiene ------------------------------------------------------------------

def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "maxvit" or name.startswith("maxvit."):
            for attr, val in vars(mod).items():
                out[(name, attr)] = val
                if isinstance(val, type) and val.__module__ == name:
                    for meth, fn in vars(val).items():
                        out[(name, attr, meth)] = fn
    return out


def test_tracer_rebinds_importers_and_restores_every_binding():
    before = _bindings()
    nn_conv = maxvit.nn.conv
    with tracing.Tracer():
        assert maxvit.model.conv is not nn_conv and maxvit.model.conv is maxvit.nn.conv
        assert maxvit.ops.record is maxvit.tape.record
        assert maxvit.ops.record.__wrapped__ is before[("maxvit.tape", "record")]
        assert maxvit.tape.GradTape.gradient is not before[("maxvit.tape", "GradTape", "gradient")]
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert len(changed) > 100
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


# -- output checks -------------------------------------------------------------------

def test_tail_is_the_order_statistic_with_ten_beyond_capped_at_p90():
    xs = list(range(50, 0, -1))
    value, pct = run.tail(xs)
    assert value == 40 and sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100.0 * 39 / 49)
    value, pct = run.tail(list(range(1000)))
    assert (value, pct) == (899, pytest.approx(100.0 * 899 / 999))
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


def test_logits_check_rejects_a_perturbed_output():
    oracle = np.random.default_rng(0).standard_normal((1, 1000))
    assert workloads.logits_match(oracle.astype(np.float32), oracle)
    bumped = oracle.copy()
    bumped[0, 7] += 1e-4 * np.abs(oracle).max()
    assert not workloads.logits_match(bumped, oracle)
    assert not workloads.logits_match(np.full_like(oracle, np.nan), oracle)


def test_infer_counts_perturbed_outputs_as_failed():
    w = workloads.Infer(variant=checks.MINIATURE, resolution=28)
    w.setup(seed=0)
    assert w.run(0.2).failed == 0
    w.oracle = w.oracle * (1.0 + 1e-3)
    out = w.run(0.2)
    assert out.attempted > 0 and out.failed == out.attempted


def test_train_counts_non_finite_loss_as_failed():
    w = workloads.TrainToy()
    w.setup(seed=0)
    images = w.data.images.data.copy()
    images[0, 0, 0, 0] = np.nan
    w.data.images = Tensor(images)
    out = w.run(0.1)
    assert out.attempted > 0 and out.failed == out.attempted
    assert math.isnan(w.losses[-1]) and not w.final_ok()


def test_gradcheck_counts_a_perturbed_function_as_failed():
    w = workloads.GradcheckMini()
    w.setup(seed=0)
    exact = w._loss

    def skewed(*ps):  # finite differences see an extra term the tape does not
        loss = exact(*ps)
        if T.active_tape() is None:
            loss = ops.add(loss, ops.scale(ops.reduce_sum(ps[w.cursor]), 0.5))
        return loss

    w._loss = skewed
    out = w.run(0.05)
    assert out.attempted > 0 and out.failed == out.attempted
    assert not w.final_ok()


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    w = workloads.GradcheckMini()
    w.setup(seed=0)
    plain = w.run(0.05)
    tr = tracing.Tracer()
    tr.watch_model(w.model)
    with tr:
        traced = w.run(0.05, tr)
    tr.finish()
    layer = run.per_layer(tr, w, [{"model.build_ms": 1.0, "train.dataset_ms": 0.0}], plain, traced)
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = run.end_to_end(plain, w, setup_s=1.0)
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert run.gradcheck_detail(tr)["evals"] == traced.attempted > 0
    assert run.gradcheck_detail(tr)["analytic_ms"] > 0
    assert 0.0 < layer["trace.coverage"][0] <= 1.0
