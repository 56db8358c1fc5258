"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Each one calls maxvit through module
attributes (``M.forward``, ``ops.add``), so a tracer that rebinds those names
sees every call.
"""

from __future__ import annotations

import io
import math
import pickle
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from maxvit import checks, gradcheck, ops, optim, train
from maxvit import model as M
from maxvit import tape as T
from maxvit.counting import count_model
from maxvit.tensor import Tensor

# Max |logits - oracle| over max |oracle|. f32 arithmetic gives about 3e-7 on
# T@224; an f32 GELU whose erf is off by up to 6e-7 (Abramowitz & Stegun
# 7.1.26) also gives about 3e-7. A wrong layer gives O(1).
INFER_RTOL = 1e-5


class Outcomes:
    """Latency and pass/fail of every operation of one measured loop."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds
        self.failed = 0
        self.elapsed = 0.0  # wall seconds of the loop

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_loop(seconds: float, op, tracer=None) -> Outcomes:
    """Call `op` back to back until `seconds` have passed; op returns ok."""
    out = Outcomes()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        with tracer.operation() if tracer else nullcontext():
            ok = _guarded(op)
            t1 = time.perf_counter()  # before the tracer folds the spans
        out.latencies.append(t1 - t0)
        out.failed += not ok
    out.elapsed = time.perf_counter() - start
    return out


def _guarded(op) -> bool:
    # A raising operation counts as failed; the loop keeps measuring.
    try:
        return bool(op())
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def macs_by_kind(spec, resolution: int, num_classes: int, batch: int) -> dict[str, int]:
    """Forward MACs of one operation per layer kind, from the analytic count."""
    out: dict[str, int] = defaultdict(int)
    for layer in count_model(spec, resolution=resolution, num_classes=num_classes).layers:
        out[layer.kind] += layer.macs * batch
    return dict(out)


# -- infer-t224-b1 -------------------------------------------------------------------

def infer_images(seed: int, resolution: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((1, resolution, resolution, 3)).astype(np.float32)


def infer_oracle(variant, resolution: int, seed: int) -> np.ndarray:
    """f64 logits of the f32 model `build_model(variant, seed=seed)` on the seeded image.

    The f64 build draws the same values; rounding them through f32 gives
    exactly the f32 model's weights, so only the arithmetic differs.
    """
    model = M.build_model(variant, num_classes=1000, seed=seed, dtype=np.float64)
    for _, holder, key in M.parameter_slots(model):
        t = getattr(holder, key)
        setattr(holder, key, Tensor(t.data.astype(np.float32).astype(np.float64)))
    images = Tensor(infer_images(seed, resolution).astype(np.float64))
    return M.forward(model, images).data


# Child-process entry: sys.argv[1:] are the import paths, stdin holds the
# pickled arguments of infer_oracle, stdout gets its result in .npy format.
_ORACLE_CHILD = (
    "import pickle, sys; sys.path[:0] = sys.argv[1:]; import numpy as np, workloads; "
    "np.save(sys.stdout.buffer, workloads.infer_oracle(*pickle.load(sys.stdin.buffer)))"
)


def infer_oracle_in_child(variant, resolution: int, seed: int) -> np.ndarray:
    """`infer_oracle` run in a child process, which has exited when this returns.

    The child keeps the f64 model's peak memory out of this process's
    ru_maxrss. It starts no process of its own; on a timeout it is killed
    and waited for.
    """
    here = Path(__file__).resolve().parent
    child = subprocess.run(
        [sys.executable, "-c", _ORACLE_CHILD, str(here), str(here.parent / "src")],
        input=pickle.dumps((variant, resolution, seed)),
        stdout=subprocess.PIPE, check=True, timeout=150,
    )
    return np.load(io.BytesIO(child.stdout))


def logits_match(logits: np.ndarray, oracle: np.ndarray) -> bool:
    if logits.shape != oracle.shape or not np.isfinite(logits).all():
        return False
    err = np.abs(logits.astype(np.float64) - oracle).max() / np.abs(oracle).max()
    return bool(err <= INFER_RTOL)


class Infer:
    name = "infer-t224-b1"
    dtype = "f32"

    def __init__(self, variant="T", resolution: int = 224):
        self.variant = variant
        self.resolution = resolution
        self.batch = 1

    def setup(self, seed: int) -> dict[str, float]:
        t0 = time.perf_counter()
        self.model = M.build_model(self.variant, num_classes=1000, seed=seed)
        build = time.perf_counter() - t0
        self.images = Tensor(infer_images(seed, self.resolution))
        self.oracle = infer_oracle_in_child(self.variant, self.resolution, seed)
        self.warmup_ok = self.op()
        return {"model.build_ms": 1e3 * build, "train.dataset_ms": 0.0}

    def op(self) -> bool:
        return logits_match(M.forward(self.model, self.images, training=False).data, self.oracle)

    def run(self, seconds: float, tracer=None) -> Outcomes:
        return run_loop(seconds, self.op, tracer)

    def final_ok(self) -> bool:
        """The warm-up forward matched the oracle too."""
        return self.warmup_ok

    def macs(self) -> dict[str, int]:
        return macs_by_kind(self.variant, self.resolution, 1000, self.batch)


# -- train-toy-b32 --------------------------------------------------------------------

class TrainToy:
    name = "train-toy-b32"
    dtype = "f32"

    def setup(self, seed: int) -> dict[str, float]:
        t0 = time.perf_counter()
        self.data = train.make_toy_dataset(seed)
        t1 = time.perf_counter()
        self.model = M.build_model(M.TOY_VARIANT, num_classes=2, seed=seed)
        t2 = time.perf_counter()
        self.opt = optim.AdamW(self.model, train.TOY_OPT)
        self.batch = self.data.images.shape[0]
        self.losses: list[float] = []
        self.op()  # warm-up step; its loss is step 0's
        return {"model.build_ms": 1e3 * (t2 - t1), "train.dataset_ms": 1e3 * (t1 - t0)}

    def op(self) -> bool:
        params = self.opt.parameters()
        with T.GradTape() as tape:
            logits = M.forward(self.model, self.data.images, training=True)
            loss = ops.softmax_cross_entropy(logits, self.data.labels)
        value = loss.item()
        grads = tape.gradient(loss, params)
        self.opt.step(grads)
        self.losses.append(value)
        return math.isfinite(value)

    def run(self, seconds: float, tracer=None) -> Outcomes:
        return run_loop(seconds, self.op, tracer)

    def final_ok(self) -> bool:
        """The loss of the last step is below that of step 0."""
        return len(self.losses) >= 2 and self.losses[-1] < self.losses[0]

    def macs(self) -> dict[str, int]:
        return macs_by_kind(M.TOY_VARIANT, self.data.images.shape[1], 2, self.batch)


# -- gradcheck-mini-f64 ---------------------------------------------------------------

class GradcheckMini:
    """`grad_check` of the miniature model, one parameter tensor per call.

    Built as `maxvit check --filter gradcheck` builds its end-to-end case: the
    `checks.MINIATURE` variant in f64 on one 28x28 image, with a fixed linear
    anchor term added to the loss. One operation is one evaluation of the
    scalar function outside the tape; a tensor's evaluations fail together
    when its check misses `GRAD_TOL`.
    """

    name = "gradcheck-mini-f64"
    dtype = "f64"
    resolution = 28
    batch = 1

    def setup(self, seed: int) -> dict[str, float]:
        t0 = time.perf_counter()
        self.model = M.build_model(checks.MINIATURE, num_classes=2, seed=seed, dtype=np.float64)
        build = time.perf_counter() - t0
        rng = np.random.default_rng(seed)
        self.images = Tensor(rng.standard_normal((1, self.resolution, self.resolution, 3)))
        self.labels = np.array([1])
        self.slots = M.parameter_slots(self.model)
        self.params = [getattr(h, k) for _, h, k in self.slots]
        self.anchors = [
            Tensor(np.where(rng.random(p.shape) < 0.5, -1.0, 1.0) * rng.uniform(2.0, 3.0, p.shape))
            for p in self.params
        ]
        self.cursor = 0
        self.check_failures = 0
        self._sink = None
        smallest = min(range(len(self.params)), key=lambda i: self.params[i].size)
        self.check_failures += not _guarded(lambda: self._check_tensor(smallest) < gradcheck.GRAD_TOL)
        return {"model.build_ms": 1e3 * build, "train.dataset_ms": 0.0}

    def _loss(self, *ps):
        for (_, holder, key), p in zip(self.slots, ps):
            setattr(holder, key, p)
        loss = ops.softmax_cross_entropy(M.forward(self.model, self.images, training=False), self.labels)
        for p, r in zip(ps, self.anchors):
            loss = ops.add(loss, ops.reduce_sum(ops.mul(p, r)))
        return loss

    def _f(self, *ps):
        sink = self._sink
        if sink is None or T.active_tape() is not None:  # analytic pass: not an operation
            return self._loss(*ps)
        outcomes, tracer = sink
        t0 = time.perf_counter()
        with tracer.operation() if tracer else nullcontext():
            loss = self._loss(*ps)
            t1 = time.perf_counter()
        outcomes.latencies.append(t1 - t0)
        return loss

    def _check_tensor(self, i: int) -> float:
        def f(p):
            ps = list(self.params)
            ps[i] = p
            return self._f(*ps)

        return gradcheck.grad_check(f, [self.params[i]])

    def run(self, seconds: float, tracer=None) -> Outcomes:
        out = Outcomes()
        self._sink = (out, tracer)
        start = time.perf_counter()
        try:
            while time.perf_counter() - start < seconds:
                before = out.attempted
                ok = _guarded(lambda: self._check_tensor(self.cursor) < gradcheck.GRAD_TOL)
                if not ok:
                    self.check_failures += 1
                    out.failed += out.attempted - before
                self.cursor = (self.cursor + 1) % len(self.params)
        finally:
            self._sink = None
        out.elapsed = time.perf_counter() - start
        return out

    def final_ok(self) -> bool:
        return self.check_failures == 0

    def macs(self) -> dict[str, int]:
        return macs_by_kind(checks.MINIATURE, self.resolution, 2, 1)


WORKLOADS = {w.name: w for w in (Infer, TrainToy, GradcheckMini)}
