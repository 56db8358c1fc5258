#!/usr/bin/env python3
"""Benchmark of the numpy MaxViT: one workload per process, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload infer-t224-b1 --seed 1 --seconds 40 --trace 0

It sets the workload up several times, measures a closed loop of operations
for ``--seconds`` and checks every operation's output. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it measures half the time
untraced and half under the span tracer and reports the per-layer metrics.
The full report (machine facts, sample counts, failures) is printed first;
the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

OPS_BUCKETS = (
    "gelu", "matmul", "conv2d", "depthwise_conv2d", "batch_norm_inference", "batch_norm_train",
    "layer_norm", "softmax_lastdim", "swapaxes", "add", "gather_rows", "other",
)
MAC_OPS = ("matmul", "conv2d", "depthwise_conv2d")  # everything else is elementwise
KINDS = ("conv3x3", "conv1x1", "dwconv", "dense", "attn_matmul")
NN_LAYERS = ("conv", "depthwise", "batch_norm", "layer_norm", "linear", "mlp_ffn", "se_module")
PARTITIONS = ("axes.block", "axes.unblock", "axes.grid", "axes.ungrid")


def cap_blas_threads() -> int:
    """Limit BLAS threads to the CPUs this process may run on; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            if 0 < int(os.environ.get(var, "")) <= nproc:
                continue
        except ValueError:
            pass
        os.environ[var] = str(nproc)
    return nproc


# -- statistics -----------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail latency, from sorted order statistics.

    The tail is the highest order statistic with at least 10 samples beyond
    it, but no higher than p90: with thousands of samples a higher one
    measures only how often the host preempts the process (p99.85 of the
    gradient-check workload moved by 80% between runs). With fewer than 11
    samples the minimum is returned with percentile 0; the report gives the
    sample count.
    """
    xs = sorted(values)
    if len(xs) < 2:
        return (xs[0] if xs else 0.0), 0.0
    k = min(max(len(xs) - 11, 0), int(0.9 * (len(xs) - 1)))
    return xs[k], 100.0 * k / (len(xs) - 1)


def summary(values: list[float]) -> dict:
    """Order statistics of a latency sample, for the report."""
    xs = sorted(values)
    pick = lambda q: xs[round(q * (len(xs) - 1))]
    return {f"p{round(100 * q)}": pick(q) for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)} if xs else {}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- machine facts ----------------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    libs = {line.split()[-1] for line in _read(Path("/proc/self/maps")).splitlines() if "openblas" in line.split()[-1]}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_facts(nproc: int, dtype: str) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({k: _read(index / k) for k in ("level", "type", "size")})
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": {
            "vendor": blas.get("name"),
            "version": blas.get("version"),
            "threads": blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dtype": dtype,
        "caches": caches,
    }


# -- metrics ------------------------------------------------------------------------------

def end_to_end(outcomes, workload, setup_s: float) -> dict:
    lat_ms = [1e3 * t for t in outcomes.latencies]
    tail_ms, _ = tail(lat_ms)
    items = outcomes.attempted * workload.batch
    return {
        "latency_ms.p50": (median(lat_ms), "ms"),
        "latency_ms.tail": (tail_ms, "ms"),
        "throughput": (items / outcomes.elapsed, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tr, workload, setups: list[dict], plain, traced) -> dict:
    """Per-operation layer metrics from a finished tracer."""
    n = max(tr.ops, 1)
    ms = lambda seconds: 1e3 * seconds / n
    out: dict[str, tuple[float, str]] = {}

    buckets = {b: {"calls": 0, "fwd": 0.0, "bwd": 0.0, "bytes": 0} for b in OPS_BUCKETS}
    for name, calls in tr.calls.items():
        if not name.startswith("ops."):
            continue
        base = name[4:].removesuffix(".bwd")
        b = buckets[base if base in buckets else "other"]
        if name.endswith(".bwd"):
            b["bwd"] += tr.self_s[name]
        else:
            b["calls"] += calls
            b["fwd"] += tr.self_s[name]
            b["bytes"] += tr.out_bytes[name]
    for p, b in buckets.items():
        out[f"ops.{p}.calls"] = (b["calls"] / n, "count")
        out[f"ops.{p}.fwd_ms"] = (ms(b["fwd"]), "ms")
        out[f"ops.{p}.bwd_ms"] = (ms(b["bwd"]), "ms")
        out[f"ops.{p}.out_mb"] = (b["bytes"] / n / 2**20, "MB")
    op_time = sum(b["fwd"] + b["bwd"] for b in buckets.values())
    elementwise = sum(b["fwd"] + b["bwd"] for p, b in buckets.items() if p not in MAC_OPS)
    out["ops.elementwise_share"] = (elementwise / op_time if op_time else 0.0, "ratio")

    macs = workload.macs()
    for k in KINDS:
        seconds = tr.kind_s.get(k, 0.0) / n
        out[f"kind.{k}.ms"] = (1e3 * seconds, "ms")
        out[f"kind.{k}.gmacs_per_s"] = (macs.get(k, 0) / seconds / 1e9 if seconds else 0.0, "GMAC/s")

    out["axes.partition.ms"] = (ms(sum(tr.total_s[p] for p in PARTITIONS)), "ms")
    out["axes.partition.calls"] = (sum(tr.calls[p] for p in PARTITIONS) / n, "count")
    for layer in NN_LAYERS:
        out[f"nn.{layer}.ms"] = (ms(tr.total_s[f"nn.{layer}"]), "ms")
    for name in ("block", "grid", "rel_attention"):
        out[f"attention.{name}.ms"] = (ms(tr.total_s[f"attention.{name}"]), "ms")
    for name in ("stem", "stage0", "stage1", "stage2", "stage3"):
        out[f"model.{name}.ms"] = (ms(tr.total_s[f"model.{name}"]), "ms")
    out["model.mbconv.ms"] = (ms(tr.total_s["model.mbconv_forward"]), "ms")
    out["model.head.ms"] = (ms(tr.total_s["model.head"]), "ms")
    out["model.build_ms"] = (median([s["model.build_ms"] for s in setups]), "ms")
    out["train.dataset_ms"] = (median([s["train.dataset_ms"] for s in setups]), "ms")

    out["tape.entries"] = (tr.tape_entries / n, "count")
    out["tape.retained_mb"] = (tr.tape_retained / n / 2**20, "MB")
    out["tape.gradient.ms"] = (ms(tr.total_s["tape.gradient"]), "ms")
    out["tape.gradient.overhead_ms"] = (ms(tr.self_s["tape.gradient"]), "ms")
    out["optim.step.ms"] = (ms(tr.total_s["optim.step"]), "ms")
    out["optim.grad_norm.ms"] = (ms(tr.total_s["optim.global_grad_norm"]), "ms")

    p50_plain = median(plain.latencies)
    out["trace.overhead_ratio"] = (median(traced.latencies) / p50_plain if p50_plain else 0.0, "ratio")
    out["trace.coverage"] = (tr.op_covered_s / tr.op_wall_s if tr.op_wall_s else 0.0, "ratio")
    return out


def gradcheck_detail(tr) -> dict:
    """Evaluations traced inside grad_check, and its analytic pass per evaluation.

    Only gradcheck-mini-f64 calls grad_check; that workload is not in
    BENCHMARK.json (see README.md), so these stay out of the metrics.
    """
    evals = tr.ops if tr.calls["gradcheck.grad_check"] else 0
    return {"evals": evals, "analytic_ms": 1e3 * tr.under_s["gradcheck.grad_check"] / max(evals, 1)}


def top_self_times(tr, count: int = 12) -> list[list]:
    n = max(tr.ops, 1)
    ranked = sorted(((s, name) for name, s in tr.self_s.items() if name != "op"), reverse=True)
    return [[name, round(1e3 * s / n, 4), tr.calls[name] / n] for s, name in ranked[:count]]


# -- main ------------------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("infer-t224-b1", "train-toy-b32", "gradcheck-mini-f64"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if not (ROOT / "src" / "maxvit" / "__init__.py").is_file():
        print(f"perfbench: no maxvit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import maxvit  # noqa: F401
    import tracer as tracing
    import workloads
    import_s = time.perf_counter() - t0

    factory = workloads.WORKLOADS[args.workload]
    setups, walls = [], []
    for _ in range(SETUP_REPEATS):
        workload = factory()
        t0 = time.perf_counter()
        setups.append(workload.setup(args.seed))
        walls.append(time.perf_counter() - t0)
    setup_s = import_s + median(walls)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller",
        "machine": machine_facts(nproc, workload.dtype),
        "setup": {"import_s": import_s, "repeats_s": walls, "parts": setups},
    }
    if args.trace:
        plain = workload.run(args.seconds / 2)
        tr = tracing.Tracer()
        tr.watch_model(workload.model)
        with tr:
            traced = workload.run(args.seconds / 2, tr)
        tr.finish()
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tr.write_spans(spans_path)
        metrics = per_layer(tr, workload, setups, plain, traced)
        runs = (plain, traced)
        report["trace_detail"] = {
            "operations_traced": tr.ops,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans_written": len(tr.kept),
            "top_self_ms_per_op": top_self_times(tr),
            "kind_macs_per_op": workload.macs(),
            "gradcheck": gradcheck_detail(tr),
            "note": "kind.*.gmacs_per_s is computed: analytic forward MACs of counting.count_model "
                    "over traced forward self time of the ops of that kind",
        }
    else:
        measured = workload.run(args.seconds)
        metrics = end_to_end(measured, workload, setup_s)
        runs = (measured,)
        lat = [1e3 * t for t in measured.latencies]
        report["latency"] = {"samples": len(lat), "tail_percentile": tail(lat)[1], "ms": summary(lat)}

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    final_ok = workload.final_ok()
    correct = attempted > 0 and failed == 0 and final_ok
    report.update(
        attempted=attempted, failed=failed,
        failed_ratio=failed / attempted if attempted else 1.0,
        final_check=final_ok,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print(json.dumps(report, indent=1))
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
