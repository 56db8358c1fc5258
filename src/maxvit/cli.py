"""Command-line surface: variant inspection, self-verification, benchmarking,
and the toy training demo.

Exit codes: 0 success, 1 failed property or runtime failure, 2 usage error.
JSON output (--json, or --out files) validates against the schemas shipped in
maxvit/schemas/. Set MAXVIT_F64=1 to run everything in 64-bit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from statistics import median
from typing import Optional

import numpy as np

from .checks import attention_records, run_checks, suite_names
from .counting import count_model
from .errors import ConfigError, MaxVitError, PartitionError
from .golden import GOLDEN_MACS, GOLDEN_PARAMS, MACS_TOLERANCE, PARAM_TOLERANCE, within
from .model import (
    VARIANTS, block_pieces, build_model, default_window, forward, resolve_variant, validate_geometry, with_window,
)
from .tensor import Tensor, default_dtype
from .train import TOY_LOSS_TARGET, TOY_STEPS, train_toy

__all__ = ["main"]


def _emit(report: dict, args, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
    else:
        print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


# -- describe -------------------------------------------------------------------------

def _describe_report(variant: str, resolution: int, num_classes: int) -> dict:
    count = count_model(variant, resolution, num_classes, window=default_window(resolution))
    spec = replace(resolve_variant(variant), window=count.window, grid_size=count.grid_size)
    totals = count.stage_totals()
    extents = validate_geometry(spec, resolution, resolution)
    # each piece's output extent is the next one's input; a stage's is its last piece's
    stage_out = {p.stage: h for p, (h, _) in zip(block_pieces(spec), extents[1:])}

    stages = []
    p, m = totals["stem"]
    stages.append(
        {"name": "stem", "out_resolution": extents[0][0], "channels": spec.stem_channels,
         "depth": None, "params": p, "macs": m}
    )
    for si, st in enumerate(spec.stages):
        p, m = totals[f"stage{si}"]
        stages.append(
            {"name": f"stage{si + 1}", "out_resolution": stage_out[si], "channels": st.channels,
             "depth": st.depth, "params": p, "macs": m}
        )
    p, m = totals["head"]
    stages.append(
        {"name": "head", "out_resolution": 1, "channels": num_classes, "depth": None,
         "params": p, "macs": m}
    )

    golden_p = GOLDEN_PARAMS.get(variant)
    golden_m = GOLDEN_MACS.get((variant, resolution))
    params = {
        "total": count.total_params,
        "millions": round(count.total_params / 1e6, 3),
        "golden_millions": None if golden_p is None else golden_p / 1e6,
        "delta_pct": None if golden_p is None else round(100 * (count.total_params - golden_p) / golden_p, 2),
        "within_tolerance": None if golden_p is None else within(count.total_params, golden_p, PARAM_TOLERANCE),
        "tolerance_pct": 100 * PARAM_TOLERANCE,
    }
    macs = {
        "total": count.total_macs,
        "gmacs": round(count.total_macs / 1e9, 3),
        "golden_gmacs": None if golden_m is None else golden_m / 1e9,
        "delta_pct": None if golden_m is None else round(100 * (count.total_macs - golden_m) / golden_m, 2),
        "within_tolerance": None if golden_m is None else within(count.total_macs, golden_m, MACS_TOLERANCE),
        "tolerance_pct": 100 * MACS_TOLERANCE,
    }
    by_kind: dict[str, dict[str, int]] = {}
    for layer in count.layers:
        slot = by_kind.setdefault(layer.kind, {"params": 0, "macs": 0})
        slot["params"] += layer.params
        slot["macs"] += layer.macs
    ok = params["within_tolerance"] is not False and macs["within_tolerance"] is not False
    return {
        "variant": variant,
        "resolution": resolution,
        "window": count.window,
        "grid_size": count.grid_size,
        "num_classes": num_classes,
        "dtype": str(np.dtype(default_dtype())),
        "stages": stages,
        "params": params,
        "macs": macs,
        "by_kind": by_kind,
        "ok": ok,
    }


def _describe_text(r: dict) -> str:
    lines = [
        f"MaxViT-{r['variant']} at {r['resolution']}x{r['resolution']} "
        f"(window {r['window']}, grid {r['grid_size']}, {r['num_classes']} classes)",
        "",
        f"  {'stage':<8} {'out res':>8} {'width':>7} {'depth':>6} {'params':>13} {'MACs':>15}",
    ]
    for s in r["stages"]:
        depth = "-" if s["depth"] is None else str(s["depth"])
        lines.append(
            f"  {s['name']:<8} {s['out_resolution']:>8} {s['channels']:>7} {depth:>6}"
            f" {s['params']:>13,} {s['macs']:>15,}"
        )
    lines.append(f"  {'total':<8} {'':>8} {'':>7} {'':>6} {r['params']['total']:>13,} {r['macs']['total']:>15,}")
    lines.append("")

    def gate(label, block, unit, scale):
        if block["within_tolerance"] is None:
            return f"  {label}: {block['total'] / scale:.2f}{unit} (no reference at this configuration)"
        verdict = "OK" if block["within_tolerance"] else "OUT OF TOLERANCE"
        golden = block["golden_millions"] if unit == "M" else block["golden_gmacs"]
        return (
            f"  {label}: {block['total'] / scale:.2f}{unit} vs reference {golden:g}{unit}"
            f" (delta {block['delta_pct']:+.2f}%, tol +-{block['tolerance_pct']:g}%) {verdict}"
        )

    lines.append(gate("params", r["params"], "M", 1e6))
    lines.append(gate("MACs  ", r["macs"], "G", 1e9))
    return "\n".join(lines)


def _cmd_describe(args) -> int:
    report = _describe_report(args.variant, args.res, args.num_classes)
    _emit(report, args, _describe_text(report))
    return 0 if report["ok"] else 1


# -- check ----------------------------------------------------------------------------

def _check_text(r: dict) -> str:
    lines = []
    for suite in r["suites"]:
        lines.append(suite["name"])
        for prop in suite["properties"]:
            mark = {"pass": "pass ", "fail": "FAIL ", "error": "ERROR"}[prop["status"]]
            lines.append(f"  {mark} {prop['name']}")
            if prop["detail"]:
                lines.append(f"        {prop['detail']}")
    c = r["counts"]
    total = c["pass"] + c["fail"] + c["error"]
    lines.append("")
    lines.append(f"{c['pass']}/{total} properties passed")
    if not r["ok"]:
        failing = [
            f"{s['name']}.{p['name']}"
            for s in r["suites"]
            for p in s["properties"]
            if p["status"] != "pass"
        ]
        lines.append("failing: " + ", ".join(failing))
    return "\n".join(lines)


def _cmd_check(args) -> int:
    if args.filter and not any(args.filter in name for name in suite_names()):
        print(
            f"error: filter {args.filter!r} matches no suite; available: {', '.join(suite_names())}",
            file=sys.stderr,
        )
        return 2
    report = run_checks(filter=args.filter)
    _emit(report.to_dict(), args, _check_text(report.to_dict()))
    return 0 if report.ok else 1


# -- bench ----------------------------------------------------------------------------

def _time_forwards(model, images: Tensor, iters: int) -> list[float]:
    """Wall-clock milliseconds per forward pass (one warmup, then `iters` timed)."""
    forward(model, images)
    out = []
    for _ in range(iters):
        t0 = time.perf_counter()
        forward(model, images)
        out.append(1000.0 * (time.perf_counter() - t0))
    return out


def _cmd_bench(args) -> int:
    if args.iters < 0:
        raise ConfigError(f"iters must be non-negative, got {args.iters}")
    window = default_window(args.res)
    base = count_model(args.variant, args.res, window=window)
    dbl = count_model(args.variant, 2 * args.res, window=window)
    attention_macs = lambda c: sum(l.macs for l in attention_records(c))
    report = {
        "variant": args.variant,
        "resolution": args.res,
        "window": window,
        "iters": args.iters,
        "batch": 1,
        "seed": args.seed,
        "runs_ms": [],
        "median_ms": None,
        "p90_ms": None,
        "imgs_per_s": None,
        "double": None,
        "attention_mac_ratio": attention_macs(dbl) / attention_macs(base),
        "total_mac_ratio": dbl.total_macs / base.total_macs,
    }
    if args.iters > 0:
        model = build_model(args.variant, seed=args.seed)
        if window != model.variant.window:
            model = with_window(model, window)
        rng = np.random.default_rng(args.seed)
        x = Tensor(rng.standard_normal((1, args.res, args.res, 3)).astype(default_dtype()))
        runs = _time_forwards(model, x, args.iters)
        x2 = Tensor(rng.standard_normal((1, 2 * args.res, 2 * args.res, 3)).astype(default_dtype()))
        runs2 = _time_forwards(model, x2, args.iters)
        med = median(runs)
        report.update(
            runs_ms=[round(v, 3) for v in runs],
            median_ms=round(med, 3),
            p90_ms=round(float(np.percentile(runs, 90)), 3),
            imgs_per_s=round(1000.0 / med, 3),
        )
        report["double"] = {
            "resolution": 2 * args.res,
            "runs_ms": [round(v, 3) for v in runs2],
            "median_ms": round(median(runs2), 3),
            "time_ratio": round(median(runs2) / med, 3),
        }

    if report["median_ms"] is None:
        text = (
            f"bench {args.variant}@{args.res}: no timed runs (iters=0); "
            f"attention MACs scale x{report['attention_mac_ratio']:.2f} at {2 * args.res}"
        )
    else:
        d = report["double"]
        text = "\n".join(
            [
                f"bench {args.variant}@{args.res} (window {window}, batch 1, {args.iters} iters)",
                f"  median {report['median_ms']:.1f} ms   p90 {report['p90_ms']:.1f} ms   "
                f"{report['imgs_per_s']:.2f} imgs/s",
                f"  at {d['resolution']}: median {d['median_ms']:.1f} ms "
                f"(time x{d['time_ratio']:.2f}; attention MACs x{report['attention_mac_ratio']:.2f}, "
                f"total MACs x{report['total_mac_ratio']:.2f})",
            ]
        )
    _emit(report, args, text)
    return 0


# -- train-toy ------------------------------------------------------------------------

def _cmd_train_toy(args) -> int:
    log_every = 0 if args.json else 25
    result = train_toy(seed=args.seed, steps=args.steps, trace_path=args.out, log_every=log_every)
    hit = next((i for i, v in enumerate(result.losses) if v < TOY_LOSS_TARGET), None)
    final = None if math.isnan(result.final_loss) else result.final_loss
    report = {
        "seed": result.seed,
        "steps": result.steps,
        "final_loss": final,
        "accuracy": result.accuracy,
        "hit_step": hit,
        "target": TOY_LOSS_TARGET,
        "trace_path": args.out,
    }
    reached = f"reached <{TOY_LOSS_TARGET} at step {hit}" if hit is not None else f"never reached <{TOY_LOSS_TARGET}"
    text = (
        f"train-toy seed={result.seed} steps={result.steps}: "
        f"final loss {'n/a' if final is None else f'{final:.6f}'}, {reached}, "
        f"train accuracy {result.accuracy:.4f}"
        + (f", trace -> {args.out}" if args.out else "")
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(text)
    return 0


# -- argument surface -------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxvit",
        description="Multi-axis attention backbone: inspect, verify, benchmark, train the toy demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    variants = sorted(VARIANTS)

    d = sub.add_parser("describe", help="per-stage shapes, parameter and MAC accounting vs references")
    d.add_argument("--variant", choices=variants, default="T")
    d.add_argument("--res", type=int, default=224, help="square input resolution (multiple of 32)")
    d.add_argument("--num-classes", type=int, default=1000)
    d.add_argument("--json", action="store_true", help="print the report as JSON")
    d.add_argument("--out", default=None, help="also write the JSON report to this path")
    d.set_defaults(fn=_cmd_describe)

    c = sub.add_parser("check", help="run the self-verification suites")
    c.add_argument("--filter", default=None, help=f"substring of a suite name ({', '.join(suite_names())})")
    c.add_argument("--json", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=_cmd_check)

    b = sub.add_parser("bench", help="forward-pass timing at a resolution and its double")
    b.add_argument("--variant", choices=variants, default="T")
    b.add_argument("--res", type=int, default=224)
    b.add_argument("--iters", type=int, default=5, help="timed forwards per resolution (0: analytic report only)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--json", action="store_true")
    b.add_argument("--out", default=None)
    b.set_defaults(fn=_cmd_bench)

    t = sub.add_parser("train-toy", help="train the miniature variant on the synthetic two-class set")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--steps", type=int, default=TOY_STEPS)
    t.add_argument("--out", default=None, help="write the per-step loss trace CSV here")
    t.add_argument("--json", action="store_true")
    t.set_defaults(fn=_cmd_train_toy)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, PartitionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MaxVitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
