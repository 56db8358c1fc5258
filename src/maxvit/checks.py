"""Runnable self-verification suites backing the `check` command.

Each suite is a named list of properties; a property either returns (pass) or
raises (fail, with the exception text as the detail). The public `check_*`
functions are the one implementation of each property: the registry below,
the acceptance gate and the unit tests call them with their own seeds, case
counts and size pools. Partition checks deliberately call through the `axes`
module object so that a fault injected there (e.g. monkeypatching an
off-by-one `grid`) is caught by the roundtrip checks rather than bypassed
through stale local bindings.
"""

from __future__ import annotations

import tempfile
import time
from typing import Callable, Optional

import numpy as np

from . import axes, ops
from .attention import build_bias_index, init_attention, interpolate_bias, multi_head_attention
from .errors import MaxVitError, PartitionError
from .gradcheck import GRAD_TOL, grad_check, primitive_cases
from .golden import GOLDEN_MACS, GOLDEN_PARAMS, MACS_TOLERANCE, PARAM_TOLERANCE, within
from .model import (
    StageSpec,
    TOY_VARIANT,
    VariantSpec,
    build_model,
    default_window,
    forward,
    load_model,
    named_buffers,
    named_parameters,
    parameter_slots,
    save_model,
    validate_geometry,
)
from .counting import LayerCount, ModelCount, count_model
from .tensor import Tensor, debug_checks_enabled, set_debug_checks
from .train import train_toy

__all__ = [
    "suite_names", "run_checks",
    "INDEX_TABLES_4X4", "check_partition_roundtrips", "check_grid_is_transposed_block",
    "check_partition_index_tables", "dense_attention_oracle", "check_golden_params", "check_golden_macs",
    "attention_records", "check_attention_macs_quadruple", "check_block_grid_parity",
    "check_emd_hand_case", "check_emd_metric_axioms", "check_cross_entropy_oracle",
]


# -- partition suite ----------------------------------------------------------------

# 4x4 image, size-2 windows: block gathers contiguous patches, grid strides
INDEX_TABLES_4X4 = {
    "block": [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]],
    "grid": [[0, 2, 8, 10], [1, 3, 9, 11], [4, 6, 12, 14], [5, 7, 13, 15]],
}


def check_partition_roundtrips(
    seed: int, cases: int, sizes, kinds=("block", "grid"), dtype=np.float64
) -> list[tuple[str, tuple[int, ...], int]]:
    """`cases` random NHWC maps, case i partitioned by kinds[i % len(kinds)]
    with a size from `sizes` dividing both extents, then merged back; each must
    return bitwise. Returns the (kind, shape, size) of every case."""
    rng = np.random.default_rng(seed)
    seen = []
    for case in range(cases):
        kind = kinds[case % len(kinds)]
        size = int(rng.choice(sizes))
        b, c = int(rng.integers(1, 3)), int(rng.integers(1, 5))
        h, w = size * int(rng.integers(1, 5)), size * int(rng.integers(1, 5))
        x = Tensor(rng.standard_normal((b, h, w, c)).astype(dtype))
        back = getattr(axes, "un" + kind)(getattr(axes, kind)(x, size), h, w, size)
        assert np.array_equal(back.data, x.data), f"{kind} round trip broke at {(b, h, w, c)}, size {size}"
        seen.append((kind, x.shape, size))
    return seen


def check_grid_is_transposed_block(seed: int, pairs) -> None:
    """grid(x, g) == transpose(block(x, n // g), (0, 2, 1, 3)) bitwise on
    random (2, n, n, 3) maps, for each (n, g) in `pairs`."""
    rng = np.random.default_rng(seed)
    for n, g in pairs:
        x = Tensor(rng.standard_normal((2, n, n, 3)))
        via_block = ops.transpose(axes.block(x, n // g), (0, 2, 1, 3))
        assert np.array_equal(axes.grid(x, g).data, via_block.data), f"equivalence broke at n={n}, g={g}"


def check_partition_index_tables(kinds=("block", "grid")) -> None:
    """partition_indices of a 4x4 map at size 2 equals INDEX_TABLES_4X4, for each of `kinds`."""
    for kind in kinds:
        got = axes.partition_indices(kind, 4, 4, 2).tolist()
        assert got == INDEX_TABLES_4X4[kind], f"{kind} index table {got}"


def _check_partition_rejects_indivisible():
    x = Tensor(np.zeros((1, 6, 4, 2)))
    for fn, size in ((axes.block, 4), (axes.grid, 4)):
        try:
            fn(x, size)
        except PartitionError:
            continue
        raise AssertionError(f"{fn.__name__} accepted a non-divisible extent")


# -- attention suite ----------------------------------------------------------------

def dense_attention_oracle(x: np.ndarray, p, index: np.ndarray, kind: str) -> np.ndarray:
    """Head-by-head loop reference of multi_head_attention on an NHWC array.

    Groups come from pixel coordinates, tokens in a group are row-major (as
    build_bias_index assumes), and heads are contiguous channel slices.
    """
    b, h, w, _ = x.shape
    size, d = p.window, p.wq.weight.shape[1] // p.heads
    q, k, v = (x @ lin.weight.data for lin in (p.wq, p.wk, p.wv))
    n, out = np.arange(size), np.zeros_like(x)
    for gr, gc in np.ndindex(h // size, w // size):
        if kind == "block":  # the size x size window at (gr, gc)
            rows, cols = gr * size + n, gc * size + n
        else:  # offset (gr, gc) inside each cell of the size x size lattice
            rows, cols = n * (h // size) + gr, n * (w // size) + gc
        r, cc = np.repeat(rows, size), np.tile(cols, size)
        for bi, hi in np.ndindex(b, p.heads):
            sl = slice(hi * d, (hi + 1) * d)
            logits = (q[bi, r, cc, sl] / np.sqrt(d)) @ k[bi, r, cc, sl].T + p.bias_table.data[hi][index]
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            out[bi, r, cc, sl] = (e / e.sum(axis=-1, keepdims=True)) @ v[bi, r, cc, sl]
    return out @ p.wo.weight.data + p.wo.bias.data


def _check_attention_matches_dense_oracle():
    rng = np.random.default_rng(104)
    p = init_attention(rng, channels=8, window=2, head_dim=4, dtype=np.float64)
    p.bias_table = Tensor(rng.standard_normal(p.bias_table.shape))
    index = build_bias_index(2)
    x = Tensor(rng.standard_normal((2, 2, 6, 8)))  # 3 groups of each kind
    for kind in ("block", "grid"):
        got = multi_head_attention(x, p, index, kind).data
        err = np.abs(got - dense_attention_oracle(x.data, p, index, kind)).max()
        assert err < 1e-10, f"{kind} attention deviates from dense oracle by {err:.3e}"


def _check_bias_index_involution():
    # swapping query and key mirrors the displacement: idx[i,j] + idx[j,i] is constant
    for window in (2, 3, 7):
        idx = build_bias_index(window)
        n = (2 * window - 1) ** 2 - 1
        assert ((idx + idx.T) == n).all(), f"index table not displacement-symmetric at P={window}"
        assert (np.diag(idx) == n // 2).all(), "zero displacement must map to the table center"


def _check_bias_interpolation_identity_and_shape():
    rng = np.random.default_rng(105)
    table = Tensor(rng.standard_normal((3, (2 * 7 - 1) ** 2)))
    same = interpolate_bias(table, 7)
    assert np.array_equal(same.data, table.data), "identity resize must be exact"
    grown = interpolate_bias(table, 12)
    assert grown.shape == (3, (2 * 12 - 1) ** 2), f"resized table has shape {grown.shape}"


# -- gradcheck suite ----------------------------------------------------------------

MINIATURE = VariantSpec(
    name="mini",
    stem_channels=8,
    stages=(StageSpec(1, 8),),
    head_dim=8,
)


def _check_miniature_end_to_end_gradients():
    model = build_model(MINIATURE, num_classes=2, seed=0, dtype=np.float64)
    rng = np.random.default_rng(106)
    images = Tensor(rng.standard_normal((1, 28, 28, 3)))
    labels = np.array([1])
    slots = parameter_slots(model)
    params = [getattr(h, k) for _, h, k in slots]
    # A deep model always has some parameter entries with near-zero gradient,
    # and central differences cannot resolve those against the rounding of a
    # O(1) loss value, so the per-entry relative comparison would drown in fd
    # noise. Adding a fixed linear term anchors every coordinate's gradient at
    # O(1); the term is differentiated exactly by both sides, so any defect in
    # the model's backward rules still surfaces as an absolute mismatch.
    anchors = [
        Tensor(np.where(rng.random(p.shape) < 0.5, -1.0, 1.0) * rng.uniform(2.0, 3.0, p.shape))
        for p in params
    ]

    def f(*ps):
        for (name, holder, key), p in zip(slots, ps):
            setattr(holder, key, p)
        loss = ops.softmax_cross_entropy(forward(model, images, training=False), labels)
        for p, r in zip(ps, anchors):
            loss = ops.add(loss, ops.reduce_sum(ops.mul(p, r)))
        return loss

    err = grad_check(f, params)
    assert err < GRAD_TOL, f"miniature model max relative gradient error {err:.3e}"


def _gradcheck_suite():
    props = []
    for name, fn, params in primitive_cases(seed=0):
        def prop(fn=fn, params=params, name=name):
            err = grad_check(fn, params)
            assert err < GRAD_TOL, f"{name}: max relative gradient error {err:.3e}"

        props.append((f"grad:{name}", prop))
    props.append(("grad:miniature_model_end_to_end", _check_miniature_end_to_end_gradients))
    return props


# -- golden suite -------------------------------------------------------------------

def check_golden_params(names=None) -> dict[str, float]:
    """Analytic parameter counts at 224 within PARAM_TOLERANCE of the published
    ones, for `names` (every GOLDEN_PARAMS variant when None). Returns each
    variant's delta in percent."""
    deltas, bad = {}, []
    for name in GOLDEN_PARAMS if names is None else names:
        got, want = count_model(name, resolution=224).total_params, GOLDEN_PARAMS[name]
        deltas[name] = 100 * (got - want) / want
        if not within(got, want, PARAM_TOLERANCE):
            bad.append(f"{name}: {got} vs {want:.0f}")
    assert not bad, "param counts outside 2%: " + "; ".join(bad)
    return deltas


def check_golden_macs(targets=None) -> dict[str, float]:
    """Analytic MACs at the resolution's default window within MACS_TOLERANCE of
    the published ones, for each (variant, resolution) in `targets` (every
    GOLDEN_MACS key when None). Returns each target's delta in percent."""
    deltas, bad = {}, []
    for name, res in GOLDEN_MACS if targets is None else targets:
        got, want = count_model(name, resolution=res).total_macs, GOLDEN_MACS[(name, res)]
        deltas[f"{name}@{res}"] = 100 * (got - want) / want
        if not within(got, want, MACS_TOLERANCE):
            bad.append(f"{name}@{res}: {got} vs {want:.0f}")
    assert not bad, "MAC counts outside 5%: " + "; ".join(bad)
    return deltas


def _check_window_policy():
    table = {224: 7, 384: 12, 448: 7, 512: 8, 672: 7, 896: 7}
    got = {res: default_window(res) for res in table}
    assert got == table, f"window policy {got}"
    for res in table:
        spec = VariantSpec("t", 64, (StageSpec(1, 64),) * 4, window=default_window(res))
        validate_geometry(spec, res, res)


def attention_records(count: ModelCount) -> list[LayerCount]:
    """The records of every block- and grid-attention layer, norms and MLP included."""
    return [l for l in count.layers if ".block_attn." in l.name or ".grid_attn." in l.name]


def check_attention_macs_quadruple(variant: str = "T", resolution: int = 224, window: int = 7) -> int:
    """At twice the resolution and a fixed window, the layer records keep their
    names, attention records keep their params, and every attention record's
    MACs are exactly 4x. Returns the number of attention records compared."""
    base = count_model(variant, resolution=resolution, window=window)
    double = count_model(variant, resolution=2 * resolution, window=window)
    assert [l.name for l in base.layers] == [l.name for l in double.layers], "layer records differ"
    pairs = list(zip(attention_records(base), attention_records(double)))
    for a, b in pairs:
        assert b.params == a.params, f"{a.name}: params {b.params} != {a.params}"
        assert b.macs == 4 * a.macs, f"{a.name}: {b.macs} != 4*{a.macs}"
    assert pairs, "no attention layers compared"
    return len(pairs)


def check_block_grid_parity(variant: str, resolution: int = 224) -> int:
    """Each block's grid-attention records equal its block-attention records,
    name for name, in params and MACs, and every block has attention with
    non-zero params and MACs. Returns the number of blocks."""
    count = count_model(variant, resolution=resolution)
    paths = {
        kind: {l.name.replace(f".{kind}.", "."): (l.params, l.macs) for l in count.layers if f".{kind}." in l.name}
        for kind in ("block_attn", "grid_attn")
    }
    assert paths["block_attn"] == paths["grid_attn"], f"{variant}: block and grid attention records differ"
    blocks = {".".join(l.name.split(".")[:3]) for l in count.layers if l.name.startswith("stages.")}
    for blk in sorted(blocks):
        records = [v for k, v in paths["block_attn"].items() if k.startswith(blk + ".")]
        params, macs = sum(p for p, _ in records), sum(m for _, m in records)
        assert params > 0 and macs > 0, f"{variant}: {blk} attention has {params} params and {macs} MACs"
    return len(blocks)


# -- loss suite ----------------------------------------------------------------------

def check_emd_hand_case() -> float:
    """All mass one bin apart over two bins, r=2: sqrt(1/2) to 1e-12 relative. Returns the value."""
    got = ops.emd_loss(Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 1.0])), r=2.0).item()
    assert abs(got - np.sqrt(0.5)) <= 1e-12 * np.sqrt(0.5), f"hand case gave {got!r}"
    return got


def check_emd_metric_axioms(seed: int, triples: int) -> None:
    """Symmetry, non-negativity and the triangle inequality of emd_loss on
    `triples` random triples of 10-bin distributions, then a zero self-distance."""
    rng = np.random.default_rng(seed)

    def simplex():
        v = rng.random(10) + 1e-9
        return Tensor(v / v.sum())

    for _ in range(triples):
        p, q, s = simplex(), simplex(), simplex()
        dpq = ops.emd_loss(p, q).item()
        dqp = ops.emd_loss(q, p).item()
        assert abs(dpq - dqp) < 1e-12, f"symmetry violated: {dpq} vs {dqp}"
        assert dpq >= 0.0, f"negative distance {dpq}"
        tri = ops.emd_loss(p, s).item() + ops.emd_loss(s, q).item()
        assert dpq <= tri + 1e-12, f"triangle inequality violated: {dpq} > {tri}"
    p = simplex()
    assert ops.emd_loss(p, Tensor(p.data.copy())).item() == 0.0, "self-distance must be zero"


def check_cross_entropy_oracle(seed: int, batch: int, classes: int, spread: float) -> None:
    """softmax_cross_entropy on random f64 logits (standard normal x `spread`)
    within 1e-12 of a per-row loop oracle."""
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((batch, classes)) * spread
    labels = rng.integers(0, classes, size=batch)
    got = ops.softmax_cross_entropy(Tensor(logits), labels).item()
    want = 0.0
    for row, y in zip(logits, labels):
        e = np.exp(row - row.max())
        want -= np.log(e[y] / e.sum())
    want /= batch
    assert abs(got - want) < 1e-12, f"cross-entropy {got} vs oracle {want}"


# -- serialization suite ---------------------------------------------------------------

def _check_checkpoint_roundtrip():
    model = build_model(TOY_VARIANT, num_classes=2, seed=3)
    rng = np.random.default_rng(109)
    x = Tensor(rng.standard_normal((1, 112, 112, 3)).astype(np.float32))
    before = forward(model, x).data
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, tmp)
        loaded = load_model(tmp)
    for (name_a, pa), (name_b, pb) in zip(named_parameters(model), named_parameters(loaded)):
        assert name_a == name_b, f"parameter order changed: {name_a} vs {name_b}"
        assert np.array_equal(pa.data, pb.data), f"parameter {name_a} not preserved"
    for (name_a, ba), (name_b, bb) in zip(named_buffers(model), named_buffers(loaded)):
        assert name_a == name_b and np.array_equal(ba, bb), f"buffer {name_a} not preserved"
    after = forward(loaded, x).data
    assert np.array_equal(before, after), "reloaded model computes different logits"


# -- numerics suite ------------------------------------------------------------------

GELU_F32_BOUND = 5e-7  # |f32 gelu - exact gelu| <= bound * max(1, |x|)


def _check_gelu_f32_matches_exact():
    x = np.linspace(-12.0, 12.0, 4_000_001).astype(np.float32)
    bias = np.linspace(-1.5, 1.5, 61).astype(np.float32)
    rows = x[:x.size // bias.size * bias.size].reshape(-1, bias.size)
    # plain, and with a per-channel bias added inside the blocked loop: against the exact GELU of the f32 input
    for name, got, pre in (
        ("gelu(x)", ops.gelu(Tensor(x)).data, x),
        ("gelu(x, bias)", ops.gelu(Tensor(rows), Tensor(bias)).data, rows + bias),
    ):
        assert got.dtype == np.float32, f"f32 {name} returned {got.dtype}"
        pre64 = pre.astype(np.float64)
        err = np.abs(got - ops.gelu(Tensor(pre64)).data) / np.maximum(1.0, np.abs(pre64))
        worst = np.unravel_index(int(err.argmax()), err.shape)
        assert err[worst] <= GELU_F32_BOUND, f"f32 {name} error {err[worst]:.3e} * max(1, |y|) at y={pre[worst]}"
    # Phi saturates: exactly 0 and 1 wherever erf's argument reaches the clip, |y| >= 5 * sqrt(2)
    far = np.append(np.geomspace(5 * np.sqrt(2), 3e38, 100_001), np.inf).astype(np.float32)
    for sign, want in ((1, 1.0), (-1, 0.0)):
        cdf = ops._cdf(sign * far, *(np.empty_like(far) for _ in "ztc"))
        assert (cdf == want).all(), f"f32 Phi({sign * far[cdf != want][0]}) = {cdf[cdf != want][0]!r}, not {want}"
    # inf, -inf and nan through each GELU entry; ops reject non-finite outputs under MAXVIT_DEBUG=1
    special = np.array([np.inf, -np.inf, np.nan], np.float32)
    c = np.float32([0.5, -0.5, 1.0])
    paths = {
        "gelu(x)": lambda v: ops.gelu(Tensor(v)),
        "gelu(x, bias)": lambda v: ops.gelu(Tensor(v), Tensor(c)),
        "batch_norm_inference(gelu=True)": lambda v: ops.batch_norm_inference(
            Tensor(v.reshape(1, 1, 1, 3)), Tensor(c + 1), Tensor(c), c, c + 1, gelu=True
        ),
    }
    debug = debug_checks_enabled()
    set_debug_checks(False)
    try:
        with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) = -inf * 0, as in the exact form
            for name, path in paths.items():
                got = path(special).data.ravel()
                assert np.array_equal(got, [np.inf, np.nan, np.nan], equal_nan=True), f"{name} of (inf, -inf, nan) = {got}"
    finally:
        set_debug_checks(debug)


# -- training suite --------------------------------------------------------------------

def _check_train_smoke():
    r = train_toy(seed=0, steps=5)
    losses = np.asarray(r.losses)
    assert np.isfinite(losses).all(), f"non-finite loss in {r.losses}"
    assert losses[-1] < losses[0], f"no descent over 5 steps: {r.losses}"


# -- registry -----------------------------------------------------------------------

def _static_suites() -> dict[str, list[tuple[str, Callable[[], None]]]]:
    return {
        "partition": [
            (
                "block_roundtrip_random",
                lambda: check_partition_roundtrips(seed=101, cases=60, sizes=(2, 3, 7), kinds=("block",)),
            ),
            (
                "grid_roundtrip_random",
                lambda: check_partition_roundtrips(seed=102, cases=60, sizes=(2, 3, 7), kinds=("grid",)),
            ),
            (
                "grid_is_transposed_block_on_squares",
                lambda: check_grid_is_transposed_block(seed=103, pairs=((8, 2), (12, 3), (14, 7), (28, 7))),
            ),
            ("index_tables_4x4", check_partition_index_tables),
            ("rejects_indivisible_extents", _check_partition_rejects_indivisible),
        ],
        "attention": [
            ("matches_dense_oracle", _check_attention_matches_dense_oracle),
            ("bias_index_displacement_symmetry", _check_bias_index_involution),
            ("bias_interpolation_identity_and_shape", _check_bias_interpolation_identity_and_shape),
        ],
        "gradcheck": _gradcheck_suite(),
        "golden": [
            ("parameter_parity", check_golden_params),
            ("mac_parity", check_golden_macs),
            ("window_policy", _check_window_policy),
            ("attention_macs_quadruple_at_double_resolution", check_attention_macs_quadruple),
        ],
        "losses": [
            ("emd_hand_case", check_emd_hand_case),
            ("emd_metric_axioms", lambda: check_emd_metric_axioms(seed=107, triples=200)),
            ("cross_entropy_oracle", lambda: check_cross_entropy_oracle(seed=108, batch=6, classes=4, spread=2.0)),
        ],
        "serialization": [
            ("checkpoint_roundtrip", _check_checkpoint_roundtrip),
        ],
        "numerics": [
            ("gelu_f32_matches_exact", _check_gelu_f32_matches_exact),
        ],
        "train": [
            ("toy_smoke_descends", _check_train_smoke),
        ],
    }


def suite_names() -> list[str]:
    return list(_static_suites())


def run_checks(filter: Optional[str] = None) -> dict:
    """Run every suite whose name contains `filter` (all when None).

    Returns the report that schemas/check.schema.json describes: `ok` is true
    when at least one suite ran and every property passed.
    """
    counts = {"pass": 0, "fail": 0, "error": 0}
    suites = []
    for suite_name, props in _static_suites().items():
        if filter and filter not in suite_name:
            continue
        results = []
        for prop_name, fn in props:
            status, detail = "pass", ""
            t0 = time.perf_counter()
            try:
                fn()
            except AssertionError as exc:
                status, detail = "fail", str(exc)
            except MaxVitError as exc:
                status, detail = "fail", f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # noqa: BLE001 - a crash is a failing property, not a crash of check
                status, detail = "error", f"{type(exc).__name__}: {exc}"
            ms = 1000.0 * (time.perf_counter() - t0)
            counts[status] += 1
            results.append({"name": prop_name, "status": status, "detail": detail, "duration_ms": ms})
        suites.append({"name": suite_name, "ok": all(r["status"] == "pass" for r in results), "properties": results})
    ok = bool(suites) and all(s["ok"] for s in suites)
    return {"ok": ok, "filter": filter, "counts": counts, "suites": suites}
