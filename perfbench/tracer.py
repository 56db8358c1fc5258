"""Span tracer that instruments the maxvit package from outside.

`Tracer.install()` wraps every public function (and every public method of a
public class) defined in the traced maxvit modules, and rebinds each wrapped
name in every loaded ``maxvit`` module that holds the same object, so that
``from .nn import conv`` call sites see the wrapper too. `restore()` puts every
binding back. The tape's ``record`` is wrapped without a span of its own: it
swaps the ``backward`` callable it is handed for one that records an
``<op>.bwd`` span, which is how per-op backward time is measured.

Spans are ``[name, start, end, parent, kind, id]`` lists; ``parent`` is the
parent's position in the open list and ``id`` a number unique in the run.
Each benchmark operation opens one root span named ``op``; when it closes, the
operation's spans are folded into running totals and dropped, so memory stays
bounded however long the run. Spans that belong to no operation (a
``grad_check`` call and its analytic pass) are folded in by `finish()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = ("ops", "nn", "axes", "attention", "model", "tape", "optim", "gradcheck")

NAME, START, END, PARENT, KIND, UID = range(6)
_FOLDED = object()  # KIND of a root span already counted


def self_times(spans):
    """Self time of every span: its duration minus the union of its children.

    `spans` is a sequence of ``[name, start, end, parent, ...]`` with parent an
    index into the same sequence or None. Children are clipped to the parent
    interval, so overlapping or overhanging children are not counted twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s[START]
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo = max(spans[c][START], edge)
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s[END] - s[START] - covered)
    return out


def _nbytes(result) -> int:
    data = getattr(result, "data", None)
    if data is None and isinstance(result, tuple) and result:
        data = getattr(result[0], "data", None)
    return int(getattr(data, "nbytes", 0))


def _conv_kind(args, kwargs, parent):
    w = args[1] if len(args) > 1 else kwargs["w"]
    kh, kw = w.shape[0], w.shape[1]
    return f"conv{kh}x{kw}"


_MATMUL_KIND = {"nn.linear": "dense", "attention.rel_attention": "attn_matmul"}

# Extra labelling for spans whose meaning depends on their arguments.
_KIND_OF = {
    "ops.conv2d": _conv_kind,
    "ops.depthwise_conv2d": lambda a, k, parent: "dwconv",
    "ops.matmul": lambda a, k, parent: _MATMUL_KIND.get(parent),
}


class Tracer:
    def __init__(self, span_limit: int = 50_000):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.stage_of: dict[int, int] = {}
        self._uid = 0
        self.span_limit = span_limit
        self.kept: list[dict] = []  # spans written out, bounded by span_limit
        self.ops = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.out_bytes = defaultdict(int)
        self.kind_s = defaultdict(float)
        self.under_s = defaultdict(float)  # summed durations of each name's direct children
        self.tape_entries = 0
        self.tape_retained = 0
        self.op_wall_s = 0.0
        self.op_covered_s = 0.0

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str, kind=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self._uid += 1
        self.spans.append([name, time.perf_counter(), 0.0, parent, kind, self._uid])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self):
        """Root span of one benchmark operation; its spans are folded on exit.

        A root that has a parent (an evaluation inside ``grad_check``) stays
        in the list, marked folded, next to a folded span for the time the
        fold took, so that the parent's self time excludes both.
        """
        root = self._open("op")
        try:
            yield
        finally:
            self._close(root)
            parent = self.spans[root][PARENT]
            t0 = time.perf_counter()
            self._fold(root, op_id=self.ops)
            self.ops += 1
            if parent is not None:  # keep folding time out of the parent's self time
                self._uid += 1
                self.spans.append(["trace.fold", t0, time.perf_counter(), parent, _FOLDED, self._uid])

    def watch_model(self, model) -> None:
        """Name stage-block spans by stage index for this model's blocks."""
        self.stage_of = {id(blk): si for si, blocks in enumerate(model.stages) for blk in blocks}

    # -- aggregation -------------------------------------------------------------

    def _fold(self, first: int, op_id) -> None:
        """Add spans[first:] to the totals and drop them."""
        part = self.spans[first:]
        local = [s[:PARENT] + [None if s[PARENT] is None or s[PARENT] < first else s[PARENT] - first] + s[KIND:]
                 for s in part]
        own = self_times(local)
        for s, st in zip(local, own):
            name = s[NAME]
            if s[KIND] is _FOLDED:
                continue
            self.calls[name] += 1
            self.self_s[name] += st
            self.total_s[name] += s[END] - s[START]
            if s[KIND] is not None and not name.endswith(".bwd"):
                self.kind_s[s[KIND]] += st
            if s[PARENT] is not None:
                self.under_s[local[s[PARENT]][NAME]] += s[END] - s[START]
        for i, s in enumerate(local):
            if s[NAME] != "model.forward":
                continue
            stages = [c for c in local if c[PARENT] == i and c[NAME].startswith("model.stage")]
            if stages:
                self.total_s["model.stem"] += stages[0][START] - s[START]
                self.total_s["model.head"] += s[END] - stages[-1][END]
        if op_id is not None:
            self.op_wall_s += local[0][END] - local[0][START]
            self.op_covered_s += sum(own[1:])
        room = max(self.span_limit - len(self.kept), 0)
        for s in [s for s in part if s[KIND] is not _FOLDED][:room]:
            parent = None if s[PARENT] is None else self.spans[s[PARENT]][UID]
            self.kept.append({"op": op_id, "id": s[UID], "name": s[NAME], "start": s[START],
                              "end": s[END], "parent": parent})
        if op_id is not None and part[0][PARENT] is not None:
            part[0][KIND] = _FOLDED
            first += 1
        del self.spans[first:]

    def finish(self) -> None:
        """Fold the spans that belong to no operation (call once, when stopped)."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        if self.spans:
            self._fold(0, op_id=None)

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for s in self.kept:
                f.write(json.dumps(s) + "\n")

    # -- instrumentation -----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        kind_of = _KIND_OF.get(name)
        tracer = self
        is_op = name.startswith("ops.")
        namer = None
        if name == "attention.attention_layer":
            namer = lambda a, k: f"attention.{a[1].kind}"
        elif name == "model.stage_block_forward":
            namer = lambda a, k: f"model.stage{tracer.stage_of.get(id(a[1]), 'x')}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            kind = None
            if kind_of is not None:
                parent = tracer._stack[-1] if tracer._stack else None
                kind = kind_of(args, kwargs, tracer.spans[parent][NAME] if parent is not None else None)
            idx = tracer._open(label, kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if is_op:
                tracer.out_bytes[label] += _nbytes(result)
            return result

        return wrapper

    def _record_wrapper(self, record):
        tracer = self

        @functools.wraps(record)
        def wrapper(out, inputs, backward):
            op = tracer.spans[tracer._stack[-1]] if tracer._stack else None
            name = f"{op[NAME]}.bwd" if op is not None else "untraced.bwd"
            kind = op[KIND] if op is not None else None

            def timed_backward(g):
                idx = tracer._open(name, kind)
                try:
                    return backward(g)
                finally:
                    tracer._close(idx)

            timed_backward.__wrapped__ = backward
            return record(out, inputs, timed_backward)

        return wrapper

    def _gradient_wrapper(self, gradient):
        tracer = self
        span = self._span_wrapper(gradient, "tape.gradient")

        @functools.wraps(gradient)
        def wrapper(tape, output, params):
            tracer.tape_entries += len(tape)
            tracer.tape_retained += retained_bytes(tape)
            return span(tape, output, params)

        return wrapper

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        traced = {short: importlib.import_module(f"maxvit.{short}") for short in TRACED_MODULES}
        modules = [m for n, m in list(sys.modules.items()) if n == "maxvit" or n.startswith("maxvit.")]
        for short, mod in traced.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if short == "tape" and attr == "record":
                        wrapped = self._record_wrapper(obj)
                    else:
                        wrapped = self._span_wrapper(obj, f"{short}.{attr}")
                    for m in modules:
                        for name, val in list(vars(m).items()):
                            if val is obj:
                                self._saved.append((m, name, val))
                                setattr(m, name, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        if short == "tape" and meth == "gradient":
                            wrapped = self._gradient_wrapper(fn)
                        else:
                            wrapped = self._span_wrapper(fn, f"{short}.{meth}")
                        self._saved.append((obj, meth, fn))
                        setattr(obj, meth, wrapped)
        return self

    def restore(self) -> None:
        for holder, name, original in reversed(self._saved):
            setattr(holder, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def retained_bytes(tape) -> int:
    """Bytes of the distinct arrays a tape keeps alive through its entries.

    Counts each entry's output and inputs and every ndarray or Tensor captured
    by its backward closure (the intermediates the backward rule reuses).
    """
    seen: dict[int, int] = {}

    def add(obj):
        arr = obj.data if hasattr(obj, "data") and isinstance(obj.data, np.ndarray) else obj
        if not isinstance(arr, np.ndarray):
            return
        while isinstance(arr.base, np.ndarray):  # count a view's whole buffer once
            arr = arr.base
        seen[id(arr)] = arr.nbytes

    for entry in tape._entries:
        add(entry.out)
        for t in entry.inputs:
            add(t)
        fn = getattr(entry.backward, "__wrapped__", entry.backward)
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                add(cell.cell_contents)
            except ValueError:  # empty cell
                pass
    return sum(seen.values())
