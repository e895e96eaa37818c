"""Span tracing for the traced benchmark run, applied from outside the program.

`instrument` wraps the public functions of the program's layer modules
(`data`, `model`, `layers`, `training`) and the public methods of
`model.Model`. Every binding of a wrapped function in any loaded `acnn`
module is replaced, so a name imported with `from .layers import ...` is
traced too. `tensor` is left unwrapped: its RNG cost shows inside
`layers.dropout`. `evaluate`, `bench` and `cli` are orchestration and are not
on any workload's hot path.

Each call records a span: name, start, end, parent span and unit id. Spans
stay in memory; `Tracer.write` saves them when the run ends and
`per_layer_metrics` reduces them to the per-layer metrics of BENCHMARK.json.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYER_MODULES = ("data", "model", "layers", "training")

LAYER_OPS = ("autocorr_forward", "autocorr_backward", "conv1d_forward",
             "conv1d_backward", "width1_forward", "width1_backward",
             "softmax_rows", "relu", "relu_backward", "dropout")

# Timed-phase spans reported by self time or busy (inclusive) time.
RUN_SELF = ("training.batch_loss_and_grads", "model.Model.forward_with_cache",
            "model.Model.backward", "training.predict_masks")
RUN_BUSY = ("training.cross_entropy", "training.adam_step")

# Set-up spans, reported as the median over a run's set-ups of their busy time.
SETUP_BUSY = ("data.generate_corpus", "data.preprocess", "data.build_vocab",
              "data.read_corpus", "data.write_corpus", "model.Model.build",
              "model.save_checkpoint", "model.load_checkpoint")

F64 = 8  # bytes per element; every acnn tensor is float64


# ---------------------------------------------------------------------------
# Computed operation counts. These count the arithmetic each operator defines
# (a multiply-add is 2), not what a given implementation executes, so a
# rewrite that skips work shows as a higher gflop_s.
# ---------------------------------------------------------------------------

def conv_forward_flops(n: int, w: int, m: int, c: int) -> int:
    return 2 * n * c * w * m + n * c


def conv_backward_flops(n: int, w: int, m: int, c: int) -> int:
    # dA and dwindow contractions, bias sum, scatter of windows back onto rows
    return 4 * n * c * w * m + n * c + n * w * m


def autocorr_forward_flops(n: int, w: int, m: int, c: int) -> int:
    # pair products, A and B contractions, two adds per output
    return n * w * w * m + 2 * n * c * w * m + 2 * n * c * w * w * m + 2 * n * c


def autocorr_backward_flops(n: int, w: int, m: int, c: int) -> int:
    # conv part for A, dB and dpair contractions, dpair folded back onto both
    # window sides, and the two extra window-gradient adds
    return (conv_backward_flops(n, w, m, c) + 4 * n * c * w * w * m
            + 4 * n * w * w * m + 2 * n * w * m)


def autocorr_cache_bytes(n: int, w: int, m: int) -> int:
    """Bytes of the (n, w, m) window and (n, w, w, m) pair arrays of one call."""
    return F64 * (n * w * m + n * w * w * m)


def _conv_fwd_counts(x, spec, A, *_, **__):
    n, m = x.shape
    return conv_forward_flops(n, spec.width, m, A.shape[0]), 0


def _conv_bwd_counts(cache, A, *_, **__):
    return conv_backward_flops(cache.n, cache.spec.width, A.shape[2], A.shape[0]), 0


def _autocorr_fwd_counts(x, spec, A, *_, **__):
    n, m = x.shape
    w = spec.width
    return autocorr_forward_flops(n, w, m, A.shape[0]), autocorr_cache_bytes(n, w, m)


def _autocorr_bwd_counts(cache, A, *_, **__):
    return autocorr_backward_flops(cache.n, cache.spec.width, A.shape[2], A.shape[0]), 0


COUNTERS = {
    "layers.conv1d_forward": _conv_fwd_counts,
    "layers.conv1d_backward": _conv_bwd_counts,
    "layers.autocorr_forward": _autocorr_fwd_counts,
    "layers.autocorr_backward": _autocorr_bwd_counts,
}


class Tracer:
    """Spans of one run, in parallel typed arrays to keep memory small."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.unit = array("q")
        self.flops = array("d")
        self.cache_bytes = array("d")
        self.current_unit = -1  # unit id for new spans; -1 - r in set-up r
        self._stack: list[int] = []
        self._paused = False

    @contextmanager
    def paused(self):
        """Record nothing inside: used around the output checks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.unit.append(self.current_unit)
            flops, nbytes = count(*args, **kwargs) if count else (0, 0)
            self.flops.append(flops)
            self.cache_bytes.append(nbytes)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        return {"name_id": np.asarray(self.name_id), "start": np.asarray(self.start),
                "end": np.asarray(self.end), "parent": np.asarray(self.parent),
                "unit": np.asarray(self.unit), "flops": np.asarray(self.flops),
                "cache_bytes": np.asarray(self.cache_bytes)}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer modules' public functions and Model's public methods
    for the duration of the block, then restore every binding."""
    patches = []  # (owner, attribute, original)
    modules = [importlib.import_module(f"acnn.{short}") for short in LAYER_MODULES]
    loaded = [mod for name, mod in list(sys.modules.items())
              if name == "acnn" or name.startswith("acnn.")]
    try:
        for short, mod in zip(LAYER_MODULES, modules):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = tracer.wrap(f"{short}.{attr}", fn)
                for owner in loaded:
                    for alias, value in list(vars(owner).items()):
                        if value is fn:
                            patches.append((owner, alias, fn))
                            setattr(owner, alias, wrapped)
        model_cls = modules[LAYER_MODULES.index("model")].Model
        for attr, raw in list(vars(model_cls).items()):
            if attr.startswith("_"):
                continue
            name = f"model.Model.{attr}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(tracer.wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = tracer.wrap(name, raw)
            else:
                continue
            patches.append((model_cls, attr, raw))
            setattr(model_cls, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def per_layer_metrics(tracer: Tracer, units: int, setups: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, name -> (value, unit).

    Timed-phase metrics are totals over the run's `units`; set-up metrics are
    the median over its `setups`. A layer that never ran reads 0.
    """
    col = tracer.columns()
    ids = {name: i for i, name in enumerate(tracer.names)}
    dur = col["end"] - col["start"]
    has_parent = col["parent"] >= 0
    child = np.bincount(col["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_time = dur - child
    in_run = col["unit"] >= 0

    def select(name: str) -> np.ndarray:
        return in_run & (col["name_id"] == ids.get(name, -1))

    out: dict[str, tuple[float, str]] = {}
    for op in LAYER_OPS:
        sel = select(f"layers.{op}")
        out[f"layers.{op}.calls"] = (int(sel.sum()), "count")
        out[f"layers.{op}.busy_s"] = (float(dur[sel].sum()), "s")
    for op in ("autocorr_forward", "autocorr_backward", "conv1d_forward", "conv1d_backward"):
        sel = select(f"layers.{op}")
        busy = float(dur[sel].sum())
        out[f"layers.{op}.gflop_s"] = (
            float(col["flops"][sel].sum()) / busy / 1e9 if busy > 0 else 0.0, "GFLOP/s")
    sel = select("layers.autocorr_forward")
    out["layers.autocorr_forward.cache_mb"] = (
        float(col["cache_bytes"][sel].max()) / 1e6 if sel.any() else 0.0, "MB")

    # Calls from the model glue into the operator layer: layer spans whose
    # parent is not itself a layer span.
    layer_ids = np.array([i for i, name in enumerate(tracer.names)
                          if name.startswith("layers.")])
    is_layer = np.isin(col["name_id"], layer_ids)
    parent_is_layer = np.zeros(len(dur), dtype=bool)
    parent_is_layer[has_parent] = is_layer[col["parent"][has_parent]]
    top_calls = int((in_run & is_layer & ~parent_is_layer).sum())
    out["layers.calls_per_unit"] = (top_calls / units if units else 0.0, "count")

    for name in RUN_SELF:
        out[f"{name}.self_s"] = (float(self_time[select(name)].sum()), "s")
    for name in RUN_BUSY:
        out[f"{name}.busy_s"] = (float(dur[select(name)].sum()), "s")
    for name in SETUP_BUSY:
        nid = ids.get(name, -1)
        per_setup = [float(dur[(col["unit"] == -1 - r) & (col["name_id"] == nid)].sum())
                     for r in range(setups)]
        out[f"{name}.busy_s"] = (statistics.median(per_setup) if per_setup else 0.0, "s")
    return out
