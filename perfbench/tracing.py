"""Span tracing from outside the program, and the per-layer metrics built on it.

Tracing rebinds the names a calling module imported (``framepool.cli.gap``,
``framepool.trainer.model_forward``, ``framepool.netmodel.vlad_forward``, ...)
to wrappers that record one span per call.  Nothing under ``src/`` changes;
every binding is restored when the traced block ends.  A call made through a
binding that is not listed here (for example ``rebalance.build_tail_subset``
calling its own ``label_frequency_stats``) is not a span of its own: its time
stays in the caller's self time.

Spans are ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1.  They are kept in memory and written out once, after
the run.  Everything runs in one thread, so spans nest and never overlap, and
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict

# Dominant per-call arithmetic of the pooling kernels as multiples of T*D*K,
# counted from the matmuls and (T, K, D) elementwise passes in pooling.py:
# vlad forward 2 (logits) + 2 (A^T X); vlad backward 4 matmuls of 2 each;
# fv forward 2 (logits) + 7 over the (T, K, D) residual tensor; fv backward
# 4 (einsums) + 10 (elementwise) + 4 (two matmuls).
_FLOP_PER_TDK = {"vlad_forward": 4, "vlad_backward": 8, "fv_forward": 9, "fv_backward": 18}


def _pool_counts(fn_name):
    forward = fn_name.endswith("forward")
    factor = _FLOP_PER_TDK[fn_name]
    per_cluster_tensors = 3 if fn_name.startswith("fv") else 2  # centers, weights (+ spreads)

    def count(args, result):
        if forward:
            frames, params = args[0], args[1]
        else:
            frames, params = args[1].frames, args[1].params
        t, (d, k) = frames.shape[0], params.assign_weights.shape
        # bytes: frames in, parameters in, and the (T, K) assignment, 8 bytes each
        nbytes = 8 * (t * d + per_cluster_tensors * k * d + k + t * k)
        out = {"flop": factor * t * d * k, "bytes": nbytes}
        if forward:
            out["frames"] = t
        return out

    return count


def _file_mb(args, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _videos(args, result):
    return {"videos": len(args[0])}


def _gap_entries(args, result):
    n = args[2].n if len(args) > 2 else 20
    return {"entries": sum(min(n, len(items)) for _, items in args[0])}


def _steps(args, result):
    return {"steps": result.global_step}


# (module, attribute, span name, counter); the module is the *caller's*
# module, whose binding is replaced.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "generate_synthetic", "featureio.generate", None),
    ("cli", "save_dataset", "featureio.write", _file_mb),
    ("cli", "load_dataset", "featureio.read", _file_mb),
    ("cli", "label_frequency_stats", "rebalance.stats", None),
    ("cli", "stats_csv", "rebalance.stats", None),
    ("cli", "build_hard_subset", "rebalance.subset", None),
    ("cli", "build_tail_subset", "rebalance.subset", None),
    ("cli", "train", "trainer.train", _steps),
    ("trainer", "train", "trainer.train", _steps),
    ("trainer", "evaluate", "trainer.evaluate", None),
    ("cli", "make_checkpoint", "trainer.checkpoint_save", None),
    ("cli", "save_checkpoint", "trainer.checkpoint_save", _file_mb),
    ("cli", "load_checkpoint", "trainer.checkpoint_load", _file_mb),
    ("cli", "restore_checkpoint", "trainer.checkpoint_load", None),
    ("cli", "model_forward", "netmodel.forward", _videos),
    ("trainer", "model_forward", "netmodel.forward", _videos),
    ("trainer", "model_backward", "netmodel.backward", None),
    ("netmodel", "vlad_forward", "pooling.forward", _pool_counts("vlad_forward")),
    ("netmodel", "fv_forward", "pooling.forward", _pool_counts("fv_forward")),
    ("netmodel", "vlad_backward", "pooling.backward", _pool_counts("vlad_backward")),
    ("netmodel", "fv_backward", "pooling.backward", _pool_counts("fv_backward")),
    ("trainer", "multilabel_loss", "losses.loss", None),
    ("trainer", "adam_step", "optim.step", None),
    ("trainer", "sgd_step", "optim.step", None),
    ("trainer", "lr_at", "schedule.lr", None),
    ("trainer", "gap", "metrics.gap", _gap_entries),
    ("cli", "gap", "metrics.gap", _gap_entries),
    ("cli", "miss_analysis", "metrics.miss", None),
    ("cli", "write_predictions_csv", "metrics.csv", None),
]


class Tracer:
    """In-memory span recorder plus per-span-name counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []

    def wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[name][key] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name, counter in TARGETS:
                module = importlib.import_module(f"framepool.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, _), children in zip(spans, child_time):
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - children
    return out


# Per-layer metric -> (unit, span name, field).  Fields "calls", "s" and
# "self_s" come from layer_times; any other field is a counter from TARGETS.
PER_LAYER = {
    "featureio.generate_s": ("s", "featureio.generate", "s"),
    "featureio.write_s": ("s", "featureio.write", "s"),
    "featureio.write_mb": ("MB", "featureio.write", "mb"),
    "featureio.read_s": ("s", "featureio.read", "s"),
    "featureio.read_mb": ("MB", "featureio.read", "mb"),
    "pooling.forward_calls": ("count", "pooling.forward", "calls"),
    "pooling.forward_s": ("s", "pooling.forward", "s"),
    "pooling.backward_calls": ("count", "pooling.backward", "calls"),
    "pooling.backward_s": ("s", "pooling.backward", "s"),
    "pooling.frames": ("count", "pooling.forward", "frames"),
    "netmodel.forward_calls": ("count", "netmodel.forward", "calls"),
    "netmodel.videos": ("count", "netmodel.forward", "videos"),
    "netmodel.forward_self_s": ("s", "netmodel.forward", "self_s"),
    "netmodel.backward_self_s": ("s", "netmodel.backward", "self_s"),
    "losses.calls": ("count", "losses.loss", "calls"),
    "losses.s": ("s", "losses.loss", "s"),
    "optim.step_calls": ("count", "optim.step", "calls"),
    "optim.step_s": ("s", "optim.step", "s"),
    "schedule.lr_calls": ("count", "schedule.lr", "calls"),
    "schedule.lr_s": ("s", "schedule.lr", "s"),
    "metrics.gap_calls": ("count", "metrics.gap", "calls"),
    "metrics.gap_s": ("s", "metrics.gap", "s"),
    "metrics.gap_entries": ("count", "metrics.gap", "entries"),
    "metrics.miss_s": ("s", "metrics.miss", "s"),
    "metrics.csv_s": ("s", "metrics.csv", "s"),
    "rebalance.stats_s": ("s", "rebalance.stats", "s"),
    "rebalance.subset_s": ("s", "rebalance.subset", "s"),
    "trainer.steps": ("count", "trainer.train", "steps"),
    "trainer.loop_self_s": ("s", "trainer.train", "self_s"),
    "trainer.evaluate_calls": ("count", "trainer.evaluate", "calls"),
    "trainer.evaluate_s": ("s", "trainer.evaluate", "s"),
    "trainer.evaluate_self_s": ("s", "trainer.evaluate", "self_s"),
    "trainer.checkpoint_save_s": ("s", "trainer.checkpoint_save", "s"),
    "trainer.checkpoint_load_s": ("s", "trainer.checkpoint_load", "s"),
    "trainer.checkpoint_mb": ("MB", None, None),
    "cli.self_s": ("s", "cli.main", "self_s"),
    "pooling.gflop": ("GFLOP", None, None),
    "pooling.flop_per_call": ("flop", None, None),
    "pooling.bytes_per_call": ("B", None, None),
    "trace.spans": ("count", None, None),
    "trace.overhead_ratio": ("ratio", None, None),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_ratio, for one traced block."""
    times = layer_times(tracer.spans)
    counts = tracer.counts
    out = {}
    for metric, (_, span, field) in PER_LAYER.items():
        if span is None:
            continue
        source = times if field in ("calls", "s", "self_s") else counts
        out[metric] = float(source[span][field]) if span in source else 0.0
    pool_calls = out["pooling.forward_calls"] + out["pooling.backward_calls"]
    pool_flop = counts["pooling.forward"]["flop"] + counts["pooling.backward"]["flop"]
    pool_bytes = counts["pooling.forward"]["bytes"] + counts["pooling.backward"]["bytes"]
    out["pooling.gflop"] = pool_flop / 1e9
    out["pooling.flop_per_call"] = pool_flop / pool_calls if pool_calls else 0.0
    out["pooling.bytes_per_call"] = pool_bytes / pool_calls if pool_calls else 0.0
    out["trainer.checkpoint_mb"] = (counts["trainer.checkpoint_save"]["mb"]
                                    + counts["trainer.checkpoint_load"]["mb"])
    out["trace.spans"] = float(len(tracer.spans))
    return out
