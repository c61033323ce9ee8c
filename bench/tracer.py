"""Span tracing around the public functions of each diffcomm layer.

The tracer records one span per call of a wrapped function: its name,
start, end, parent span and thread.  Spans are kept in per-thread
integer columns while the traced call runs and reduced to per-layer
counts and self times afterwards.  Nothing under ``src/`` is edited:
each function is replaced, for the duration of a ``patched`` block, in
every ``diffcomm`` module namespace that holds it, so calls made from
inside the package (``diffcomm.diffusion.reverse_step`` from
``denoise_from_step``, ``diffcomm.loss.params_to_vector`` from
``train_codec``) are recorded as well as the benchmark's own calls.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (layer, label, owner class or None, attribute).  Layers are the package
# modules; ``Latent`` counts constructions through ``Latent.__post_init__``.
TARGETS = (
    ("schedule", "build_linear_schedule", None, "build_linear_schedule"),
    ("schedule", "sigma2_to_step", None, "sigma2_to_step"),
    ("channels", "awgn_transmit", None, "awgn_transmit"),
    ("channels", "mimo_transmit", None, "mimo_transmit"),
    ("channels", "mimo_svd_decompose", None, "mimo_svd_decompose"),
    ("diffusion", "denoise_from_step", None, "denoise_from_step"),
    ("diffusion", "reverse_step", None, "reverse_step"),
    ("diffusion", "predict_noise", "AnalyticGaussianDenoiser", "predict_noise"),
    ("diffusion", "Latent", "Latent", "__post_init__"),
    ("codec", "init_codec", None, "init_codec"),
    ("codec", "params_to_vector", None, "params_to_vector"),
    ("codec", "vector_to_params", None, "vector_to_params"),
    ("loss", "train_codec", None, "train_codec"),
    ("loss", "hybrid_loss_batch", None, "hybrid_loss_batch"),
    ("loss", "reconstruction_psnr", None, "reconstruction_psnr"),
    ("metrics", "ssim", None, "ssim"),
    ("cli", "parse_config", None, "parse_config"),
    ("cli", "run_simulate", None, "run_simulate"),
    ("cli", "run_train", None, "run_train"),
    ("cli", "emit_csv", None, "emit_csv"),
)

SPAN_NAMES = tuple(f"{layer}.{label}" for layer, label, _, _ in TARGETS)


class _ThreadSpans:
    """Open-span stack and finished-span columns of one thread."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.cols = {k: array("q") for k in ("id", "parent", "name", "start", "end", "error")}


class Tracer:
    """Collects spans from wrapped functions, on any number of threads.

    A span opened on a thread with no open span of its own (a pool
    worker) takes as parent the innermost open span of the thread that
    created the tracer, which is the one waiting for the workers.
    """

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._main = self._spans()

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            with self._lock:
                spans = _ThreadSpans(len(self._threads))
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def wrap(self, name_index: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer._spans()
            span = next(tracer._ids)
            if spans.stack:
                parent = spans.stack[-1]
            else:
                parent = tracer._main.stack[-1] if tracer._main.stack else -1
            spans.stack.append(span)
            error = 0
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                end = time.perf_counter_ns()
                spans.stack.pop()
                cols = spans.cols
                cols["id"].append(span)
                cols["parent"].append(parent)
                cols["name"].append(name_index)
                cols["start"].append(start)
                cols["end"].append(end)
                cols["error"].append(error)

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        """All finished spans as columns ordered by span id, plus ``thread``."""
        cols = {k: [] for k in ("id", "parent", "name", "start", "end", "error", "thread")}
        for spans in self._threads:
            for key, col in spans.cols.items():
                cols[key].append(np.frombuffer(col, dtype=np.int64))
            cols["thread"].append(np.full(len(spans.cols["id"]), spans.thread, dtype=np.int64))
        out = {k: np.concatenate(v) if v else np.zeros(0, np.int64) for k, v in cols.items()}
        order = np.argsort(out["id"], kind="stable")
        return {k: v[order] for k, v in out.items()}


def self_times_ns(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children on one thread never overlap; children on pool threads can,
    so the covered part is the union of the children's intervals.
    """
    ids, parent, start, end = spans["id"], spans["parent"], spans["start"], spans["end"]
    duration = end - start
    covered = np.zeros(ids.size, dtype=np.int64)
    child = parent >= 0
    if not child.any():
        return duration
    p, s, e = parent[child], start[child], end[child]
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    # Shift each parent's children into a window of their own, so one
    # running maximum of end times serves every parent at once.
    group = np.cumsum(np.r_[True, p[1:] != p[:-1]]) - 1
    width = int(end.max() - start.min()) + 1
    base = start.min()
    s = s - base + group * width
    e = e - base + group * width
    reach = np.maximum.accumulate(e)
    prev = np.r_[s[0], reach[:-1]]
    gain = np.maximum(0, e - np.maximum(s, prev))
    # span ids are 0..n-1 in order, so an id is its own row index
    covered += np.bincount(p, weights=gain, minlength=ids.size).astype(np.int64)
    return duration - covered


def _resolve(layer: str, owner: str | None, attr: str):
    module = importlib.import_module(f"diffcomm.{layer}")
    if owner is not None:
        cls = getattr(module, owner, None)
        if cls is None or attr not in vars(cls):
            return None, None
        return cls, vars(cls)[attr]
    return None, getattr(module, attr, None)


@contextmanager
def patched(tracer: Tracer):
    """Replace every target in every loaded diffcomm namespace; restore on exit.

    A target the package no longer has is skipped with a note on stderr,
    and its metrics read zero.
    """
    restore = []
    try:
        for index, (layer, label, owner, attr) in enumerate(TARGETS):
            cls, original = _resolve(layer, owner, attr)
            if original is None:
                print(f"trace: diffcomm.{layer} has no {owner or ''}{'.' if owner else ''}{attr}; "
                      f"{layer}.{label} reads zero", file=sys.stderr)
                continue
            wrapper = tracer.wrap(index, original)
            if cls is not None:
                restore.append((cls, attr, original))
                setattr(cls, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "diffcomm" or name.startswith("diffcomm.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for holder, key, original in reversed(restore):
            setattr(holder, key, original)


def layer_metrics(spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per wrapped function: calls, summed self time, calls that raised,
    and inclusive busy time (summed over threads)."""
    n = len(SPAN_NAMES)
    name = spans["name"]
    self_ns = self_times_ns(spans)
    calls = np.bincount(name, minlength=n)
    self_s = np.bincount(name, weights=self_ns, minlength=n) / 1e9
    busy_s = np.bincount(name, weights=spans["end"] - spans["start"], minlength=n) / 1e9
    errors = np.bincount(name, weights=spans["error"], minlength=n)
    return {
        span_name: {
            "calls": int(calls[i]),
            "self_s": float(self_s[i]),
            "errors": int(errors[i]),
            "busy_s": float(busy_s[i]),
        }
        for i, span_name in enumerate(SPAN_NAMES)
    }
