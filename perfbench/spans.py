"""Spans around the calls into each fvlrp layer, recorded from outside.

The program is not instrumented. Instead, `Tracer.install` replaces each
traced function, under every name any loaded `fvlrp` module holds for it,
with a wrapper that records a span (name, start, end, parent). Modules
use `from .x import y`, so a function is looked up in its caller's
namespace, not only in the module that defines it; replacing every
binding of the same object covers both. A function that no longer exists
is reported as absent, so a refactor that deletes or renames one does
not break the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time

# (layer name, stats reported for it). A layer name is `<module>.<qualname>`
# inside the `fvlrp` package. Stats: `calls` (exact count), `s` / `ms`
# (self time per round), `iterations` (EM iterations, from the result).
LAYERS = (
    ("synth.generate_corpus", ("s",)),
    ("descriptors.extract_dense", ("calls", "ms")),
    ("descriptors.pca_fit", ("s",)),
    ("descriptors.pca_apply", ("calls", "s")),
    ("gmm.em_fit", ("s", "iterations")),
    ("gmm.responsibilities", ("calls", "s")),
    ("gmm.sample", ("calls", "s")),
    ("fisher.embed_descriptor", ("calls", "s")),
    ("fisher.embed_batch", ("calls", "s")),
    ("fisher.aggregate", ("calls", "s")),
    ("fisher.improve", ("calls",)),
    ("svm.train", ("s",)),
    ("svm.score", ("calls", "s")),
    ("lrp_fv.explain", ("calls", "ms")),
    ("lrp_fv.relevance_r3", ("s",)),
    ("lrp_fv.relevance_r2", ("calls", "ms")),
    ("lrp_fv.FvMappingView.column", ("calls",)),
    ("lrp_fv.relevance_r1", ("ms",)),
    ("lrp_nn.nn_train", ("s",)),
    ("lrp_nn.lrp_alphabeta", ("calls", "ms")),
    ("evaluation.compare_orderings", ("calls", "s")),
    ("evaluation.morf_replace", ("calls", "ms")),
    ("evaluation.context_report", ("s",)),
    ("pipeline.train_all", ("s",)),
    ("pipeline.extract_corpus", ("s",)),
    ("pipeline.fit_pca", ("s",)),
    ("pipeline.project_all", ("s",)),
    ("pipeline.fit_gmm", ("s",)),
    ("pipeline.embed_all", ("s",)),
    ("pipeline.train_svm", ("s",)),
    ("pipeline.train_net", ("s",)),
    ("pipeline.embed_image", ("calls", "s")),
    ("util.parallel_map", ("calls", "s")),
    ("serialization.save_model", ("s",)),
    ("serialization.load_model", ("s",)),
    ("imaging.save_image", ("calls", "s")),
    ("imaging.load_image", ("calls", "s")),
)

UNITS = {"calls": "count", "iterations": "count", "s": "s", "ms": "ms"}

# Counters read off a traced call's return value: stat -> function of it.
RESULT_COUNTS = {
    "gmm.em_fit": {"iterations": lambda model: len(model.ll_trace)},
}


class Tracer:
    """In-memory span recorder; spans are lists [id, parent, name, start, end].

    Each thread keeps its own stack of open spans. A span opened on a
    worker thread with nothing open on that thread takes as parent the
    innermost span open on the main thread, which is the call that
    handed the work to the pool (`parallel_map` blocks until its
    workers finish).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = [next(self._ids), parent, name, time.perf_counter(), None]
        stack.append(span[0])
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def add_count(self, name: str, stat: str, value: int) -> None:
        key = (name, stat)
        self.counts[key] = self.counts.get(key, 0) + value

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    def wrap(self, name: str, fn):
        counters = RESULT_COUNTS.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            for stat, count in counters.items():
                self.add_count(name, stat, count(result))
            return result

        return traced

    def install(self, package: str = "fvlrp") -> list[str]:
        """Wrap every layer in LAYERS; return the names found absent."""
        absent = []
        for name, _ in LAYERS:
            module_name, _, qualname = name.partition(".")
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                absent.append(name)
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            if path:
                # A method: the class object is shared by every caller.
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != package and not mod_name.startswith(package + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return absent

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def summarize(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self seconds)."""
    selfs = self_times(spans)
    out: dict[str, tuple[int, float]] = {}
    for sid, _, name, _, _ in spans:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + selfs[sid])
    return out
