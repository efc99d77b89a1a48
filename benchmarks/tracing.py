"""Span tracing of the mvkmf layers, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module,
except the helpers in ``HELPERS``, with a wrapper that records a span, in
every ``mvkmf`` module that holds the name.
Callers look names up at call time (``cli`` and ``io`` import names from
``solver``, ``kmeans`` and ``kernels``), so rebinding each name where it is
looked up catches every call without touching the package source. The bench
thread pool that ``cli`` builds is swapped for one that records how long each
cell waits before it starts and parents the cell's spans under the span that
submitted it.

Spans are kept in memory, one list per op, and written out at the end of a
run. A span's self time is its duration minus the part of that interval its
child spans cover; children in pool threads may overlap, so the covered part
is the length of the union of their intervals.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

LAYERS = ("kernels", "io", "solver", "kmeans", "metrics", "stats", "cli")

# Public helpers that only their own layer calls. They get no span, so their
# time stays in the caller's self time: init_state keeps its
# eigendecompositions, build_kernel its sigma, evaluate its four scores.
HELPERS = frozenset({
    "solver.init_g", "solver.global_similarity_matrix", "solver.objective",
    "kernels.median_heuristic_sigma",
    "metrics.accuracy", "metrics.nmi", "metrics.purity", "metrics.ari",
    "metrics.contingency_table",
    "stats.f_survival", "stats.nemenyi_cd",
    "io.read_matrix_shape",
})


@dataclass
class Span:
    name: str
    parent: int | None      # index of the parent span within the same op
    thread: int
    start: float
    end: float = 0.0


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals; empty ones count 0."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = union_length((max(c.start, s.start), min(c.end, s.end))
                               for c in children.get(i, ()))
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class OpTrace:
    """Spans and counters recorded during one op."""

    spans: list[Span]
    counters: Counter

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and summed self time."""
        out: dict[str, dict[str, float]] = {}
        for s, self_s in zip(self.spans, self_times(self.spans)):
            entry = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        return out


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._spans: list[Span] = []
        self._counters: Counter = Counter()
        self._fit_keys: set = set()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "parent", None)

    def _open(self, name: str) -> int:
        parent = self._current()
        with self._lock:
            idx = len(self._spans)
            self._spans.append(Span(name, parent, threading.get_ident(),
                                    time.perf_counter()))
        self._stack().append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._spans[idx].end = time.perf_counter()
        self._stack().pop()

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self._counters[counter] += amount

    def take(self) -> OpTrace:
        """Spans and counters since the last call; resets both."""
        with self._lock:
            trace = OpTrace(self._spans, self._counters)
            trace.counters["solver.fit.distinct"] = len(self._fit_keys)
            self._spans, self._counters, self._fit_keys = [], Counter(), set()
        return trace

    # -- counters measured where the work happens -------------------------

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "io.read_matrix":
            self.add("io.read_matrix.bytes", result.nbytes)
        elif name == "kmeans.kmeans":
            cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
            self.add("kmeans.restarts", cfg.restarts)
        elif name == "solver.fit":
            ks = kwargs.get("ks", args[0] if args else None)
            cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
            # the dataset object and the full config identify the work
            with self._lock:
                self._fit_keys.add((id(ks), cfg))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per resumption, so the consumer's work between
                # items is not charged to the generator
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self._open(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._close(idx)
                        self.add(name + ".iterations", 1)
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._observe(name, args, kwargs, result)
            return result
        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.add("cli.bench.workers", self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._current()
                submitted = time.perf_counter()

                def cell():
                    tracer.add("cli.bench.queue_wait_s",
                               time.perf_counter() - submitted)
                    tracer._local.parent = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.parent = None

                return super().submit(cell)

        return TracedPool

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mvkmf.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (not attr.startswith("_") and name not in HELPERS
                        and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(name, obj))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mvkmf" or n.startswith("mvkmf.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        cli = sys.modules["mvkmf.cli"]
        self._patched.append((cli, "concurrent", cli.concurrent))
        cli.concurrent = SimpleNamespace(futures=SimpleNamespace(
            ThreadPoolExecutor=self._pool_class(),
            as_completed=concurrent.futures.as_completed))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
