"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` wraps the public functions each layer exposes — the
kernels of ``repro.tensor.ops``, the ``BufferPool`` protocol, the
compiler passes as ``compile`` and ``recompile`` look them up, and so on
— before the first compile, so trace compilation binds the wrapped
kernels too.  ``uninstall`` restores every original, so one traced run
can interleave traced and untraced jobs and report the tracing overhead.

A span is ``(name, start, end, id, parent id, thread)``; spans stay in memory
and are written once, at the end, as Chrome trace events.  Self time is
computed by a sweep over all threads' spans: at every instant the
active span that started last owns the time.  Nested spans therefore
subtract from their parents (kernels calling kernels, ``site_call``
containing serde/send/recv, a trace executing kernels), a parfor
worker's kernel owns the time its waiting parent thread would
otherwise claim, and the owned times plus the instants no span covers
(the unattributed remainder) add up to the job's wall time exactly.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Kernel groups of ``repro.tensor.ops`` (every public kernel is in one).
TENSOR_GROUPS = {
    "tensor.matmult": ("matmult", "tsmm", "mapmm_transpose_left"),
    "tensor.index": ("right_index", "left_index", "left_index_scalar",
                     "cbind", "rbind"),
    "tensor.elementwise": ("binary_op", "binary_scalar", "unary_op",
                           "ternary_ifelse", "cumulative_op", "replace",
                           "outer"),
    "tensor.solve": ("solve", "inverse", "cholesky", "eigen", "svd"),
    "tensor.other": ("aggregate", "row_index_extreme", "trace", "transpose",
                     "rev", "diag", "reshape", "table", "order",
                     "remove_empty", "quantile", "seq", "sample"),
}

#: Spans whose self time is a layer's figure, by metric name.
SELF_TIME_METRICS = {
    "io.read_s": ("io.read",),
    "io.write_s": ("io.write",),
    "lineage.probe_s": ("lineage",),
    "lang.parse_s": ("lang.parse",),
    "compiler.compile_s": ("compiler.compile",),
    "compiler.rewrites_s": ("compiler.rewrites",),
    "compiler.sizes_s": ("compiler.sizes",),
    "compiler.instgen_s": ("compiler.instgen",),
    "compiler.recompile_s": ("compiler.recompile",),
    "runtime.dispatch_self_s": ("runtime.dispatch",),
    "api.self_s": ("api.execute",),
    "trace.exec_self_s": ("trace.exec",),
    "tensor.matmult_s": ("tensor.matmult",),
    "tensor.index_s": ("tensor.index",),
    "tensor.elementwise_s": ("tensor.elementwise",),
    "tensor.solve_s": ("tensor.solve",),
    "tensor.other_s": ("tensor.other",),
    "bufferpool.api_s": ("bufferpool.api",),
    "net.site_call_s": ("net.site_call",),
    "net.serde_s": ("net.serde",),
    "net.send_s": ("net.send",),
    "net.recv_wait_s": ("net.recv_wait",),
}

Span = Tuple[str, float, float, int, int, int]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        #: (TraceCache.execute_block / execute) results, for the hit ratio.
        self.trace_offers = 0
        #: Bytes of the files ``read_any`` read.
        self.read_bytes = 0
        #: Instances created while installed, so their stats can be read.
        self.created: Dict[str, list] = defaultdict(list)
        #: Serving batches as (rows, take-to-done seconds).
        self.batches: List[Tuple[int, float]] = []
        #: Seconds each served request waited between ``enqueued`` and take.
        self.queue_waits: List[float] = []

    # --- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable) -> Callable:
        spans = self.spans
        stack_of = self._stack
        ids = self._ids

        def traced(*args, **kwargs):
            stack = stack_of()
            ident = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(ident)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((name, start, end, ident, parent,
                              threading.get_ident()))

        traced.__wrapped__ = func
        return traced

    def clear(self) -> List[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = self.spans[:]
        del self.spans[:]
        return taken

    # --- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_span(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def _patch_counting_init(self, cls, key: str) -> None:
        original = cls.__init__
        created = self.created[key]

        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            created.append(instance)

        self._patch(cls, "__init__", init)

    def install(self) -> "Tracer":
        """Wrap every layer boundary (see module docstring)."""
        from repro.api import mlcontext
        from repro.compiler import compile as compile_mod
        from repro.compiler import recompile as recompile_mod
        from repro.io import readers, writers
        from repro.lineage import cache as lineage_cache
        from repro.net import frames, serde
        from repro.net.proc import ProcTransport
        from repro.runtime import bufferpool
        from repro.serving.batcher import MicroBatcher
        from repro.serving.service import ScoringService
        from repro.tensor import ops
        from repro.trace import cache as trace_cache

        self._patch_span(mlcontext.MLContext, "execute", "api.execute")
        self._patch_span(mlcontext, "compile_script", "compiler.compile")
        self._patch_span(mlcontext, "execute_program", "runtime.dispatch")
        self._patch_span(compile_mod, "parse", "lang.parse")
        for module in (compile_mod, recompile_mod):
            self._patch_span(module, "apply_rewrites", "compiler.rewrites")
            self._patch_span(module, "apply_dynamic_rewrites",
                             "compiler.rewrites")
            self._patch_span(module, "propagate_dag", "compiler.sizes")
            self._patch_span(module, "generate_instructions",
                             "compiler.instgen")
        self._patch_span(recompile_mod, "recompile_basic_block",
                         "compiler.recompile")
        for group, names in TENSOR_GROUPS.items():
            for name in names:
                self._patch_span(ops, name, group)
        for method in ("get", "put", "pin", "unpin", "update", "free"):
            self._patch_span(bufferpool.BufferPool, method, "bufferpool.api")
        for method in ("probe", "put"):
            self._patch_span(lineage_cache.ReuseCache, method, "lineage")
        for method in ("execute", "execute_block"):
            self._patch_counting(trace_cache.TraceCache, method, "trace.exec")
        self._patch_read(readers)
        self._patch_span(writers, "write_matrix", "io.write")
        self._patch_span(ProcTransport, "site_call", "net.site_call")
        self._patch_span(serde, "dumps", "net.serde")
        self._patch_span(serde, "loads", "net.serde")
        self._patch_span(frames, "send_frame", "net.send")
        self._patch_span(frames, "recv_frame", "net.recv_wait")
        self._patch_span(ScoringService, "submit", "serving.submit")
        self._patch_batcher(MicroBatcher)
        self._patch_counting_init(lineage_cache.ReuseCache, "reuse")
        self._patch_counting_init(trace_cache.TraceCache, "traces")
        return self

    def _patch_counting(self, cls, method: str, name: str) -> None:
        wrapped = self.wrap(name, getattr(cls, method))
        tracer = self

        def offer(*args, **kwargs):
            ran = wrapped(*args, **kwargs)
            if method == "execute" or ran:
                tracer.trace_offers += 1
            return ran

        self._patch(cls, method, offer)

    def _patch_read(self, readers) -> None:
        wrapped = self.wrap("io.read", readers.read_any)
        tracer = self

        def read_any(path, *args, **kwargs):
            tracer.read_bytes += os.path.getsize(path)
            return wrapped(path, *args, **kwargs)

        self._patch(readers, "read_any", read_any)

    def _patch_batcher(self, cls) -> None:
        """Queue wait (``enqueued`` to take) and execution (take to done)."""
        take, done = cls.take, cls.done
        taken_at = self._local

        def timed_take(batcher, *args, **kwargs):
            taken = take(batcher, *args, **kwargs)
            if taken is not None:
                now = time.monotonic()
                taken_at.batch = (now, sum(r.rows for r in taken[1]))
                self.queue_waits.extend(now - r.enqueued for r in taken[1])
            return taken

        def timed_done(batcher, model):
            done(batcher, model)
            started = getattr(taken_at, "batch", None)
            if started is not None:
                self.batches.append((started[1], time.monotonic() - started[0]))
                taken_at.batch = None

        self._patch(cls, "take", timed_take)
        self._patch(cls, "done", timed_done)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: List[Span], begin: float,
               end: float) -> Tuple[Dict[str, float], float]:
    """Per-span-name self time over ``[begin, end]`` and the remainder.

    The values sum to ``end - begin``: every instant goes to the active
    span that started last, or to the unattributed remainder.
    """
    events = []
    for index, (_name, start, stop, *_ids) in enumerate(spans):
        start, stop = max(start, begin), min(stop, end)
        if stop > start:
            events.append((start, 1, index))
            events.append((stop, 0, index))
    events.sort()
    owned: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    active: list = []
    ended = set()
    previous = begin
    for instant, starting, index in events:
        while active and active[0][1] in ended:
            heapq.heappop(active)
        if instant > previous:
            if active:
                owned[spans[active[0][1]][0]] += instant - previous
            else:
                unattributed += instant - previous
            previous = instant
        if starting:
            heapq.heappush(active, (-spans[index][1], index))
        else:
            ended.add(index)
    unattributed += max(end - previous, 0.0)
    return dict(owned), unattributed


def write_chrome_trace(path: str, jobs: List[Tuple[float, list]]) -> None:
    """Write spans as Chrome trace-event JSON (``chrome://tracing``)."""
    events = []
    pid = os.getpid()
    for number, (origin, spans) in enumerate(jobs):
        for name, start, stop, ident, parent, tid in spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((stop - start) * 1e6, 3),
                "pid": pid, "tid": tid,
                "args": {"job": number, "span": ident, "parent": parent},
            })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
