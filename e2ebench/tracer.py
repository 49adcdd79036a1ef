"""Outside-in tracer: spans around calls into each layer's public functions.

Nothing inside the program is changed.  While installed, the tracer
rebinds every traced module-level function in *every* ``repro.*``
module that holds the original object (call sites import by name, so
``load_sketch`` alone is bound in four modules), patches traced methods
on their classes, and restores every binding on exit.

Spans are kept in memory per thread — the serve drainer runs engine
calls through ``asyncio.to_thread`` — and folded into per-label totals
when the report is made.  A span's self time is its duration minus its
same-thread child spans and minus the kernel seconds that
``kernels.kernel_stats()`` recorded inside it (kernel time is reported
per kernel from ``kernel_stats()`` diffs instead).  Only one operation
is in flight, so serve's self time is computed in aggregate across the
event-loop and drainer threads: request wall time minus the tenant's
engine calls and the queue wait.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import os
import sys
import threading
import time

from .metrics import KERNELS, LAYER_GROUPS

#: Spans that run on the event-loop thread.  Kernels never run there, so
#: kernel seconds recorded meanwhile belong to the drainer thread.
_LOOP_LABELS = frozenset({"serve.request", "serve.parse", "serve.encode"})

_clock = time.perf_counter


def _kernel_seconds() -> float:
    from repro import kernels

    return sum(row["seconds"] for row in kernels.kernel_stats())


def _kernel_table() -> dict:
    from repro import kernels

    table: dict = {}
    for row in kernels.kernel_stats():
        calls, seconds = table.get(row["kernel"], (0, 0.0))
        table[row["kernel"]] = (calls + row["calls"], seconds + row["seconds"])
    return table


class Tracer:
    """Install with :meth:`installed`; read totals with :meth:`report`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []
        #: ``(owner, attribute, original)`` of every binding replaced.
        self.patched: list[tuple] = []
        self._admitted: collections.deque = collections.deque()
        self.queue_wait = 0.0
        self.spans_paged = 0
        self.paging_loads = 0
        self.bytes_written = 0
        self._store = None
        self._app = None
        self._start: dict = {}

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.spans = []
            with self._lock:
                self._threads.append(self._local.spans)
        return stack

    def _enter(self, label: str) -> None:
        self._stack().append([label, _clock(), 0.0, _kernel_seconds(), 0.0])

    def _exit(self, nbytes: int) -> None:
        stack = self._local.stack
        label, start, child, kernel0, child_kernel = stack.pop()
        duration = _clock() - start
        kernel = _kernel_seconds() - kernel0
        own_kernel = 0.0 if label in _LOOP_LABELS else kernel - child_kernel
        if stack:
            stack[-1][2] += duration
            stack[-1][4] += kernel
        self._local.spans.append(
            (label, duration, duration - child - own_kernel, nbytes)
        )

    def _wrap(self, label: str, fn, nbytes=None, on_start=None):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                tracer._enter(label)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._exit(0)
        else:
            def wrapper(*args, **kwargs):
                if on_start is not None:
                    on_start()
                tracer._enter(label)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    tracer._exit(nbytes(args, result) if nbytes else 0)
        return functools.update_wrapper(wrapper, fn)

    # -- patching --------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        # A class exported under two names must be wrapped once, not twice.
        if any(o is owner and n == name for o, n, _ in self.patched):
            return
        self.patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _function(self, original, wrapper) -> None:
        """Rebind ``original`` wherever a ``repro`` module holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _method(self, cls, name: str, label: str, **kw) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(self._wrap(label, raw.__func__, **kw)))
        else:
            self._set(cls, name, self._wrap(label, raw, **kw))

    def _methods_named(self, module, name: str, label: str) -> None:
        """Patch ``name`` on every class of ``module`` that defines it."""
        for value in vars(module).values():
            if isinstance(value, type) and name in vars(value):
                self._method(value, name, label)

    def _count_admit(self, fn):
        def admit_nowait(*args, **kwargs):
            seq = fn(*args, **kwargs)
            self._admitted.append(_clock())
            return seq
        return functools.update_wrapper(admit_nowait, fn)

    def _dequeue(self) -> None:
        if self._admitted:
            self.queue_wait += _clock() - self._admitted.popleft()

    def _count_pages(self, fn):
        def window_payloads(store, *args, **kwargs):
            loads = store.disk_loads
            merge, subtract = fn(store, *args, **kwargs)
            self.spans_paged += len(merge) + len(subtract)
            self.paging_loads += store.disk_loads - loads
            return merge, subtract
        return functools.update_wrapper(window_payloads, fn)

    def _count_replace(self, fn):
        def replace(src, dst, *args, **kwargs):
            store = self._store
            if store is not None and os.fspath(dst).startswith(
                os.fspath(store.root)
            ):
                self.bytes_written += os.path.getsize(src)
            return fn(src, dst, *args, **kwargs)
        return functools.update_wrapper(replace, fn)

    def _install(self) -> None:
        import repro.core as core
        from repro.api import GraphSketchEngine, QueryResult, wire
        from repro.serve import queue, tenants
        from repro.serve.app import ServeApp
        from repro.sketch import serialize
        from repro.streams import StreamBatch
        from repro.temporal import epochs, query, store

        self._method(ServeApp, "__call__", "serve.request")
        self._function(tenants.parse_columns,
                       self._wrap("serve.parse", tenants.parse_columns))
        self._method(QueryResult, "to_dict", "serve.encode")
        self._set(queue.IngestQueue, "admit_nowait",
                  self._count_admit(queue.IngestQueue.admit_nowait))
        for name in ("apply_sync", "seal_sync"):
            self._method(tenants.Tenant, name, "serve.tenant",
                         on_start=self._dequeue)
        self._method(tenants.Tenant, "query_sync", "serve.tenant")
        self._method(StreamBatch, "from_updates", "streams.batch")
        for name in ("ingest_batch", "seal_epoch", "query"):
            self._method(GraphSketchEngine, name, "api")
        self._function(wire.query_from_dict,
                       self._wrap("api.wire", wire.query_from_dict))
        self._methods_named(core, "consume_batch", "core.consume")
        self._methods_named(core, "connected_components", "core.answer")
        codec = {
            "dump_sketch": ("sketch.dump", lambda a, r: len(r or b"")),
            "load_sketch": ("sketch.load", lambda a, r: len(a[0])),
            "merge_sketch_bytes": ("sketch.combine", lambda a, r: len(a[1])),
            "subtract_sketch_bytes": ("sketch.combine", lambda a, r: len(a[1])),
        }
        for name, (label, nbytes) in codec.items():
            original = getattr(serialize, name)
            self._function(original, self._wrap(label, original, nbytes=nbytes))
        self._method(epochs.EpochManager, "seal_epoch", "temporal.seal")
        self._function(query.materialise_window,
                       self._wrap("temporal.materialise", query.materialise_window))
        self._method(store.EpochStore, "append_checkpoint", "temporal.store.append")
        self._set(store.EpochStore, "window_payloads",
                  self._count_pages(store.EpochStore.window_payloads))
        self._set(os, "fsync", self._wrap("temporal.store.fsync", os.fsync))
        self._set(os, "replace", self._count_replace(os.replace))

    def restore(self) -> None:
        """Put every original binding back (idempotent)."""
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)

    def restored(self) -> bool:
        """Whether every replaced binding holds its original object again."""
        return all(vars(owner)[name] is original
                   for owner, name, original in self.patched)

    @contextlib.contextmanager
    def installed(self, app=None, store=None):
        """Trace the block; ``app``/``store`` supply serve and store counters."""
        self._app, self._store = app, store
        self._start = {
            "kernels": _kernel_table(),
            "rejected": app.queue.rejected if app is not None else 0,
            "disk_loads": store.disk_loads if store is not None else 0,
        }
        try:
            self._install()
            yield self
        finally:
            self.restore()

    # -- report ----------------------------------------------------------------

    def totals(self) -> dict:
        """Per-label ``[count, duration, self, bytes]`` over every thread."""
        totals: dict = collections.defaultdict(lambda: [0, 0.0, 0.0, 0])
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            for label, duration, own, nbytes in spans:
                row = totals[label]
                row[0] += 1
                row[1] += duration
                row[2] += own
                row[3] += nbytes
        return totals

    def report(self, wall: float) -> dict:
        """Per-layer metric values for a traced phase of ``wall`` seconds."""
        t = self.totals()
        own = {label: row[2] for label, row in t.items()}
        tenant = t["serve.tenant"]
        metrics = {
            "serve.self_s": own.get("serve.request", 0.0) + tenant[2]
            - tenant[1] - self.queue_wait,
            "serve.parse_s": own.get("serve.parse", 0.0),
            "serve.queue_wait_s": self.queue_wait,
            "serve.encode_s": own.get("serve.encode", 0.0),
            "serve.requests": t["serve.request"][0],
            "serve.rejected": (
                self._app.queue.rejected - self._start["rejected"]
                if self._app is not None else 0
            ),
            "streams.batch_s": own.get("streams.batch", 0.0),
            "api.self_s": own.get("api", 0.0),
            "api.wire_s": own.get("api.wire", 0.0),
            "core.consume_s": own.get("core.consume", 0.0),
            "core.answer_s": own.get("core.answer", 0.0),
            "sketch.dump_s": own.get("sketch.dump", 0.0),
            "sketch.dump_bytes": t["sketch.dump"][3],
            "sketch.load_s": own.get("sketch.load", 0.0),
            "sketch.load_bytes": t["sketch.load"][3],
            "sketch.combine_s": own.get("sketch.combine", 0.0),
            "sketch.combine_bytes": t["sketch.combine"][3],
            "temporal.seal_s": own.get("temporal.seal", 0.0),
            "temporal.materialise_s": own.get("temporal.materialise", 0.0),
            "temporal.store.append_s": own.get("temporal.store.append", 0.0),
            "temporal.store.fsyncs": t["temporal.store.fsync"][0],
            "temporal.store.fsync_s": own.get("temporal.store.fsync", 0.0),
            "temporal.store.bytes_written": self.bytes_written,
            "temporal.store.spans_paged": self.spans_paged,
        }
        store = self._store
        loads = store.disk_loads - self._start["disk_loads"] if store else 0
        metrics["temporal.store.disk_loads"] = loads
        # Compaction and the head page segments in too; the hit ratio
        # counts only the loads made while paging query windows.
        metrics["temporal.store.page_hit_ratio"] = (
            1.0 - self.paging_loads / self.spans_paged
            if self.spans_paged else 0.0
        )
        metrics["temporal.store.resident_bytes"] = (
            store.resident_bytes if store else 0
        )
        before, after = self._start["kernels"], _kernel_table()
        kernel_total = 0.0
        for name in KERNELS:
            calls, seconds = after.get(name, (0, 0.0))
            calls0, seconds0 = before.get(name, (0, 0.0))
            metrics[f"kernels.{name}.calls"] = calls - calls0
            metrics[f"kernels.{name}.s"] = seconds - seconds0
            kernel_total += seconds - seconds0
        attributed = kernel_total + sum(
            metrics[name] for group in LAYER_GROUPS.values() for name in group
        )
        metrics["trace.unattributed_s"] = wall - attributed
        metrics["trace.wall_s"] = wall
        metrics["trace.kernels_s"] = kernel_total
        return metrics
