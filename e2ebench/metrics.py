"""Metric tables: what each run reports, and what each layer should move.

``BENCHMARK.json`` lists the same names; ``e2ebench/tests`` keeps the
two in step.
"""

from __future__ import annotations

#: Reported by every untraced run: ``(name, unit, better)``.  Every run
#: must report every one of these, so each is an operation both
#: workloads run at least 100 times a run (a p90 leaves ≥10 samples
#: beyond it).  Printed in the report but not gated:
#:
#: * ``error_ratio`` — ``failed`` ÷ ``attempted`` of the result line; a
#:   gated metric may not be 0.
#: * ``ingest_p50_ms`` — ``store_history`` ingest latency is bimodal with
#:   the host's fast and slow stretches, so its median flips between the
#:   modes from run to run; ingest stays gated by ``updates_per_s`` (a
#:   mean) and ``ingest_p90_ms``.
#: * ``peak_rss_mb`` — on ``serve_small_batches`` the in-memory timeline
#:   grows with every seal, so RSS rises with the steps a run completes.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("updates_per_s", "updates/s", "higher"),
    ("ingest_p90_ms", "ms", "lower"),
    ("seal_p50_ms", "ms", "lower"),
    ("seal_p90_ms", "ms", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p90_ms", "ms", "lower"),
)

KERNELS = (
    "arena_fold", "arena_fold_sparse", "arena_negate", "decode_all",
    "forest_scatter", "level_route", "scatter_multi",
)

_BOTH = "serve_small_batches, store_history"
_OFF_PATH = ("nothing here", "sparsifier and min-cut ingest, not measured")
_KERNEL_MOVES = {
    "forest_scatter": ("updates_per_s, ingest_p90_ms",
                       "serve_small_batches (per-call floor), store_history"),
    "decode_all": ("query_p50_ms", _BOTH),
    "arena_fold": ("query_p50_ms, seal_p90_ms", "store_history"),
    "arena_fold_sparse": ("query_p50_ms, seal_p90_ms", _BOTH),
    "arena_negate": ("query_p50_ms", "store_history"),
    "scatter_multi": _OFF_PATH,
    "level_route": _OFF_PATH,
}

#: Reported by every traced run: ``(name, unit, better, moves, on)`` —
#: the end-to-end metric each layer metric should move, on which workload.
PER_LAYER = (
    ("serve.self_s", "s", "lower", "updates_per_s, ingest_p90_ms",
     "serve_small_batches"),
    ("serve.parse_s", "s", "lower", "updates_per_s", "serve_small_batches"),
    ("serve.queue_wait_s", "s", "lower", "updates_per_s", "serve_small_batches"),
    ("serve.encode_s", "s", "lower", "query_p50_ms", "serve_small_batches"),
    ("serve.requests", "count", "higher", "error_ratio", "serve_small_batches"),
    ("serve.rejected", "count", "lower", "error_ratio", "serve_small_batches"),
    ("streams.batch_s", "s", "lower", "updates_per_s", "serve_small_batches"),
    ("api.self_s", "s", "lower", "all latencies", "all"),
    ("api.wire_s", "s", "lower", "query_p50_ms", "serve_small_batches"),
    ("core.consume_s", "s", "lower", "updates_per_s", _BOTH),
    ("core.answer_s", "s", "lower", "query_p50_ms", _BOTH),
    *(
        row
        for kernel in KERNELS
        for row in (
            (f"kernels.{kernel}.calls", "count", "lower", *_KERNEL_MOVES[kernel]),
            (f"kernels.{kernel}.s", "s", "lower", *_KERNEL_MOVES[kernel]),
        )
    ),
    ("sketch.dump_s", "s", "lower", "seal_p50_ms",
     "store_history, serve_small_batches"),
    ("sketch.dump_bytes", "B", "lower", "seal_p50_ms",
     "store_history, serve_small_batches"),
    ("sketch.load_s", "s", "lower", "query_p50_ms",
     "store_history, serve_small_batches"),
    ("sketch.load_bytes", "B", "lower", "query_p50_ms",
     "store_history, serve_small_batches"),
    ("sketch.combine_s", "s", "lower", "query_p50_ms",
     "store_history (merge), serve_small_batches (subtract)"),
    ("sketch.combine_bytes", "B", "lower", "query_p50_ms",
     "store_history (merge), serve_small_batches (subtract)"),
    ("temporal.seal_s", "s", "lower", "seal_p50_ms", _BOTH),
    ("temporal.materialise_s", "s", "lower", "query_p50_ms",
     "serve_small_batches, store_history"),
    ("temporal.store.append_s", "s", "lower", "seal_p50_ms, seal_p90_ms",
     "store_history"),
    ("temporal.store.fsyncs", "count", "lower", "seal_p50_ms", "store_history"),
    ("temporal.store.fsync_s", "s", "lower", "seal_p50_ms", "store_history"),
    ("temporal.store.bytes_written", "B", "lower", "seal_p50_ms",
     "store_history"),
    ("temporal.store.bytes_per_update", "B/update", "lower",
     "seal_p50_ms (bytes compressed and fsynced per update)", "store_history"),
    ("temporal.store.spans_paged", "count", "lower", "query_p50_ms",
     "store_history"),
    ("temporal.store.disk_loads", "count", "lower", "query_p50_ms",
     "store_history"),
    ("temporal.store.page_hit_ratio", "ratio", "higher", "query_p50_ms",
     "store_history"),
    ("temporal.store.resident_bytes", "B", "lower",
     "peak RSS (reported, not gated)", "store_history"),
    ("trace.unattributed_s", "s", "lower", "(coverage check)", "all"),
    ("trace.wall_s", "s", "lower", "(denominator of the layer shares)", "all"),
    ("trace.overhead_updates_per_s", "ratio", "higher",
     "(traced ÷ untraced updates_per_s)", "all"),
    ("trace.overhead_query_p50", "ratio", "lower",
     "(traced ÷ untraced query_p50_ms)", "all"),
)

#: Self-time metrics per layer; with the kernels' seconds they partition
#: the traced phase, and what they leave over is ``trace.unattributed_s``.
LAYER_GROUPS = {
    "serve": ("serve.self_s", "serve.parse_s", "serve.queue_wait_s",
              "serve.encode_s"),
    "streams": ("streams.batch_s",),
    "api": ("api.self_s", "api.wire_s"),
    "core": ("core.consume_s", "core.answer_s"),
    "sketch": ("sketch.dump_s", "sketch.load_s", "sketch.combine_s"),
    "temporal": ("temporal.seal_s", "temporal.materialise_s",
                 "temporal.store.append_s", "temporal.store.fsync_s"),
}
