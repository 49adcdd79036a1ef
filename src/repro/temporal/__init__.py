"""Temporal sketching — epoch checkpoints and sliding-window queries.

The linear-sketch property that powers the paper's distributed model
(Section 1.1) equally enables *temporal* decomposition: a sketch of
stream prefix ``[0, t2)`` minus a sketch of prefix ``[0, t1)`` is
**exactly** the sketch of the window ``[t1, t2)``.  A long-running
service can therefore seal an immutable checkpoint of its cumulative
sketch at every epoch boundary and later answer historical and
sliding-window queries by *checkpoint subtraction* — no stream replay,
no per-window state.

The package:

* :class:`~repro.temporal.epochs.EpochManager` — consumes a
  :class:`~repro.streams.DynamicGraphStream` through the columnar path
  and seals per-epoch checkpoints (``dump_sketch`` payloads with epoch
  metadata);
* :class:`~repro.temporal.epochs.EpochTimeline` — the immutable
  checkpoint sequence, serialisable to a single manifest blob
  (:func:`repro.sketch.dump_epoch_manifest`);
* :func:`~repro.temporal.query.materialise_window` — materialises any
  epoch-aligned window ``[t1, t2)`` by subtraction (timeline) or span
  merges (store); :class:`~repro.api.GraphSketchEngine` routes every
  windowed ``query()`` through it;
* :class:`~repro.temporal.store.EpochStore` — durable, append-only
  checkpoint storage with dyadic compaction (old windows answered from
  O(log T) span loads), :class:`~repro.temporal.store.RetentionPolicy`
  enforcement, and lazy LRU paging of segment blobs.

Multi-site deployments compose orthogonally: per-site, per-epoch
deltas are merged across sites into cumulative checkpoints, which are
subtracted across time
(:meth:`repro.distributed.ShardedSketchRunner.run_epochs`).  The
equivalence harness (``tests/test_temporal_equivalence.py``) pins all
three routes — direct window stream, checkpoint subtraction, and
sharded-then-subtracted — byte-identical for every sketch class.
"""

from .epochs import (
    EpochCheckpoint,
    EpochManager,
    EpochTimeline,
    epoch_boundaries,
    normalize_boundaries,
)
from .query import (
    materialise_window,
    window_payload_bytes,
    window_tokens,
)
from .store import EpochStore, RetentionPolicy, SpanEntry

__all__ = [
    "EpochCheckpoint",
    "EpochManager",
    "EpochStore",
    "EpochTimeline",
    "RetentionPolicy",
    "SpanEntry",
    "epoch_boundaries",
    "materialise_window",
    "normalize_boundaries",
    "window_payload_bytes",
    "window_tokens",
]
