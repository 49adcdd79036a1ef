"""Multi-site sharded sketching (PAPER.md §1.1, "distributed streams").

The defining property of the paper's sketches is *linearity*:
``sketch(S1 || S2) = sketch(S1) + sketch(S2)``.  Section 1.1 turns this
into a distributed-computation model — the simultaneous-communication
setting: a stream is split across ``K`` sites, each site runs the same
linear sketch over only its local sub-stream, ships the *sketch* (not
the stream) to a coordinator, and the coordinator reconstitutes the
global sketch by addition and answers queries as if it had seen the
whole stream.  The communication per site is the sketch size —
``O(n · polylog n)`` — independent of the stream length, which is the
paper's headline claim for MapReduce / multi-site deployments.

This package is that model made executable:

* :mod:`repro.distributed.partition` — deterministic strategies for
  splitting a :class:`~repro.streams.DynamicGraphStream` (or its
  columnar :class:`~repro.streams.StreamBatch`) into per-site shards;
* :mod:`repro.distributed.coordinator` — the
  :class:`~repro.distributed.coordinator.ShardedSketchRunner`: fan a
  workload out to ``K`` simulated sites (in-process or via a
  ``multiprocessing`` pool, one code path either way), fold each
  site's shard into a result slot, and merge the slots at the
  coordinator after checking each site sketch's kind, parameters and
  seed.

The cross-shard equivalence harness
(``tests/test_distributed_equivalence.py``) pins the model's promise
exactly: for every sketch class and every partition strategy the
coordinator's merged sketch is *byte-identical* to a single-site sketch
of the full stream — deletions crossing shard boundaries included.
"""

from .coordinator import (
    ShardedEpochReport,
    ShardedRunReport,
    ShardedSketchRunner,
    SiteReport,
)
from .factories import forest_sketch, mincut_sketch, sparsifier_sketch
from .partition import (
    PARTITION_STRATEGIES,
    partition_batch,
    partition_stream,
    partition_stream_by,
    shard_assignment,
)

__all__ = [
    "PARTITION_STRATEGIES",
    "ShardedEpochReport",
    "ShardedRunReport",
    "ShardedSketchRunner",
    "SiteReport",
    "forest_sketch",
    "mincut_sketch",
    "partition_batch",
    "partition_stream",
    "partition_stream_by",
    "shard_assignment",
    "sparsifier_sketch",
]
