"""Seeded input generation, owned by the benchmark.

Every workload draws its whole load from one ``random.Random(seed)``
before anything is timed: the program only ever receives the generated
batches, request bodies and queries.  Updates insert fresh pairs (never
a pair that is already live) and delete only live pairs, so every
sketch sees real cancellation.  Deletions are a third of the updates
while the graph is below its live-edge cap; at the cap every update is
a deletion, which keeps the graph stationary during the timed phase so
that per-operation cost does not drift with how many steps a run gets
through.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

DELETE_SHARE = 1 / 3


@dataclass(repr=False)  # the arrays would make a repr huge
class Step:
    """One closed-loop step: an update batch plus what follows it."""

    lo: np.ndarray
    hi: np.ndarray
    delta: np.ndarray
    #: The prebuilt ingest input: the JSON body of the columnar
    #: ``as_batch`` request, or a ``StreamBatch`` for the engine.
    body: object = b""
    #: Seal an epoch after the batch.
    seal: bool = False
    #: Epoch windows ``(t1, t2)`` to query after the batch (and seal).
    windows: list = field(default_factory=list)
    #: The prebuilt query per window: a request body, or a typed query.
    queries: list = field(default_factory=list)


class ChurnGraph:
    """Live-edge state of the generated stream over ``n`` nodes."""

    def __init__(self, n: int, cap: int, rng: random.Random):
        self.n = n
        self.pairs = n * (n - 1) // 2
        if not 0 < cap < self.pairs:
            raise ValueError(f"cap must be in (0, {self.pairs}), got {cap}")
        self.cap = cap
        self.rng = rng
        lo, hi = np.triu_indices(n, 1)
        # Row-major upper-triangle order is the program's pair rank order.
        self.rank_lo = lo.astype(np.int64)
        self.rank_hi = hi.astype(np.int64)
        self.live: list[int] = []
        self.slot: dict[int, int] = {}
        self.updates = 0
        self.deletions = 0

    def batch(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``size`` updates as ``(lo, hi, delta)`` int64 columns."""
        rng, live, slot = self.rng, self.live, self.slot
        ranks = np.empty(size, dtype=np.int64)
        delta = np.empty(size, dtype=np.int64)
        for i in range(size):
            if live and (len(live) >= self.cap or rng.random() < DELETE_SHARE):
                j = rng.randrange(len(live))
                rank = live[j]
                last = live.pop()
                if j < len(live):
                    live[j] = last
                    slot[last] = j
                del slot[rank]
                delta[i] = -1
                self.deletions += 1
            else:
                rank = rng.randrange(self.pairs)
                while rank in slot:
                    rank = rng.randrange(self.pairs)
                slot[rank] = len(live)
                live.append(rank)
                delta[i] = 1
            ranks[i] = rank
        self.updates += size
        return self.rank_lo[ranks], self.rank_hi[ranks], delta


def as_batch_body(lo: np.ndarray, hi: np.ndarray, delta: np.ndarray) -> bytes:
    """The columnar ``as_batch`` request body for one batch."""
    return json.dumps({
        "lo": lo.tolist(), "hi": hi.tolist(), "delta": delta.tolist(),
    }).encode()


def connectivity_query_body(window: "tuple[int, int]") -> bytes:
    """Wire-schema v1 windowed connectivity query (see ``repro.api.wire``)."""
    return json.dumps({
        "v": 1, "query": "connectivity", "args": {}, "window": list(window),
    }).encode()
