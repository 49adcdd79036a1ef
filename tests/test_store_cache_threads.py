"""The store's page cache under concurrent window queries.

Window queries on one engine may run on several threads, and each pages
span segments through the store's LRU.  Its byte count must stay the
sum of the blobs it holds: a segment two threads page in at once is
counted once, and an eviction cannot interleave with a lookup.
"""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api import ConnectivityQuery, GraphSketchEngine, SketchSpec
from repro.streams import churn_stream, erdos_renyi_graph
from repro.temporal import EpochStore

N = 40
EPOCHS = 32
THREADS = 4
WINDOWS = 400


def _windows(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    windows = []
    for _ in range(WINDOWS):
        t1 = rng.randrange(EPOCHS)
        windows.append((t1, rng.randint(t1 + 1, EPOCHS)))
    return windows


def test_resident_bytes_match_the_cache_after_threaded_windows(tmp_path):
    store = EpochStore(tmp_path / "store", cache_bytes=20_000)
    stream = churn_stream(N, erdos_renyi_graph(N, 0.3, seed=1), seed=2)
    engine = GraphSketchEngine.for_spec(
        SketchSpec.of("spanning_forest", N, seed=3)
    ).epochs(count=EPOCHS, store=store)
    engine.ingest(stream)
    barrier = threading.Barrier(THREADS)

    def run(seed: int) -> None:
        barrier.wait(timeout=60)
        for window in _windows(seed):
            engine.query(ConnectivityQuery(window=window))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave page-ins finely
    try:
        with ThreadPoolExecutor(THREADS) as pool:
            for future in [pool.submit(run, seed) for seed in range(THREADS)]:
                future.result(timeout=300)
    finally:
        sys.setswitchinterval(interval)
        engine.close()
    assert store.resident_bytes == sum(len(b) for b in store._cache.values())
    assert store.resident_bytes <= store.cache_bytes or len(store._cache) == 1
