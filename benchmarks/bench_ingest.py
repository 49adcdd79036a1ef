"""Ingestion throughput — columnar batched ``consume`` vs per-token ``update``.

The columnar engine (``DynamicGraphStream.as_batch`` + the sketches'
``consume_batch``) exists to make stream ingestion scale with numpy
scatter throughput instead of Python token overhead, and the
``repro.kernels`` backend owns the scatter hot loops.  These benchmarks
measure two things per consumer:

* the batched/token-path **speedup** on the standard (small) workload,
  asserting the columnar path is at least 2× faster than the per-token
  reference implementation;
* the absolute batched **throughput** on a token-floored workload
  (``TOKENS_FLOOR`` concatenated ER streams) — small streams measure
  fixed per-call overhead, not scatter throughput, which is what the
  ``tokens_per_s`` gates pin.

A third row times the **served shape**: the 64-edge batches that the
end-to-end benchmark's ``serve_small_batches`` workload feeds one
``n = 128`` spanning-forest tenant.  There the fixed per-call cost of
the ``forest_scatter`` kernel, not scatter throughput, sets the pace, so
the row reports the median seconds per ``consume_batch`` call and gates
the rate it implies.

Equivalence of the two paths is byte-for-byte (pinned by
``tests/test_batch_equivalence.py``), and every row records the active
kernel backend so regressions can be attributed.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import print_table, write_bench_json

from repro.core import EdgeConnectivitySketch, SimpleSparsification, SpanningForestSketch
from repro.eval import Table, make_workload
from repro.hashing import HashSource
from repro.kernels import backend_name
from repro.streams import StreamBatch, churn_stream

GATE = 2.0
#: Minimum tokens in the throughput-measurement stream.  The quick
#: workload is only 408 tokens — far too small to exercise the batched
#: scatter path — so extra identically-distributed streams are
#: concatenated until the floor is met.
TOKENS_FLOOR = 16384
#: Absolute batched-throughput gates (tokens/second, numpy reference
#: backend, measured at TOKENS_FLOOR scale).  The simple_sparsify
#: threshold is 10x the pre-kernel batched baseline (452.8 tokens/s).
THROUGHPUT_GATES = {
    "edge_connect": 100_000.0,
    "simple_sparsify": 4_528.0,
}
#: Served shape: node count and edges per ``consume_batch`` call.
SERVED_N = 128
SERVED_BATCH = 64
#: Absolute served-shape floor in tokens/s: about half the median of
#: five ``--quick`` runs on a 2-vCPU x86 VM (numpy reference backend),
#: which measured 0.59-0.85 ms per 64-edge call, median 0.74 ms, or
#: 86k tokens/s.
SERVED_TOKENS_FLOOR = 43_000.0
_ROWS: list = []
_SERVED_ROWS: list = []


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _speedup(make_sketch, stream) -> tuple[float, float, float]:
    """(token_seconds, batched_seconds, speedup) for one consume run."""
    reference = make_sketch()

    def tokenwise():
        for upd in stream:
            reference.update(upd)

    token_s = _time_once(tokenwise)
    batch = stream.as_batch()
    batched_sketch = make_sketch()
    batched_s = _time_once(lambda: batched_sketch.consume_batch(batch))
    return token_s, batched_s, token_s / batched_s


def _floored_batch(seed: int) -> StreamBatch:
    """One columnar batch of >= TOKENS_FLOOR tokens of ER workload.

    Distinct seeds per constituent stream keep the edge distribution
    honest (no artificial multiplicity blow-up on one repeated batch).
    """
    lo, hi, delta = [], [], []
    tokens = 0
    i = 0
    n = None
    while tokens < TOKENS_FLOOR:
        wl = make_workload("er-small", seed=seed + 1000 * i)
        b = wl.stream.as_batch()
        n = b.n
        lo.append(b.lo)
        hi.append(b.hi)
        delta.append(b.delta)
        tokens += b.lo.size
        i += 1
    return StreamBatch(
        n=n,
        lo=np.concatenate(lo),
        hi=np.concatenate(hi),
        delta=np.concatenate(delta),
    )


def _throughput(make_sketch, batch: StreamBatch, rounds: int) -> float:
    """Best-of-``rounds`` batched ingest throughput in tokens/second."""
    best = float("inf")
    for _ in range(rounds):
        sketch = make_sketch()
        best = min(best, _time_once(lambda: sketch.consume_batch(batch)))
    return batch.lo.size / best


@pytest.fixture(scope="module")
def ingest_table(quick):
    table = Table(
        "INGEST: columnar batched consume vs per-token update (reference)",
        ["consumer", "tokens", "token-path s", "batched s", "speedup",
         "floored tokens/s"],
    )
    yield table
    print_table(table, name=None if quick else "ingest")
    gates = [{
        "name": f"ingest_speedup_{row['consumer']}",
        "value": round(row["speedup"], 3),
        "threshold": GATE,
        "enforced": True,
        "pass": bool(row["speedup"] >= GATE),
    } for row in _ROWS]
    gates += [{
        "name": f"ingest_tokens_per_s_{row['consumer']}",
        "value": round(row["tokens_per_s"], 1),
        "threshold": THROUGHPUT_GATES[row["consumer"]],
        "enforced": True,
        "pass": bool(row["tokens_per_s"] >= THROUGHPUT_GATES[row["consumer"]]),
    } for row in _ROWS]
    gates += [{
        "name": f"ingest_tokens_floor_{row['consumer']}",
        "value": row["floored_tokens"],
        "threshold": TOKENS_FLOOR,
        "enforced": True,
        "pass": bool(row["floored_tokens"] >= TOKENS_FLOOR),
    } for row in _ROWS]
    gates += [{
        "name": f"ingest_tokens_per_s_{row['consumer']}",
        "value": round(row["tokens_per_s"], 1),
        "threshold": SERVED_TOKENS_FLOOR,
        "enforced": True,
        "pass": bool(row["tokens_per_s"] >= SERVED_TOKENS_FLOOR),
    } for row in _SERVED_ROWS]
    write_bench_json("ingest", rows=_ROWS + _SERVED_ROWS, gates=gates, quick=quick)


def _record(consumer: str, tokens: int, token_s: float, batched_s: float,
            speedup: float, floored_tokens: int, tokens_per_s: float) -> None:
    _ROWS.append({
        "consumer": consumer, "tokens": tokens, "token_s": token_s,
        "batched_s": batched_s, "speedup": speedup,
        "floored_tokens": floored_tokens, "tokens_per_s": tokens_per_s,
        "backend": backend_name(),
    })


def test_bench_ingest_edge_connect(benchmark, seed, quick, ingest_table):
    wl = make_workload("er-small", seed=seed)
    n = wl.graph.n
    make = lambda: EdgeConnectivitySketch(n, 4, HashSource(seed + 1))  # noqa: E731
    token_s, batched_s, speedup = _speedup(make, wl.stream)
    floored = _floored_batch(seed)
    tokens_per_s = _throughput(make, floored, rounds=2 if quick else 3)
    ingest_table.add_row(
        "EdgeConnectivitySketch.consume", len(wl.stream), token_s, batched_s,
        speedup, tokens_per_s,
    )
    _record("edge_connect", len(wl.stream), token_s, batched_s, speedup,
            floored.lo.size, tokens_per_s)
    assert speedup >= GATE, f"batched ingest only {speedup:.1f}x faster"
    assert tokens_per_s >= THROUGHPUT_GATES["edge_connect"], (
        f"edge_connect batched ingest only {tokens_per_s:,.0f} tokens/s"
    )
    benchmark.pedantic(
        lambda: EdgeConnectivitySketch(
            n, 4, HashSource(seed + 1)
        ).consume_batch(floored),
        rounds=1 if quick else 3, iterations=1,
    )


def test_bench_ingest_simple_sparsify(benchmark, seed, quick, ingest_table):
    wl = make_workload("er-small", seed=seed)
    n = wl.graph.n
    make = lambda: SimpleSparsification(  # noqa: E731
        n, epsilon=0.5, source=HashSource(seed + 2), c_k=0.3
    )
    token_s, batched_s, speedup = _speedup(make, wl.stream)
    floored = _floored_batch(seed)
    tokens_per_s = _throughput(make, floored, rounds=2 if quick else 3)
    ingest_table.add_row(
        "SimpleSparsification.consume", len(wl.stream), token_s, batched_s,
        speedup, tokens_per_s,
    )
    _record("simple_sparsify", len(wl.stream), token_s, batched_s, speedup,
            floored.lo.size, tokens_per_s)
    assert speedup >= GATE, f"batched ingest only {speedup:.1f}x faster"
    assert tokens_per_s >= THROUGHPUT_GATES["simple_sparsify"], (
        f"simple_sparsify batched ingest only {tokens_per_s:,.0f} tokens/s"
    )
    benchmark.pedantic(
        lambda: SimpleSparsification(
            n, epsilon=0.5, source=HashSource(seed + 2), c_k=0.3
        ).consume_batch(floored),
        rounds=1 if quick else 3, iterations=1,
    )


def _served_batches(seed: int) -> list[StreamBatch]:
    """``SERVED_BATCH``-token slices of a churn stream over ``SERVED_N`` nodes.

    Inserts, deletions and re-insertions of random pairs, so batches
    carry repeated edges and cancelling updates as served traffic does.
    """
    rng = np.random.default_rng(seed)
    pairs = {
        (int(min(u, v)), int(max(u, v)))
        for u, v in rng.integers(0, SERVED_N, size=(1500, 2))
        if u != v
    }
    batch = churn_stream(SERVED_N, sorted(pairs), seed=seed).as_batch()
    return [
        batch.slice(start, start + SERVED_BATCH)
        for start in range(0, len(batch) - SERVED_BATCH + 1, SERVED_BATCH)
    ]


def test_bench_ingest_forest_served(benchmark, seed, quick, ingest_table):
    batches = _served_batches(seed)
    sketch = SpanningForestSketch(SERVED_N, HashSource(seed + 3))
    # Untimed warm-up calls fill the fingerprint-power memo.
    for batch in batches[:20]:
        sketch.consume_batch(batch)
    calls = 300 if quick else 2000
    seconds = np.empty(calls)
    for i in range(calls):
        batch = batches[i % len(batches)]
        t0 = time.perf_counter()
        sketch.consume_batch(batch)
        seconds[i] = time.perf_counter() - t0
    call_s = float(np.median(seconds))
    tokens_per_s = SERVED_BATCH / call_s
    ingest_table.add_note(
        f"served shape: SpanningForestSketch(n={SERVED_N}), {SERVED_BATCH}-edge "
        f"calls, median {call_s * 1e3:.3f} ms per call over {calls} "
        f"({tokens_per_s:,.0f} tokens/s)"
    )
    _SERVED_ROWS.append({
        "consumer": "forest_served", "n": SERVED_N,
        "batch_tokens": SERVED_BATCH, "calls": calls, "call_s": call_s,
        "call_s_iqr": float(np.subtract(*np.percentile(seconds, [75, 25]))),
        "tokens_per_s": tokens_per_s, "backend": backend_name(),
    })
    assert tokens_per_s >= SERVED_TOKENS_FLOOR, (
        f"served-shape forest ingest only {tokens_per_s:,.0f} tokens/s "
        f"({call_s * 1e3:.2f} ms per {SERVED_BATCH}-edge call)"
    )
    benchmark.pedantic(
        lambda: sketch.consume_batch(batches[0]),
        rounds=1 if quick else 20, iterations=1,
    )
