"""Temporal window materialisation — checkpoint subtraction vs replay,
and durable-store paging at T=1024.

Two operational claims of the temporal subsystem:

* Once per-epoch cumulative checkpoints exist, materialising any
  epoch-aligned window is two checkpoint loads and one subtraction —
  O(sketch size) — while the no-checkpoint alternative replays every
  stream token in the window.  On a long stream split into 16 epochs
  the subtraction path must beat replay by at least 5× summed over a
  full sweep of suffix windows.
* A dyadically-compacted :class:`~repro.temporal.store.EpochStore`
  answers any window over T=1024 epochs by merging O(log T) delta
  spans paged in lazily: the plan never exceeds ``2·log2(T) + 2``
  segments, the bytes a window touches stay far below the full
  cumulative manifest, and resident memory stays under the paging
  budget however many windows are swept.

Equivalence of all paths is pinned byte-for-byte by
``tests/test_temporal_equivalence.py`` and ``tests/test_epoch_store.py``;
both tests here still spot-check it on the benchmarked workloads.

Both tests contribute rows and gates to one ``BENCH_temporal.json``
(:func:`write_bench_json` overwrites per call, so the module fixture
collects and writes once).
"""

from __future__ import annotations

import functools
import math
import time

import pytest
from conftest import print_table, write_bench_json

from repro.api import SketchSpec, build_sketch
from repro.eval import Table
from repro.sketch import dump_sketch
from repro.streams import erdos_renyi_graph, stream_from_edges
from repro.temporal import (
    EpochManager,
    EpochStore,
    materialise_window,
)

EPOCHS = 16
GATE = 5.0

STORE_EPOCHS = 1024
#: Paging budget for the T=1024 sweep — small enough that the sweep
#: must evict (total store ≈ 6 MB), so the bound is actually exercised.
STORE_CACHE_BYTES = 1 << 18
#: A dyadic cover of any window needs at most ~2 spans per level.
LOAD_GATE = 2 * int(math.log2(STORE_EPOCHS)) + 2
#: Window bytes vs shipping the full cumulative-checkpoint manifest.
SUBLINEAR_GATE = 4.0


@pytest.fixture(scope="module")
def temporal_json(quick):
    """Accumulate rows/gates from every test; persist once at teardown."""
    record: dict = {"rows": [], "gates": []}
    yield record
    write_bench_json(
        "temporal", rows=record["rows"], gates=record["gates"], quick=quick
    )


@pytest.fixture(scope="module")
def temporal_table(quick):
    table = Table(
        "TEMPORAL: window materialisation — checkpoint subtraction vs replay",
        ["windows", "tokens", "epochs", "replay s", "subtract s", "speedup"],
    )
    yield table
    print_table(table, name=None if quick else "temporal")


@pytest.fixture(scope="module")
def store_table(quick):
    table = Table(
        "TEMPORAL-STORE: dyadic paging at T=1024",
        ["epochs", "spans", "store MB", "manifest MB", "max loads",
         "max win KB", "resident KB", "window ms"],
    )
    yield table
    print_table(table, name=None if quick else "temporal_store")


def _long_stream(seed: int):
    """A churn-heavy stream long enough that replay cost dominates.

    "Long enough" moved with the kernel backend: columnar replay now
    ingests ~10× more tokens per second than the pre-kernel loops,
    while the subtraction path stays O(sketch size) per window — so
    the cycle count is sized for the accelerated replay baseline to
    keep the 5× gate meaningfully exercised.
    """
    n = 48
    edges = erdos_renyi_graph(n, 0.35, seed=seed)
    stream = stream_from_edges(n, edges)
    for _cycle in range(120):
        for u, v in edges:
            stream.delete(u, v)
        for u, v in edges:
            stream.insert(u, v)
    return n, stream


def test_bench_window_vs_replay(benchmark, seed, quick, temporal_table,
                                temporal_json):
    n, stream = _long_stream(seed)
    factory = functools.partial(
        build_sketch, SketchSpec.of("spanning_forest", n, seed=seed + 5)
    )
    timeline = EpochManager.consume(factory, stream, epochs=EPOCHS)
    batch = stream.as_batch()
    windows = [(t, EPOCHS) for t in range(EPOCHS)]

    # Replay path: consume the window's tokens into a fresh sketch.
    t0 = time.perf_counter()
    replays = []
    for t1, t2 in windows:
        b1 = timeline.boundaries[t1 - 1] if t1 else 0
        sketch = factory()
        sketch.consume_batch(batch.slice(b1, timeline.boundaries[t2 - 1]))
        replays.append(sketch)
    replay_s = time.perf_counter() - t0

    # Checkpoint path: loads + subtraction, independent of window span.
    t0 = time.perf_counter()
    materialised = [materialise_window(timeline, t1, t2) for t1, t2 in windows]
    subtract_s = time.perf_counter() - t0

    speedup = replay_s / subtract_s
    temporal_table.add_row(
        len(windows), len(stream), EPOCHS, replay_s, subtract_s, speedup,
    )
    # Both paths agree exactly (spot-check the widest and narrowest).
    for idx in (0, len(windows) - 1):
        assert dump_sketch(materialised[idx]) == dump_sketch(replays[idx])
    temporal_json["rows"].append({
        "windows": len(windows), "tokens": len(stream),
        "epochs": EPOCHS, "replay_s": replay_s,
        "subtract_s": subtract_s, "speedup": speedup,
        "manifest_bytes": timeline.total_payload_bytes,
    })
    temporal_json["gates"].append({
        "name": "window_vs_replay_speedup",
        "value": round(speedup, 3),
        "threshold": GATE,
        "enforced": True,
        "pass": bool(speedup >= GATE),
    })
    assert speedup >= GATE, (
        f"window materialisation only {speedup:.1f}x faster than replay "
        f"at {EPOCHS} epochs (gate: {GATE}x)"
    )
    benchmark.pedantic(
        lambda: materialise_window(timeline, EPOCHS // 2, EPOCHS),
        rounds=1 if quick else 5, iterations=1,
    )


def test_bench_store_window_paging(benchmark, seed, quick, store_table,
                                   temporal_json, tmp_path):
    """T=1024 durable store: O(log T) loads, sublinear bytes, bounded RSS."""
    n = 16
    edges = erdos_renyi_graph(n, 0.5, seed=seed)
    stream = stream_from_edges(n, edges)
    while len(stream) < 2 * STORE_EPOCHS:
        for u, v in edges:
            stream.delete(u, v)
        for u, v in edges:
            stream.insert(u, v)
    factory = functools.partial(
        build_sketch, SketchSpec.of("spanning_forest", n, seed=seed + 5)
    )
    timeline = EpochManager.consume(factory, stream, epochs=STORE_EPOCHS)
    manifest_bytes = timeline.total_payload_bytes
    store = EpochStore.from_timeline(tmp_path / "store", timeline, horizon=0)

    # Reopen cold with a small paging budget: every load hits the disk
    # first, and the sweep must evict to stay under the cap.
    paged = EpochStore.open(tmp_path / "store",
                            cache_bytes=STORE_CACHE_BYTES)
    step = STORE_EPOCHS // 64
    windows = [(t, STORE_EPOCHS) for t in range(0, STORE_EPOCHS, step)]
    windows += [(t, t + 130) for t in range(0, STORE_EPOCHS - 130, 97)]

    max_loads = max(len(paged.plan_window(t1, t2)) for t1, t2 in windows)
    max_window_bytes = max(
        paged.window_payload_bytes(t1, t2) for t1, t2 in windows
    )
    t0 = time.perf_counter()
    for t1, t2 in windows:
        materialise_window(paged, t1, t2)
    window_s = time.perf_counter() - t0
    window_ms = window_s * 1000 / len(windows)
    resident = paged.resident_bytes
    sublinear = manifest_bytes / max_window_bytes

    store_table.add_row(
        STORE_EPOCHS, store.span_count, store.total_bytes / 1e6,
        manifest_bytes / 1e6, max_loads, max_window_bytes / 1e3,
        resident / 1e3, window_ms,
    )
    # The paged answers are the exact timeline answers.
    for t1, t2 in (windows[0], windows[-1], (STORE_EPOCHS // 2 - 1,
                                             STORE_EPOCHS // 2 + 1)):
        assert dump_sketch(materialise_window(paged, t1, t2)) == \
            dump_sketch(materialise_window(timeline, t1, t2))

    temporal_json["rows"].append({
        "epochs": STORE_EPOCHS, "tokens": len(stream),
        "spans": store.span_count, "store_bytes": store.total_bytes,
        "manifest_bytes": manifest_bytes, "windows": len(windows),
        "max_window_loads": max_loads,
        "max_window_bytes": max_window_bytes,
        "window_ms": round(window_ms, 3),
        "cache_bytes": STORE_CACHE_BYTES,
        "resident_bytes": resident, "disk_loads": paged.disk_loads,
    })
    temporal_json["gates"] += [
        {
            "name": "window_loads_logT",
            "value": max_loads,
            "threshold": LOAD_GATE,
            "enforced": True,
            "pass": bool(max_loads <= LOAD_GATE),
        },
        {
            "name": "window_sublinear",
            "value": round(sublinear, 2),
            "threshold": SUBLINEAR_GATE,
            "enforced": True,
            "pass": bool(sublinear >= SUBLINEAR_GATE),
        },
        {
            "name": "resident_bytes_bounded",
            "value": resident,
            "threshold": STORE_CACHE_BYTES,
            "enforced": True,
            "pass": bool(resident <= STORE_CACHE_BYTES),
        },
    ]
    assert max_loads <= LOAD_GATE, (
        f"a window needed {max_loads} span loads at T={STORE_EPOCHS} "
        f"(dyadic bound: {LOAD_GATE})"
    )
    assert sublinear >= SUBLINEAR_GATE, (
        f"worst window touched 1/{sublinear:.1f} of the manifest "
        f"(gate: 1/{SUBLINEAR_GATE})"
    )
    assert resident <= STORE_CACHE_BYTES, (
        f"resident {resident} bytes exceeds the {STORE_CACHE_BYTES}-byte "
        "paging budget"
    )
    benchmark.pedantic(
        lambda: materialise_window(paged, STORE_EPOCHS // 2, STORE_EPOCHS),
        rounds=1 if quick else 5, iterations=1,
    )
