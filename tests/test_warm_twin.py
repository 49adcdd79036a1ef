"""Warm twins: windows and store deltas fold into one all-zero sketch.

A temporal engine keeps one all-zero sketch between its window queries,
and an ``EpochStore`` one between its appends and compactions
(:mod:`repro.sketch.twin`).  A release zeroes only the positions the
folded payloads named.  These tests pin what that relies on and what
it buys:

* a query leaves its sketch's cells unchanged, for every registry kind
  and every capability the kind declares;
* interleaved prefix, sliding and historical windows answer as a fresh
  engine does, on timeline, store-backed and restored engines, with
  packed and dense checkpoints;
* a window that fails partway through its fold drops the twin, and the
  next window answers correctly; threads sharing one engine answer as
  one thread does;
* after a warm-up, neither a window query nor a store seal allocates as
  much as one arena.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
import threading
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest
from blob_utils import repack_v2
from test_epoch_store import _rewrite_catalog, _skew_cells
from test_serialize_roundtrip import CASES
from test_serialize_roundtrip import N as CASE_N

from repro.api import (
    ConnectivityQuery,
    CutQuery,
    GraphSketchEngine,
    KEdgeConnectivityQuery,
    MinCutQuery,
    PropertiesQuery,
    SketchSpec,
    SparsifierQuery,
    SubgraphCountQuery,
)
from repro.api.dispatch import _answer_query
from repro.errors import StoreCorruptionError
from repro.sketch import (
    dump_sketch,
    ensure_arena,
    merge_sketch_bytes,
    peek_sketch_meta,
    subtract_sketch_bytes,
)
from repro.sketch.serialize import sketch_codec
from repro.sketch.twin import WarmTwin
from repro.streams import (
    EdgeUpdate,
    StreamBatch,
    churn_stream,
    erdos_renyi_graph,
    random_weighted_edges,
    weighted_churn_stream,
)
from repro.temporal import EpochStore, materialise_window

#: One query per capability, for the cell-invariance check.
QUERIES = {
    "connectivity": ConnectivityQuery(u=0, v=1),
    "k-edge-connectivity": KEdgeConnectivityQuery(),
    "mincut": MinCutQuery(),
    "cut-query": CutQuery(side=frozenset({0, 1, 2, 3})),
    "sparsifier": SparsifierQuery(),
    "subgraph-count": SubgraphCountQuery(pattern="triangle"),
    "properties": PropertiesQuery(),
}

#: Every (kind, capability) pair the registry declares.
PAIRS = [
    (kind, capability)
    for kind in sorted(CASES)
    for capability in sorted(sketch_codec(kind).cls.CAPABILITIES)
]


def _digest(sketch) -> str:
    return hashlib.sha256(ensure_arena(sketch).buffer.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def churned():
    """Each ``test_serialize_roundtrip`` builder after one churn stream."""
    plain = churn_stream(
        CASE_N, erdos_renyi_graph(CASE_N, 0.4, seed=11), seed=12
    )
    weighted = weighted_churn_stream(
        CASE_N, random_weighted_edges(CASE_N, 0.4, 3, seed=13), seed=14
    )
    return {
        kind: build(21).consume_batch(
            (weighted if is_weighted else plain).as_batch()
        )
        for kind, (build, _query, is_weighted) in CASES.items()
    }


@pytest.mark.parametrize(
    "kind,capability", PAIRS, ids=[f"{k}-{c}" for k, c in PAIRS]
)
def test_a_query_leaves_its_sketch_cells_unchanged(churned, kind, capability):
    """The release zeroes only the positions the payloads named, so a
    query that changed any cell would corrupt every later window."""
    sketch = churned[kind]
    before = _digest(sketch)
    _answer_query(capability, sketch, QUERIES[capability])
    assert _digest(sketch) == before


# -- windows on warm twins ------------------------------------------------------

#: name -> (spec, stream, epochs, query).  The n=8 forest and the cut
#: sketch load past one entry in eight after a few epochs, so their
#: later checkpoints and spans are dense ``zlib``; the n=24 forest stays
#: ``packed-zlib``.  A cut query answers with exact multiplicities, so
#: cells left over from an earlier window would show.
SOURCES = {
    "forest-packed": (
        SketchSpec.of("spanning_forest", 24, seed=3),
        churn_stream(24, erdos_renyi_graph(24, 0.15, seed=4), seed=5),
        12,
        ConnectivityQuery(u=0, v=23),
    ),
    "forest-dense": (
        SketchSpec.of("spanning_forest", 8, seed=6),
        churn_stream(8, erdos_renyi_graph(8, 0.6, seed=7), seed=8),
        12,
        ConnectivityQuery(u=0, v=7),
    ),
    "cut-edges": (
        SketchSpec.of("cut_edges", 16, seed=9, k=16),
        churn_stream(16, erdos_renyi_graph(16, 0.3, seed=10), seed=11),
        12,
        CutQuery(side=frozenset({0, 1, 2})),
    ),
}


def _windows(epochs: int, count: int = 50, seed: int = 0) -> list:
    """``count`` prefix, sliding and historical windows, interleaved."""
    rng = random.Random(seed)
    windows = []
    for i in range(count):
        if i % 3 == 0:
            windows.append((0, rng.randint(1, epochs)))
        elif i % 3 == 1:
            width = rng.randint(1, 3)
            end = rng.randint(width, epochs)
            windows.append((end - width, end))
        else:
            start = rng.randint(0, epochs - 1)
            windows.append((start, rng.randint(start + 1, epochs)))
    return windows


def _answer(result) -> dict:
    return {k: v for k, v in result.to_dict().items() if k != "telemetry"}


def _engines(name: str, tmp_path) -> dict:
    spec, stream, epochs, _query = SOURCES[name]
    timeline = GraphSketchEngine.for_spec(spec).epochs(count=epochs)
    timeline.ingest(stream)
    store = GraphSketchEngine.for_spec(spec).epochs(
        count=epochs, store=tmp_path / name, horizon=2
    ).ingest(stream)
    return {
        "timeline": timeline,
        "store": store,
        "restored": GraphSketchEngine.restore(timeline.snapshot()),
    }


def _fresh(kind: str, engine: GraphSketchEngine) -> GraphSketchEngine:
    """A new engine over the same checkpoints: its first query is cold."""
    if kind == "store":
        return GraphSketchEngine.attach_store(engine.store.root)
    return GraphSketchEngine.restore(engine.snapshot())


def test_sources_hold_packed_and_dense_payloads(tmp_path):
    encodings = set()
    for name in SOURCES:
        engines = _engines(name, tmp_path)
        encodings |= {
            peek_sketch_meta(c.payload)["encoding"]
            for c in engines["timeline"].timeline.checkpoints
        }
        encodings |= {
            peek_sketch_meta(
                (engines["store"].store.root / "segments" / e.file).read_bytes()
            )["encoding"]
            for e in engines["store"].store.spans()
        }
    assert encodings == {"packed-zlib", "zlib"}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_interleaved_windows_answer_as_a_fresh_engine(tmp_path, name):
    _spec, _stream, epochs, query = SOURCES[name]
    engines = _engines(name, tmp_path)
    results: list = []
    for i, window in enumerate(_windows(epochs, seed=len(name))):
        for kind, engine in engines.items():
            q = dataclasses.replace(query, window=window)
            result = engine.query(q)
            expected = _answer(_fresh(kind, engine).query(q))
            assert _answer(result) == expected, (kind, i, window)
            results.append((result, expected))
    # No result holds the twin it was read from: later windows left
    # every earlier answer as it was.
    assert all(_answer(result) == expected for result, expected in results)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_warm_windows_are_byte_identical_to_fresh_ones(tmp_path, name):
    _spec, _stream, epochs, _query = SOURCES[name]
    engines = _engines(name, tmp_path)
    for source in (engines["timeline"].timeline, engines["store"].store):
        twin = WarmTwin()
        for window in _windows(epochs, seed=7):
            fresh = dump_sketch(materialise_window(source, *window))
            with twin.lend() as fold:
                warm = dump_sketch(materialise_window(source, *window, fold))
            assert warm == fresh, window
            assert not ensure_arena(twin._idle).buffer.any()


def test_byte_combines_return_the_positions_they_folded():
    spec, stream, epochs, _query = SOURCES["forest-dense"]
    engine = GraphSketchEngine.for_spec(spec).epochs(count=epochs)
    checkpoints = engine.ingest(stream).timeline.checkpoints
    packed = next(
        c.payload for c in checkpoints
        if peek_sketch_meta(c.payload)["encoding"] == "packed-zlib"
    )
    dense = checkpoints[-1].payload
    assert peek_sketch_meta(dense)["encoding"] == "zlib"
    sketch = spec.build()
    positions = merge_sketch_bytes(sketch, packed)
    buffer = ensure_arena(sketch).buffer
    assert (positions[1:] > positions[:-1]).all()
    assert set(positions.tolist()) == set(buffer.nonzero()[0].tolist())
    assert subtract_sketch_bytes(sketch, dense) is None


def test_a_failed_fold_drops_the_twin_and_the_next_window_answers(tmp_path):
    """A compacted span passes its resealed catalog CRC but not the
    codec; the window merging it after a clean span raises, and the
    clean span's cells must not outlive the failure in the twin."""
    spec, stream, epochs, query = SOURCES["cut-edges"]
    reference = GraphSketchEngine.for_spec(spec).epochs(count=epochs)
    reference.ingest(stream)
    root = tmp_path / "store"
    GraphSketchEngine.for_spec(spec).epochs(
        count=epochs, store=root, horizon=0
    ).ingest(stream)
    store = EpochStore.open(root)
    assert [(e.start, e.end) for e in store.plan_window(0, 6)] == [(0, 4), (4, 6)]
    entry = store.plan_window(4, 6)[0]
    path = root / "segments" / entry.file
    data = repack_v2(path.read_bytes(), _skew_cells)
    path.write_bytes(data)

    def reseal(doc):
        for span in doc["spans"]:
            if span["file"] == entry.file:
                span["bytes"] = len(data)
                span["crc32"] = zlib.crc32(data) & 0xFFFFFFFF
    _rewrite_catalog(root, reseal)
    engine = GraphSketchEngine.attach_store(root)

    def answers(window):
        q = dataclasses.replace(query, window=window)
        return _answer(engine.query(q)), _answer(reference.query(q))

    for window in [(0, 4), (6, 12), (0, 4)]:
        got, expected = answers(window)
        assert got == expected, window
    with pytest.raises(StoreCorruptionError, match="cell layout"):
        engine.query(dataclasses.replace(query, window=(0, 6)))
    for window in [(0, 4), (2, 4), (0, 12)]:
        got, expected = answers(window)
        assert got == expected, window


def test_threads_on_one_engine_answer_as_one_thread():
    """More threads than cores share one engine; a query that finds the
    twin lent out folds into a fresh sketch, so every answer is the
    sequential one."""
    spec, stream, epochs, query = SOURCES["cut-edges"]
    engine = GraphSketchEngine.for_spec(spec).epochs(count=epochs)
    engine.ingest(stream)
    queries = [
        dataclasses.replace(query, window=window)
        for window in _windows(epochs, count=40, seed=3)
    ]
    sequential = [_answer(engine.query(q)) for q in queries]
    workers = 4
    barrier = threading.Barrier(workers)

    def run(offset):
        barrier.wait(timeout=60)
        order = queries[offset:] + queries[:offset]
        return offset, [_answer(engine.query(q)) for q in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the folds finely
    try:
        with ThreadPoolExecutor(workers) as pool:
            for _round in range(3):
                futures = [
                    pool.submit(run, offset)
                    for offset in range(0, len(queries), len(queries) // workers)
                ]
                for future in futures:
                    offset, answers = future.result(timeout=120)
                    assert answers == sequential[offset:] + sequential[:offset]
    finally:
        sys.setswitchinterval(interval)


def test_close_releases_the_window_twin():
    spec, stream, epochs, query = SOURCES["forest-packed"]
    engine = GraphSketchEngine.for_spec(spec).epochs(count=epochs)
    before = _answer(engine.ingest(stream).query(query))
    assert engine._twin._idle is not None
    engine.close()
    assert engine._twin._idle is None
    assert _answer(engine.query(query)) == before


# -- memory ---------------------------------------------------------------------

SERVE_N = 128


def _churn_batches(count: int, size: int, seed: int) -> list:
    """Insert-and-delete batches over at most 96 live edges (the
    end-to-end benchmark's steady state)."""
    rng = random.Random(seed)
    live: set = set()
    batches = []
    for _ in range(count):
        updates = []
        for _ in range(size):
            if len(live) >= 96 or (live and rng.random() < 0.33):
                edge = rng.choice(sorted(live))
                live.discard(edge)
                updates.append(EdgeUpdate(edge[0], edge[1], -1))
                continue
            while True:
                u, v = sorted(rng.sample(range(SERVE_N), 2))
                if (u, v) not in live:
                    break
            live.add((u, v))
            updates.append(EdgeUpdate(u, v, 1))
        batches.append(StreamBatch.from_updates(SERVE_N, updates))
    return batches


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_window_query_and_store_seal_allocate_less_than_an_arena(
    tmp_path,
):
    """numpy reports its buffers to tracemalloc.  A fresh window twin
    costs two arenas (the banks' blocks, then the adopted arena), and a
    store seal a twin for its delta and more for each compaction."""
    spec = SketchSpec.of("spanning_forest", SERVE_N, seed=7)
    arena = ensure_arena(spec.build()).nbytes
    engine = GraphSketchEngine.for_spec(spec).epochs()
    for i, batch in enumerate(_churn_batches(128, 64, seed=1)):
        engine.ingest_batch(batch)
        if i % 8 == 7:
            engine.seal_epoch()
    engine.query(ConnectivityQuery(window=(2, 10)))
    peak = _traced_peak(
        lambda: engine.query(ConnectivityQuery(window=(4, 12)))
    )
    assert peak < arena, (peak, arena)

    store = GraphSketchEngine.for_spec(spec).epochs(
        store=tmp_path / "store", horizon=4
    )
    batches = _churn_batches(8, 1024, seed=2)
    for batch in batches[:-1]:
        store.ingest_batch(batch).seal_epoch()
    store.ingest_batch(batches[-1])
    peak = _traced_peak(store.seal_epoch)
    assert peak < arena, (peak, arena)
