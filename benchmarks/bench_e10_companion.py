"""E10 — companion sketches (§1.2 / [4]).

Regenerates the companion-feature table (bipartiteness, k-edge-
connectivity, MST weight, cut queries — the primitives this paper
builds on) and times each sketch build, plus the serialisation
round-trip that the distributed deployment (§1.1) ships between sites.
"""

from __future__ import annotations

from conftest import run_table_once

from repro.core import BipartitenessSketch, CutEdgesSketch, MSTWeightSketch
from repro.hashing import HashSource
from repro.sketch import dump_sketch, load_sketch
from repro.streams import (
    churn_stream,
    cycle_graph,
    dumbbell_graph,
    erdos_renyi_graph,
    random_weighted_edges,
    stream_from_edges,
    weighted_churn_stream,
)


def test_e10_table(benchmark, seed):
    """Regenerate and print the E10 table; every answer must match exact."""
    table = run_table_once(benchmark, "e10", seed)
    for row in table.rows:
        assert row[3] == row[4], f"sketch answer differs from exact: {row}"


def test_bench_bipartiteness(benchmark, seed):
    n = 25
    stream = stream_from_edges(n, cycle_graph(n))

    def run():
        return BipartitenessSketch(n, HashSource(seed)).consume_batch(stream.as_batch())

    sk = benchmark(run)
    assert not sk.is_bipartite()  # odd cycle


def test_bench_mst_weight(benchmark, seed):
    n = 20
    wedges = random_weighted_edges(n, 0.4, 8, seed=seed)
    stream = weighted_churn_stream(n, wedges, seed=seed + 1)

    def run():
        sk = MSTWeightSketch(n, max_weight=8, source=HashSource(seed))
        sk.consume_batch(stream.as_batch())
        return sk.estimate()

    benchmark(run)


def test_bench_cut_queries(benchmark, seed):
    clique, bridges = 8, 3
    n = 2 * clique
    stream = stream_from_edges(n, dumbbell_graph(clique, bridges))
    sk = CutEdgesSketch(n, k=8, source=HashSource(seed)).consume_batch(stream.as_batch())
    side = set(range(clique))
    crossing = benchmark(sk.crossing_edges, side)
    assert len(crossing) == bridges


def test_bench_serialise_round_trip(benchmark, seed):
    """Dump + load a registry sketch — the §1.1 sketch-shipping cost."""
    n = 32
    edges = erdos_renyi_graph(n, 0.3, seed=seed)
    stream = churn_stream(n, edges, seed=seed + 1)
    sketch = CutEdgesSketch(n, k=8, source=HashSource(seed))
    sketch.consume_batch(stream.as_batch())

    def round_trip():
        return load_sketch(dump_sketch(sketch), like=sketch)

    restored = benchmark(round_trip)
    assert dump_sketch(restored) == dump_sketch(sketch)
