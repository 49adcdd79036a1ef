"""E10 — companion sketches (§1.2 / [4]).

Regenerates the companion-feature table (bipartiteness, k-edge-
connectivity, MST weight, cut queries — the primitives this paper
builds on) and times each sketch build, plus the serialisation
round-trip that the distributed deployment (§1.1) ships between sites.
"""

from __future__ import annotations

import numpy as np
from conftest import run_table_once

from repro.core import BipartitenessSketch, CutEdgesSketch, MSTWeightSketch
from repro.hashing import HashSource
from repro.sketch import dump_l0_bank, load_l0_bank
from repro.streams import (
    cycle_graph,
    dumbbell_graph,
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
    """Dump + load an ℓ₀ bank — the §1.1 sketch-shipping cost."""
    from repro.sketch import L0SamplerBank

    bank = L0SamplerBank(
        families=16, samplers=32, domain=50_000, source=HashSource(seed)
    )
    rng = np.random.default_rng(seed)
    bank.update(
        rng.integers(0, 16, size=5000),
        rng.integers(0, 32, size=5000),
        rng.integers(0, 50_000, size=5000),
        rng.choice([-1, 1], size=5000),
    )

    def round_trip():
        return load_l0_bank(dump_l0_bank(bank))

    restored = benchmark(round_trip)
    assert (restored.bank.phi == bank.bank.phi).all()
