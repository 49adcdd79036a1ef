"""Batched ingestion equivalence: ``consume`` ≡ token-by-token ``update``.

The columnar ingestion engine routes every sketch's ``consume()``
through a shared :class:`~repro.streams.batch.StreamBatch`.  Because
every sketch is linear and every scatter is an exact integer (or exact
modular) addition, the batched path must leave *byte-identical* sketch
state to feeding the same stream one :meth:`update` at a time — the
per-token path stays the reference implementation.  This suite pins
that identity for every sketch class, and re-checks it after
``merge()`` of sketches fed from a partitioned stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BipartitenessSketch,
    CutEdgesSketch,
    EdgeConnectivitySketch,
    MinCutSketch,
    MSTWeightSketch,
    SimpleSparsification,
    Sparsification,
    SpanningForestSketch,
    SubgraphSketch,
    WeightedSparsification,
)
from repro.sketch.bank import CellBank
from repro.streams import (
    churn_stream,
    erdos_renyi_graph,
    random_weighted_edges,
    weighted_churn_stream,
)

N = 18
MAX_WEIGHT = 4


def _plain_stream():
    edges = erdos_renyi_graph(N, 0.3, seed=7)
    return churn_stream(N, edges, seed=8)


def _weighted_stream():
    weighted = random_weighted_edges(N, 0.3, max_weight=MAX_WEIGHT, seed=9)
    return weighted_churn_stream(N, weighted, seed=10)


SKETCHES = {
    "forest": (
        lambda src: SpanningForestSketch(N, src, rounds=4),
        _plain_stream,
    ),
    "edge-connect": (
        lambda src: EdgeConnectivitySketch(N, 3, src, rounds=3),
        _plain_stream,
    ),
    "mincut": (
        lambda src: MinCutSketch(
            N, epsilon=0.5, source=src, c_k=0.5, levels=4, rounds=3
        ),
        _plain_stream,
    ),
    "simple-sparsify": (
        lambda src: SimpleSparsification(
            N, epsilon=0.5, source=src, c_k=0.05, levels=4, rounds=3
        ),
        _plain_stream,
    ),
    "sparsify": (
        lambda src: Sparsification(
            N, epsilon=0.5, source=src, c_k=0.1, c_rough=0.05, levels=4, rounds=3
        ),
        _plain_stream,
    ),
    "subgraph-k3": (
        lambda src: SubgraphSketch(N, order=3, samplers=8, source=src),
        _plain_stream,
    ),
    "subgraph-k4": (
        lambda src: SubgraphSketch(N, order=4, samplers=4, source=src),
        _plain_stream,
    ),
    "cut-edges": (
        lambda src: CutEdgesSketch(N, k=6, source=src),
        _plain_stream,
    ),
    "bipartiteness": (
        lambda src: BipartitenessSketch(N, src, rounds=3),
        _plain_stream,
    ),
    "mst-weight": (
        lambda src: MSTWeightSketch(N, max_weight=MAX_WEIGHT, source=src, rounds=3),
        _weighted_stream,
    ),
    "weighted-sparsify": (
        lambda src: WeightedSparsification(
            N, max_weight=MAX_WEIGHT, epsilon=0.5, source=src, c_k=0.05, rounds=2
        ),
        _weighted_stream,
    ),
}


def _cell_banks(sketch) -> list[CellBank]:
    """Every CellBank a sketch's state lives in, in a stable order."""
    if isinstance(sketch, SpanningForestSketch):
        return [sketch.bank.bank]
    if isinstance(sketch, EdgeConnectivitySketch):
        return [b for g in sketch.groups for b in _cell_banks(g)]
    if isinstance(sketch, (MinCutSketch, SimpleSparsification)):
        return [b for inst in sketch.instances for b in _cell_banks(inst)]
    if isinstance(sketch, Sparsification):
        return _cell_banks(sketch.rough) + [sketch.recovery.bank]
    if isinstance(sketch, SubgraphSketch):
        return [sketch.bank.bank]
    if isinstance(sketch, CutEdgesSketch):
        return [sketch.bank.bank]
    if isinstance(sketch, BipartitenessSketch):
        return _cell_banks(sketch.base) + _cell_banks(sketch.doubled)
    if isinstance(sketch, MSTWeightSketch):
        return [b for s in sketch.sketches for b in _cell_banks(s)]
    if isinstance(sketch, WeightedSparsification):
        return [b for c in sketch.classes for b in _cell_banks(c)]
    raise TypeError(f"no bank extraction for {type(sketch).__name__}")


def _assert_identical(batched, reference) -> None:
    banks_a = _cell_banks(batched)
    banks_b = _cell_banks(reference)
    assert len(banks_a) == len(banks_b) > 0
    for a, b in zip(banks_a, banks_b):
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.iota, b.iota)
        assert np.array_equal(a.fp1, b.fp1)
        assert np.array_equal(a.fp2, b.fp2)


@pytest.mark.parametrize("name", sorted(SKETCHES))
def test_consume_matches_tokenwise_update(name, source):
    factory, make_stream = SKETCHES[name]
    stream = make_stream()
    batched = factory(source.derive(1)).consume_batch(stream.as_batch())
    reference = factory(source.derive(1))
    for upd in stream:
        reference.update(upd)
    _assert_identical(batched, reference)


@pytest.mark.parametrize("name", sorted(SKETCHES))
def test_merged_partitions_match_whole_stream(name, source):
    factory, make_stream = SKETCHES[name]
    stream = make_stream()
    whole = factory(source.derive(2)).consume_batch(stream.as_batch())
    merged = None
    for part in stream.partition(3, seed=5):
        site = factory(source.derive(2)).consume_batch(part.as_batch())
        if merged is None:
            merged = site
        else:
            merged.merge(site)
    _assert_identical(merged, whole)
