"""Tests for the incidence encoding and AGM spanning-forest sketch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SpanningForestSketch,
    decode_incidence_sample,
    edge_domain,
    incidence_rows,
)
from repro.graphs import Graph, connected_components
from repro.streams import (
    DynamicGraphStream,
    EdgeUpdate,
    churn_stream,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
    stream_from_edges,
)
from repro.util import pair_rank


class TestIncidence:
    def test_edge_domain(self):
        assert edge_domain(10) == 45

    def test_rows_signs(self):
        nodes, items, deltas = incidence_rows(EdgeUpdate(7, 2, 3), 10)
        assert nodes.tolist() == [2, 7]
        assert items.tolist() == [pair_rank(2, 7, 10)] * 2
        assert deltas.tolist() == [3, -3]

    def test_cut_cancellation_identity(self):
        """support(Σ_{u∈A} x^u) = E(A, V-A) — the Eq. 1 telescoping."""
        n = 8
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (5, 6)]
        vectors = {u: np.zeros(edge_domain(n), dtype=int) for u in range(n)}
        for u, v in edges:
            nodes, items, deltas = incidence_rows(EdgeUpdate(u, v), n)
            for nd, it, dl in zip(nodes, items, deltas):
                vectors[nd][it] += dl
        side = {0, 1, 2, 3}
        summed = sum(vectors[u] for u in side)
        crossing = {pair_rank(3, 4, n)}
        assert set(np.nonzero(summed)[0]) == crossing

    def test_decode_incidence_sample(self):
        n = 10
        item = pair_rank(2, 7, n)
        assert decode_incidence_sample(item, 4, n) == (2, 7, 4)
        assert decode_incidence_sample(item, -4, n) == (7, 2, 4)


class TestSpanningForestSketch:
    @pytest.mark.parametrize(
        "edges,n,comps",
        [
            (path_graph(15), 15, 1),
            (cycle_graph(12), 12, 1),
            (star_graph(10), 10, 1),
            ([(0, 1), (2, 3), (4, 5)], 8, 5),  # 3 pairs + 2 isolated
        ],
    )
    def test_component_count(self, edges, n, comps, source):
        sk = SpanningForestSketch(n, source.derive(1)).consume_batch(
            stream_from_edges(n, edges).as_batch()
        )
        assert len(sk.connected_components()) == comps

    def test_forest_edges_are_real_and_acyclic(self, source):
        n = 24
        edges = erdos_renyi_graph(n, 0.25, seed=3)
        g = Graph.from_edges(n, edges)
        sk = SpanningForestSketch(n, source.derive(2)).consume_batch(
            churn_stream(n, edges, seed=4).as_batch()
        )
        forest = sk.spanning_forest()
        from repro.graphs import UnionFind

        uf = UnionFind(n)
        for u, v, mult in forest:
            assert g.has_edge(u, v), "forest edge must exist in the graph"
            assert mult == 1
            assert uf.union(u, v), "forest must be acyclic"

    def test_forest_spans_connected_graph(self, source):
        n = 20
        edges = erdos_renyi_graph(n, 0.4, seed=5)
        g = Graph.from_edges(n, edges)
        want = len(connected_components(g))
        sk = SpanningForestSketch(n, source.derive(3)).consume_batch(
            churn_stream(n, edges, seed=6).as_batch()
        )
        assert len(sk.connected_components()) == want

    def test_churn_equivalence(self, source):
        """Sketch of churny stream == sketch of clean stream (linearity)."""
        n = 16
        edges = erdos_renyi_graph(n, 0.3, seed=7)
        churny = churn_stream(n, edges, seed=8)
        clean = stream_from_edges(n, edges)
        a = SpanningForestSketch(n, source.derive(4)).consume_batch(churny.as_batch())
        b = SpanningForestSketch(n, source.derive(4)).consume_batch(clean.as_batch())
        assert (a.bank.bank.phi == b.bank.bank.phi).all()
        assert (a.bank.bank.iota == b.bank.bank.iota).all()
        assert (a.bank.bank.fp1 == b.bank.bank.fp1).all()

    def test_distributed_merge(self, source):
        n = 16
        edges = erdos_renyi_graph(n, 0.3, seed=9)
        st = churn_stream(n, edges, seed=10)
        direct = SpanningForestSketch(n, source.derive(5)).consume_batch(st.as_batch())
        merged = SpanningForestSketch(n, source.derive(5))
        for part in st.partition(3, seed=11):
            site = SpanningForestSketch(n, source.derive(5)).consume_batch(part.as_batch())
            merged.merge(site)
        assert (merged.bank.bank.phi == direct.bank.bank.phi).all()
        assert len(merged.connected_components()) == len(
            connected_components(Graph.from_edges(n, edges))
        )

    def test_merge_mismatch_rejected(self, source):
        a = SpanningForestSketch(10, source.derive(6))
        b = SpanningForestSketch(11, source.derive(6))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_stream_universe_mismatch(self, source):
        sk = SpanningForestSketch(10, source.derive(7))
        with pytest.raises(ValueError):
            sk.consume_batch(DynamicGraphStream(11).as_batch())

    def test_empty_graph(self, source):
        sk = SpanningForestSketch(6, source.derive(8))
        assert sk.spanning_forest() == []
        assert len(sk.connected_components()) == 6

    def test_multigraph_multiplicity_recovered(self, source):
        n = 6
        st = DynamicGraphStream(n)
        st.insert(0, 1, copies=5)
        sk = SpanningForestSketch(n, source.derive(9)).consume_batch(st.as_batch())
        forest = sk.spanning_forest()
        assert forest == [(0, 1, 5)]

    def test_is_connected(self, source):
        n = 12
        sk = SpanningForestSketch(n, source.derive(10)).consume_batch(
            stream_from_edges(n, path_graph(n)).as_batch()
        )
        assert sk.is_connected()

    def test_rejects_tiny_universe(self, source):
        with pytest.raises(ValueError):
            SpanningForestSketch(1, source)

    def test_memory_cells_positive(self, source):
        sk = SpanningForestSketch(8, source.derive(11))
        assert sk.memory_cells() > 0
