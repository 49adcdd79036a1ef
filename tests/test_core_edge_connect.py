"""Tests for k-EDGECONNECT (Theorem 2.3)."""

from __future__ import annotations

import pytest

from repro.core import EdgeConnectivitySketch
from repro.graphs import Graph, global_min_cut_value
from repro.streams import (
    churn_stream,
    complete_graph,
    dumbbell_graph,
    erdos_renyi_graph,
    path_graph,
    stream_from_edges,
)


class TestEdgeConnectivitySketch:
    def test_witness_contains_all_small_cut_edges(self, source):
        """Theorem 2.3: e ∈ H for every e in a cut of size ≤ k."""
        clique, bridges = 7, 2
        n = 2 * clique
        edges = dumbbell_graph(clique, bridges)
        sk = EdgeConnectivitySketch(n, k=4, source=source.derive(1)).consume_batch(
            churn_stream(n, edges, seed=2).as_batch()
        )
        h = sk.witness()
        for t in range(bridges):
            assert h.has_edge(t, clique + t), "bridge edge missing from witness"

    def test_witness_preserves_min_cut_value(self, source):
        clique, bridges = 6, 3
        n = 2 * clique
        edges = dumbbell_graph(clique, bridges)
        sk = EdgeConnectivitySketch(n, k=5, source=source.derive(2)).consume_batch(
            churn_stream(n, edges, seed=3).as_batch()
        )
        assert global_min_cut_value(sk.witness()) == bridges

    def test_witness_edge_budget(self, source):
        n = 14
        edges = complete_graph(n)
        sk = EdgeConnectivitySketch(n, k=3, source=source.derive(3)).consume_batch(
            stream_from_edges(n, edges).as_batch()
        )
        h = sk.witness()
        assert h.num_edges() <= 3 * (n - 1)

    def test_witness_edges_are_subgraph(self, source):
        n = 18
        edges = erdos_renyi_graph(n, 0.3, seed=5)
        g = Graph.from_edges(n, edges)
        sk = EdgeConnectivitySketch(n, k=3, source=source.derive(4)).consume_batch(
            churn_stream(n, edges, seed=6).as_batch()
        )
        for u, v, _w in sk.witness().weighted_edges():
            assert g.has_edge(u, v)

    def test_sparse_graph_fully_captured(self, source):
        """For graphs with < k-connectivity everywhere, H == G."""
        n = 12
        edges = path_graph(n)
        sk = EdgeConnectivitySketch(n, k=3, source=source.derive(5)).consume_batch(
            stream_from_edges(n, edges).as_batch()
        )
        h = sk.witness()
        assert sorted(h.edges()) == sorted(edges)

    def test_witness_repeatable(self, source):
        """witness() must restore sketch state (subtract-then-restore)."""
        n = 12
        edges = erdos_renyi_graph(n, 0.4, seed=7)
        sk = EdgeConnectivitySketch(n, k=3, source=source.derive(6)).consume_batch(
            stream_from_edges(n, edges).as_batch()
        )
        first = sorted(sk.witness().edges())
        second = sorted(sk.witness().edges())
        assert first == second

    def test_merge_matches_direct(self, source):
        n = 14
        edges = erdos_renyi_graph(n, 0.35, seed=8)
        st = churn_stream(n, edges, seed=9)
        direct = EdgeConnectivitySketch(n, k=3, source=source.derive(7)).consume_batch(
            st.as_batch()
        )
        merged = EdgeConnectivitySketch(n, k=3, source=source.derive(7))
        for part in st.partition(2, seed=10):
            site = EdgeConnectivitySketch(n, k=3, source=source.derive(7))
            merged.merge(site.consume_batch(part.as_batch()))
        assert sorted(direct.witness().edges()) == sorted(merged.witness().edges())

    def test_merge_mismatch(self, source):
        a = EdgeConnectivitySketch(10, k=2, source=source.derive(8))
        b = EdgeConnectivitySketch(10, k=3, source=source.derive(8))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_rejects_bad_k(self, source):
        with pytest.raises(ValueError):
            EdgeConnectivitySketch(10, k=0, source=source)

    def test_empty_graph_witness_empty(self, source):
        sk = EdgeConnectivitySketch(8, k=2, source=source.derive(9))
        assert sk.witness().num_edges() == 0

    def test_disconnected_components_both_covered(self, source):
        n = 12
        edges = [(0, 1), (1, 2), (2, 0)] + [(6 + u, 6 + v) for u, v in path_graph(5)]
        sk = EdgeConnectivitySketch(n, k=2, source=source.derive(10)).consume_batch(
            stream_from_edges(n, edges).as_batch()
        )
        h = sk.witness()
        assert h.num_edges() >= len(edges) - 1  # triangle may drop 1 at k=2... not below
