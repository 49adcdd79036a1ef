"""Tests for MINCUT (Fig. 1, Theorems 3.2/3.6)."""

from __future__ import annotations

import pytest

from repro.core import MinCutSketch, default_k
from repro.graphs import Graph, global_min_cut_value
from repro.streams import (
    churn_stream,
    dumbbell_graph,
    erdos_renyi_graph,
    path_graph,
    stream_from_edges,
)


class TestDefaultK:
    def test_grows_with_accuracy(self):
        assert default_k(64, 0.1, 1.0) > default_k(64, 0.5, 1.0)

    def test_minimum_two(self):
        assert default_k(4, 1.0, 0.01) == 2

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            default_k(10, 0.0, 1.0)
        with pytest.raises(ValueError):
            default_k(10, 1.5, 1.0)


class TestMinCutSketch:
    @pytest.mark.parametrize("bridges", [1, 2, 4])
    def test_exact_on_small_cuts(self, bridges, source):
        """Cuts below k are recovered exactly at level 0."""
        clique = 7
        n = 2 * clique
        edges = dumbbell_graph(clique, bridges)
        sk = MinCutSketch(
            n, epsilon=0.5, source=source.derive(1, bridges), c_k=1.0
        ).consume_batch(churn_stream(n, edges, seed=bridges).as_batch())
        res = sk.estimate()
        assert res.value == bridges
        assert res.stop_level == 0

    def test_path_graph_min_cut_one(self, source):
        n = 16
        sk = MinCutSketch(n, epsilon=0.5, source=source.derive(2)).consume_batch(
            stream_from_edges(n, path_graph(n)).as_batch()
        )
        assert sk.estimate().value == 1

    def test_disconnected_graph_zero(self, source):
        n = 10
        sk = MinCutSketch(n, epsilon=0.5, source=source.derive(3)).consume_batch(
            stream_from_edges(n, [(0, 1), (2, 3)]).as_batch()
        )
        assert sk.estimate().value == 0

    def test_large_cut_approximated(self, source):
        """λ ≥ k exercises the subsampling recursion (stop level > 0)."""
        n = 18
        edges = erdos_renyi_graph(n, 0.9, seed=4)
        g = Graph.from_edges(n, edges)
        truth = global_min_cut_value(g)
        sk = MinCutSketch(
            n, epsilon=0.5, source=source.derive(4), c_k=0.35
        ).consume_batch(churn_stream(n, edges, seed=5).as_batch())
        res = sk.estimate()
        assert truth >= res.k, "workload should force recursion"
        assert res.stop_level >= 1
        assert 0.3 * truth <= res.value <= 2.5 * truth

    def test_update_token_path_matches_consume(self, source):
        n = 12
        edges = erdos_renyi_graph(n, 0.4, seed=6)
        st = churn_stream(n, edges, seed=7)
        a = MinCutSketch(n, source=source.derive(5)).consume_batch(st.as_batch())
        b = MinCutSketch(n, source=source.derive(5))
        for upd in st:
            b.update(upd)
        assert a.estimate().value == b.estimate().value

    def test_merge_matches_direct(self, source):
        n = 12
        edges = erdos_renyi_graph(n, 0.4, seed=8)
        st = churn_stream(n, edges, seed=9)
        direct = MinCutSketch(n, source=source.derive(6)).consume_batch(st.as_batch())
        merged = MinCutSketch(n, source=source.derive(6))
        for part in st.partition(2, seed=10):
            merged.merge(MinCutSketch(n, source=source.derive(6)).consume_batch(part.as_batch()))
        assert merged.estimate().value == direct.estimate().value

    def test_merge_mismatch(self, source):
        a = MinCutSketch(10, source=source.derive(7), c_k=1.0)
        b = MinCutSketch(10, source=source.derive(7), c_k=3.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_result_diagnostics(self, source):
        n = 12
        sk = MinCutSketch(n, source=source.derive(8)).consume_batch(
            stream_from_edges(n, path_graph(n)).as_batch()
        )
        res = sk.estimate()
        assert res.k == sk.k
        assert len(res.witness_cut_values) == res.stop_level + 1
        assert res.witness_cut_values[res.stop_level] < res.k

    def test_witnesses_exposed(self, source):
        n = 10
        sk = MinCutSketch(n, source=source.derive(9)).consume_batch(
            stream_from_edges(n, path_graph(n)).as_batch()
        )
        ws = sk.witnesses()
        assert len(ws) == sk.levels + 1
        assert ws[0].num_edges() == n - 1

    def test_universe_mismatch(self, source):
        from repro.streams import DynamicGraphStream

        sk = MinCutSketch(10, source=source.derive(10))
        with pytest.raises(ValueError):
            sk.consume_batch(DynamicGraphStream(12).as_batch())
