"""Tests for SIMPLE-SPARSIFICATION, SPARSIFICATION, weighted, Sparsifier."""

from __future__ import annotations

import pytest

from repro.core import (
    SimpleSparsification,
    Sparsification,
    Sparsifier,
    WeightedSparsification,
    cut_approximation_report,
    default_sparsifier_k,
    weight_class_of,
)
from repro.errors import GraphError
from repro.graphs import Graph
from repro.streams import (
    DynamicGraphStream,
    churn_stream,
    erdos_renyi_graph,
    path_graph,
    random_weighted_edges,
    stream_from_edges,
    weighted_churn_stream,
)


class TestDefaultSparsifierK:
    def test_log_squared_growth(self):
        assert default_sparsifier_k(256, 0.5, 1.0) > default_sparsifier_k(16, 0.5, 1.0)

    def test_epsilon_scaling(self):
        assert default_sparsifier_k(64, 0.25, 1.0) == pytest.approx(
            4 * default_sparsifier_k(64, 0.5, 1.0), rel=0.1
        )

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            default_sparsifier_k(10, 2.0, 1.0)


class TestSimpleSparsification:
    def test_sparse_graph_kept_exactly(self, source):
        """Graphs with connectivity < k everywhere are kept verbatim."""
        n = 14
        edges = path_graph(n)
        sk = SimpleSparsification(n, source=source.derive(1), c_k=1.0).consume_batch(
            stream_from_edges(n, edges).as_batch()
        )
        sp = sk.sparsifier()
        assert sorted(sp.graph.edges()) == sorted(edges)
        rep = cut_approximation_report(
            Graph.from_edges(n, edges), sp, exhaustive_limit=14
        )
        assert rep.max_relative_error == 0.0
        assert rep.exhaustive

    def test_all_weights_power_of_two_multiples(self, source):
        n = 20
        edges = erdos_renyi_graph(n, 0.5, seed=2)
        sk = SimpleSparsification(
            n, source=source.derive(2), c_k=0.15
        ).consume_batch(churn_stream(n, edges, seed=3).as_batch())
        sp = sk.sparsifier()
        for (u, v), level in sp.edge_levels.items():
            assert sp.graph.weight(u, v) == 2**level

    def test_sparsifier_is_subgraph(self, source):
        n = 20
        edges = erdos_renyi_graph(n, 0.5, seed=4)
        g = Graph.from_edges(n, edges)
        sk = SimpleSparsification(
            n, source=source.derive(3), c_k=0.15
        ).consume_batch(churn_stream(n, edges, seed=5).as_batch())
        for u, v in sk.sparsifier().graph.edges():
            assert g.has_edge(u, v)

    def test_quality_improves_with_k(self, source):
        n = 24
        edges = erdos_renyi_graph(n, 0.8, seed=6)
        g = Graph.from_edges(n, edges)
        st = churn_stream(n, edges, seed=7)
        errs = []
        for c_k in (0.05, 0.4):
            sk = SimpleSparsification(
                n, source=source.derive(4), c_k=c_k
            ).consume_batch(st.as_batch())
            rep = cut_approximation_report(g, sk.sparsifier(), sample_cuts=150)
            errs.append(rep.max_relative_error)
        assert errs[1] <= errs[0]

    def test_denser_graph_gets_compressed(self, source):
        n = 24
        edges = erdos_renyi_graph(n, 0.9, seed=8)
        sk = SimpleSparsification(
            n, source=source.derive(5), c_k=0.05
        ).consume_batch(stream_from_edges(n, edges).as_batch())
        sp = sk.sparsifier()
        assert sp.num_edges < len(edges)

    def test_level_histogram_consistent(self, source):
        n = 20
        edges = erdos_renyi_graph(n, 0.7, seed=9)
        sk = SimpleSparsification(
            n, source=source.derive(6), c_k=0.1
        ).consume_batch(stream_from_edges(n, edges).as_batch())
        sp = sk.sparsifier()
        assert sum(sp.level_histogram().values()) == sp.num_edges

    def test_merge_matches_direct(self, source):
        n = 16
        edges = erdos_renyi_graph(n, 0.4, seed=10)
        st = churn_stream(n, edges, seed=11)
        direct = SimpleSparsification(n, source=source.derive(7)).consume_batch(st.as_batch())
        merged = SimpleSparsification(n, source=source.derive(7))
        for part in st.partition(2, seed=12):
            merged.merge(
                SimpleSparsification(n, source=source.derive(7)).consume_batch(part.as_batch())
            )
        assert sorted(direct.sparsifier().graph.weighted_edges()) == sorted(
            merged.sparsifier().graph.weighted_edges()
        )

    def test_rejects_bad_weight_scale(self, source):
        with pytest.raises(ValueError):
            SimpleSparsification(10, weight_scale=0.5, source=source)


class TestSparsification:
    def test_quality_on_dense_graph(self, source):
        n = 24
        edges = erdos_renyi_graph(n, 0.8, seed=13)
        g = Graph.from_edges(n, edges)
        sk = Sparsification(
            n, source=source.derive(8), c_k=0.4, c_rough=0.1, c_level=4.0
        ).consume_batch(churn_stream(n, edges, seed=14).as_batch())
        sp = sk.sparsifier()
        rep = cut_approximation_report(g, sp, sample_cuts=150)
        assert rep.max_relative_error < 1.0
        assert sk.diagnostics.cuts_processed == n - 1

    def test_edges_are_subgraph_with_dyadic_weights(self, source):
        n = 20
        edges = erdos_renyi_graph(n, 0.6, seed=15)
        g = Graph.from_edges(n, edges)
        sk = Sparsification(
            n, source=source.derive(9), c_k=0.3, c_rough=0.1, c_level=4.0
        ).consume_batch(stream_from_edges(n, edges).as_batch())
        sp = sk.sparsifier()
        for (u, v), level in sp.edge_levels.items():
            assert g.has_edge(u, v)
            assert sp.graph.weight(u, v) == 2**level

    def test_empty_stream(self, source):
        sk = Sparsification(8, source=source.derive(10))
        sp = sk.sparsifier()
        assert sp.num_edges == 0

    def test_memory_below_simple_at_same_target(self, source):
        """The Fig. 3 point: fewer cells than Fig. 2 at matched accuracy."""
        n = 24
        simple = SimpleSparsification(n, source=source.derive(11), c_k=0.2)
        better = Sparsification(
            n, source=source.derive(12), c_k=0.3, c_rough=0.05
        )
        assert better.memory_cells() < simple.memory_cells()

    def test_merge(self, source):
        n = 14
        edges = erdos_renyi_graph(n, 0.5, seed=16)
        st = churn_stream(n, edges, seed=17)
        direct = Sparsification(n, source=source.derive(13)).consume_batch(st.as_batch())
        merged = Sparsification(n, source=source.derive(13))
        for part in st.partition(2, seed=18):
            merged.merge(Sparsification(n, source=source.derive(13)).consume_batch(part.as_batch()))
        assert sorted(direct.sparsifier().graph.weighted_edges()) == sorted(
            merged.sparsifier().graph.weighted_edges()
        )


class TestWeightedSparsification:
    def test_weight_class_of(self):
        assert weight_class_of(1) == 0
        assert weight_class_of(2) == 1
        assert weight_class_of(3) == 1
        assert weight_class_of(4) == 2
        assert weight_class_of(-5) == 2
        with pytest.raises(ValueError):
            weight_class_of(0)

    def test_weighted_cuts_preserved_small(self, source):
        n = 16
        wedges = random_weighted_edges(n, 0.5, 10, seed=19)
        st = weighted_churn_stream(n, wedges, seed=20)
        g = Graph.from_multiplicities(n, st.multiplicities())
        sk = WeightedSparsification(
            n, max_weight=16, source=source.derive(14), c_k=0.5
        ).consume_batch(st.as_batch())
        rep = cut_approximation_report(g, sk.sparsifier(), sample_cuts=150)
        assert rep.max_relative_error <= 0.75

    def test_low_connectivity_weighted_graph_exact(self, source):
        n = 10
        wedges = [(i, i + 1, i + 1) for i in range(n - 1)]  # weighted path
        st = weighted_churn_stream(n, wedges, seed=21)
        sk = WeightedSparsification(
            n, max_weight=16, source=source.derive(15), c_k=1.0
        ).consume_batch(st.as_batch())
        sp = sk.sparsifier()
        g = Graph.from_multiplicities(n, st.multiplicities())
        rep = cut_approximation_report(g, sp, exhaustive_limit=10)
        assert rep.max_relative_error == 0.0

    def test_token_weight_guard(self, source):
        sk = WeightedSparsification(8, max_weight=4, source=source.derive(16))
        st = DynamicGraphStream(8)
        st.insert(0, 1, copies=9)
        with pytest.raises(ValueError):
            sk.consume_batch(st.as_batch())

    def test_class_count(self, source):
        sk = WeightedSparsification(8, max_weight=1, source=source.derive(17))
        assert sk.num_classes == 1
        sk = WeightedSparsification(8, max_weight=15, source=source.derive(18))
        assert sk.num_classes == 4

    def test_merge_mismatch(self, source):
        a = WeightedSparsification(8, max_weight=4, source=source.derive(19))
        b = WeightedSparsification(8, max_weight=8, source=source.derive(19))
        with pytest.raises(ValueError):
            a.merge(b)


class TestSparsifierReport:
    def test_exhaustive_for_small_graphs(self, source):
        g = Graph.from_edges(6, path_graph(6))
        rep = cut_approximation_report(g, Sparsifier(graph=g.copy(), epsilon=0.1))
        assert rep.exhaustive
        assert rep.cuts_evaluated == 2**5 - 1
        assert rep.max_relative_error == 0.0
        assert rep.satisfies(0.1)

    def test_detects_bad_sparsifier(self):
        g = Graph.from_edges(6, path_graph(6))
        bad = Graph(6)
        for u, v in path_graph(6):
            bad.add_edge(u, v, 3.0)  # cut values off by 3x
        rep = cut_approximation_report(g, bad)
        assert rep.max_relative_error == pytest.approx(2.0)
        assert not rep.satisfies(0.5)

    def test_positive_weight_on_empty_cut_rejected(self):
        g = Graph.from_edges(4, [(0, 1)])
        fake = Graph(4)
        fake.add_edge(2, 3, 1.0)  # crosses a cut empty in the reference
        with pytest.raises(GraphError):
            cut_approximation_report(g, fake)

    def test_size_mismatch_rejected(self):
        with pytest.raises(GraphError):
            cut_approximation_report(Graph(4), Graph(5))

    def test_sampled_mode_for_large_graphs(self):
        n = 30
        g = Graph.from_edges(n, erdos_renyi_graph(n, 0.3, seed=22))
        rep = cut_approximation_report(g, g.copy(), sample_cuts=50)
        assert not rep.exhaustive
        assert rep.max_relative_error == 0.0
