"""Tests for patterns and the Section 4 subgraph sketch."""

from __future__ import annotations

import pytest

from repro.core import (
    CLIQUE_4,
    CYCLE_4,
    EMPTY_3,
    PATH_3,
    PATH_4,
    SINGLE_EDGE_3,
    STAR_4,
    TRIANGLE,
    Pattern,
    SubgraphSketch,
    encoding_class,
    named_patterns,
)
from repro.errors import NotSupportedError
from repro.graphs import Graph, gamma_exact
from repro.streams import (
    DynamicGraphStream,
    churn_stream,
    complete_graph,
    erdos_renyi_graph,
    stream_from_edges,
    triangle_planted_graph,
)


class TestPatterns:
    def test_triangle_class_is_all_ones(self):
        assert encoding_class(TRIANGLE) == frozenset({7})

    def test_path3_class(self):
        assert encoding_class(PATH_3) == frozenset({3, 5, 6})

    def test_single_edge_class(self):
        assert encoding_class(SINGLE_EDGE_3) == frozenset({1, 2, 4})

    def test_empty_class(self):
        assert encoding_class(EMPTY_3) == frozenset({0})

    def test_order3_classes_partition_all_masks(self):
        union = set()
        for p in (TRIANGLE, PATH_3, SINGLE_EDGE_3, EMPTY_3):
            cls = encoding_class(p)
            assert not (union & cls), "classes must be disjoint"
            union |= cls
        assert union == set(range(8))

    def test_clique4_single_encoding(self):
        assert encoding_class(CLIQUE_4) == frozenset({63})

    def test_cycle4_class_size(self):
        # 3 labelled 4-cycles on 4 vertices.
        assert len(encoding_class(CYCLE_4)) == 3

    def test_path4_class_size(self):
        # 4!/2 = 12 labelled paths on 4 vertices.
        assert len(encoding_class(PATH_4)) == 12

    def test_star4_class_size(self):
        # 4 choices of centre.
        assert len(encoding_class(STAR_4)) == 4

    def test_named_patterns_registry(self):
        reg = named_patterns()
        assert "triangle" in reg and reg["triangle"] is TRIANGLE

    def test_rejects_large_order(self):
        with pytest.raises(NotSupportedError):
            Pattern(name="big", order=6, edges=frozenset())

    def test_rejects_non_canonical_edges(self):
        with pytest.raises(ValueError):
            Pattern(name="bad", order=3, edges=frozenset({(2, 1)}))


class TestSubgraphSketch:
    def test_complete_graph_all_triangles(self, source):
        n = 10
        sk = SubgraphSketch(n, order=3, samplers=48, source=source.derive(1))
        sk.consume_batch(stream_from_edges(n, complete_graph(n)).as_batch())
        est = sk.estimate(TRIANGLE)
        assert est.gamma == 1.0
        assert est.invalid_encodings == 0

    def test_single_edge_graph(self, source):
        n = 8
        st = DynamicGraphStream(n)
        st.insert(0, 1)
        sk = SubgraphSketch(n, order=3, samplers=32, source=source.derive(2))
        sk.consume_batch(st.as_batch())
        # Every non-empty column is the single-edge pattern.
        assert sk.estimate(SINGLE_EDGE_3).gamma == 1.0
        assert sk.estimate(TRIANGLE).gamma == 0.0

    def test_additive_error_bounded(self, source):
        n = 28
        edges = triangle_planted_graph(n, 0.15, 5, seed=3)
        g = Graph.from_edges(n, edges)
        sk = SubgraphSketch(n, order=3, samplers=160, source=source.derive(3))
        sk.consume_batch(churn_stream(n, edges, seed=4).as_batch())
        for pattern in (TRIANGLE, PATH_3, SINGLE_EDGE_3):
            est = sk.estimate(pattern)
            exact = gamma_exact(g, encoding_class(pattern), 3)
            assert abs(est.gamma - exact) < 0.12, pattern.name

    def test_deletions_cancel(self, source):
        """Decoys inserted then deleted must not affect the estimate."""
        n = 12
        base = [(0, 1), (1, 2), (2, 0)]
        clean = stream_from_edges(n, base)
        churny = DynamicGraphStream(n)
        for u, v in base:
            churny.insert(u, v)
        churny.insert(5, 6)
        churny.insert(6, 7)
        churny.delete(5, 6)
        churny.delete(6, 7)
        a = SubgraphSketch(n, order=3, samplers=32, source=source.derive(4))
        b = SubgraphSketch(n, order=3, samplers=32, source=source.derive(4))
        a.consume_batch(clean.as_batch())
        b.consume_batch(churny.as_batch())
        assert (a.bank.bank.phi == b.bank.bank.phi).all()
        assert (a.bank.bank.fp1 == b.bank.bank.fp1).all()

    def test_merge_distributed(self, source):
        n = 14
        edges = erdos_renyi_graph(n, 0.4, seed=5)
        st = churn_stream(n, edges, seed=6)
        direct = SubgraphSketch(n, order=3, samplers=24, source=source.derive(5))
        direct.consume_batch(st.as_batch())
        merged = SubgraphSketch(n, order=3, samplers=24, source=source.derive(5))
        for part in st.partition(3, seed=7):
            site = SubgraphSketch(n, order=3, samplers=24, source=source.derive(5))
            merged.merge(site.consume_batch(part.as_batch()))
        assert (direct.bank.bank.phi == merged.bank.bank.phi).all()

    def test_order4_on_clique(self, source):
        n = 8
        sk = SubgraphSketch(n, order=4, samplers=24, source=source.derive(6))
        sk.consume_batch(stream_from_edges(n, complete_graph(n)).as_batch())
        assert sk.estimate(CLIQUE_4).gamma == 1.0

    def test_estimate_many_shares_samples(self, source):
        n = 16
        edges = erdos_renyi_graph(n, 0.3, seed=8)
        sk = SubgraphSketch(n, order=3, samplers=40, source=source.derive(7))
        sk.consume_batch(stream_from_edges(n, edges).as_batch())
        out = sk.estimate_many([TRIANGLE, PATH_3, SINGLE_EDGE_3, EMPTY_3])
        # Non-empty classes partition the samples: fractions sum to 1.
        total = out["triangle"].gamma + out["path3"].gamma + out["single-edge3"].gamma
        assert total == pytest.approx(1.0)
        assert out["empty3"].gamma == 0.0  # empty columns are never sampled

    def test_pattern_order_mismatch(self, source):
        sk = SubgraphSketch(10, order=3, samplers=8, source=source.derive(8))
        with pytest.raises(ValueError):
            sk.estimate(CLIQUE_4)

    def test_rejects_bad_parameters(self, source):
        with pytest.raises(NotSupportedError):
            SubgraphSketch(10, order=6, source=source)
        with pytest.raises(ValueError):
            SubgraphSketch(10, order=3, samplers=0, source=source)
        with pytest.raises(ValueError):
            SubgraphSketch(2, order=3, source=source)

    def test_empty_graph_all_fail(self, source):
        sk = SubgraphSketch(8, order=3, samplers=16, source=source.derive(9))
        est = sk.estimate(TRIANGLE)
        assert est.gamma == 0.0
        assert est.samples_failed == 16
        assert est.samples_used == 0
