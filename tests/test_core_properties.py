"""Tests for companion property sketches: bipartiteness, k-conn, MST, cuts."""

from __future__ import annotations

import pytest

from repro.core import (
    BipartitenessSketch,
    CutEdgesSketch,
    MSTWeightSketch,
    is_k_connected_sketch,
)
from repro.errors import RecoveryFailed, StreamError
from repro.streams import (
    DynamicGraphStream,
    churn_stream,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    dumbbell_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_weighted_edges,
    stream_from_edges,
    weighted_churn_stream,
)


class TestBipartitenessSketch:
    @pytest.mark.parametrize(
        "edges,n,expect",
        [
            (path_graph(10), 10, True),
            (cycle_graph(8), 8, True),    # even cycle
            (cycle_graph(9), 9, False),   # odd cycle
            (complete_bipartite_graph(4, 5), 9, True),
            (complete_graph(5), 5, False),
            (grid_graph(4, 4), 16, True),
        ],
    )
    def test_known_graphs(self, edges, n, expect, source):
        sk = BipartitenessSketch(n, source.derive(1, n)).consume_batch(
            stream_from_edges(n, edges).as_batch()
        )
        assert sk.is_bipartite() == expect

    def test_empty_graph_bipartite(self, source):
        sk = BipartitenessSketch(6, source.derive(2))
        assert sk.is_bipartite()

    def test_mixed_components(self, source):
        """One bipartite and one odd-cycle component: not bipartite."""
        n = 12
        edges = path_graph(5) + [(6 + u, 6 + v) for u, v in cycle_graph(5)]
        sk = BipartitenessSketch(n, source.derive(3)).consume_batch(
            stream_from_edges(n, edges).as_batch()
        )
        assert not sk.is_bipartite()

    def test_deletion_restores_bipartiteness(self, source):
        """Odd cycle closed then reopened: bipartite again (linearity)."""
        n = 5
        st = DynamicGraphStream(n)
        for u, v in cycle_graph(5):
            st.insert(u, v)
        st.delete(4, 0)  # break the odd cycle
        sk = BipartitenessSketch(n, source.derive(4)).consume_batch(st.as_batch())
        assert sk.is_bipartite()

    def test_merge(self, source):
        n = 9
        edges = cycle_graph(9)
        st = stream_from_edges(n, edges)
        merged = BipartitenessSketch(n, source.derive(5))
        for part in st.partition(2, seed=1):
            site = BipartitenessSketch(n, source.derive(5)).consume_batch(part.as_batch())
            merged.merge(site)
        assert not merged.is_bipartite()

    def test_merge_mismatch(self, source):
        a = BipartitenessSketch(5, source.derive(6))
        b = BipartitenessSketch(6, source.derive(6))
        with pytest.raises(ValueError):
            a.merge(b)


class TestIsKConnectedSketch:
    def test_dumbbell_boundary(self, source):
        clique, bridges = 6, 3
        n = 2 * clique
        st = churn_stream(n, dumbbell_graph(clique, bridges), seed=1)
        assert is_k_connected_sketch(n, 3, st, source.derive(10))
        assert not is_k_connected_sketch(n, 4, st, source.derive(11))

    def test_path_is_1_but_not_2_connected(self, source):
        n = 8
        st = stream_from_edges(n, path_graph(n))
        assert is_k_connected_sketch(n, 1, st, source.derive(12))
        assert not is_k_connected_sketch(n, 2, st, source.derive(13))

    def test_disconnected_graph(self, source):
        st = stream_from_edges(6, [(0, 1), (2, 3)])
        assert not is_k_connected_sketch(6, 1, st, source.derive(14))

    def test_empty_graph(self, source):
        assert not is_k_connected_sketch(
            4, 1, DynamicGraphStream(4), source.derive(15)
        )


class TestMSTWeightSketch:
    def test_unit_weights_spanning_tree(self, source):
        n = 12
        st = stream_from_edges(n, path_graph(n))
        sk = MSTWeightSketch(n, max_weight=1, source=source.derive(20)).consume_batch(st.as_batch())
        assert sk.estimate() == n - 1

    def test_weighted_path_exact(self, source):
        # Path with weights 1..4: MST weight = 10.
        n = 5
        st = DynamicGraphStream(n)
        for i, w in enumerate([1, 2, 3, 4]):
            st.insert(i, i + 1, copies=w)
        sk = MSTWeightSketch(n, max_weight=4, source=source.derive(21)).consume_batch(st.as_batch())
        assert sk.estimate() == 10

    def test_cheap_edges_chosen(self, source):
        """Triangle 1-1-5: MST picks the two cheap edges (weight 2)."""
        n = 3
        st = DynamicGraphStream(n)
        st.insert(0, 1, copies=1)
        st.insert(1, 2, copies=1)
        st.insert(0, 2, copies=5)
        sk = MSTWeightSketch(n, max_weight=5, source=source.derive(22)).consume_batch(st.as_batch())
        assert sk.estimate() == 2

    def test_matches_kruskal_on_random_graphs(self, source):
        n = 14
        wedges = random_weighted_edges(n, 0.5, 6, seed=3)
        st = weighted_churn_stream(n, wedges, seed=4)
        sk = MSTWeightSketch(n, max_weight=6, source=source.derive(23)).consume_batch(st.as_batch())
        assert sk.estimate() == _kruskal_weight(n, wedges)

    def test_disconnected_returns_forest_weight(self, source):
        n = 6
        st = DynamicGraphStream(n)
        st.insert(0, 1, copies=2)
        st.insert(3, 4, copies=3)
        sk = MSTWeightSketch(n, max_weight=4, source=source.derive(24)).consume_batch(st.as_batch())
        assert sk.estimate() == 5

    def test_geometric_ladder_overestimates_within_bound(self, source):
        n = 14
        wedges = random_weighted_edges(n, 0.5, 32, seed=5)
        st = weighted_churn_stream(n, wedges, seed=6)
        eps = 0.5
        sk = MSTWeightSketch(
            n, max_weight=32, epsilon=eps, source=source.derive(25)
        ).consume_batch(st.as_batch())
        truth = _kruskal_weight(n, wedges)
        est = sk.estimate()
        assert truth <= est <= (1 + eps) * truth + 1e-9
        assert len(sk.sketches) < 32  # strictly fewer than exact thresholds

    def test_weight_guard(self, source):
        sk = MSTWeightSketch(5, max_weight=3, source=source.derive(26))
        st = DynamicGraphStream(5)
        st.insert(0, 1, copies=7)
        with pytest.raises(StreamError):
            sk.consume_batch(st.as_batch())

    def test_merge(self, source):
        n = 10
        wedges = random_weighted_edges(n, 0.5, 4, seed=7)
        st = weighted_churn_stream(n, wedges, seed=8)
        direct = MSTWeightSketch(n, max_weight=4, source=source.derive(27)).consume_batch(
            st.as_batch()
        )
        merged = MSTWeightSketch(n, max_weight=4, source=source.derive(27))
        for part in st.partition(2, seed=9):
            merged.merge(
                MSTWeightSketch(n, max_weight=4, source=source.derive(27)).consume_batch(
                    part.as_batch()
                )
            )
        assert merged.estimate() == direct.estimate()

    def test_rejects_bad_parameters(self, source):
        with pytest.raises(ValueError):
            MSTWeightSketch(5, max_weight=0, source=source)
        with pytest.raises(ValueError):
            MSTWeightSketch(5, max_weight=3, epsilon=-0.1, source=source)


def _kruskal_weight(n: int, wedges: list[tuple[int, int, int]]) -> float:
    from repro.graphs import UnionFind

    uf = UnionFind(n)
    total = 0.0
    for u, v, w in sorted(wedges, key=lambda e: e[2]):
        if uf.union(u, v):
            total += w
    return total


class TestCutEdgesSketch:
    def test_exact_cut_listing(self, source):
        n = 12
        edges = dumbbell_graph(6, 2)
        sk = CutEdgesSketch(n, k=5, source=source.derive(30)).consume_batch(
            churn_stream(n, edges, seed=1).as_batch()
        )
        crossing = sk.crossing_edges(set(range(6)))
        assert crossing == {(0, 6): 1, (1, 7): 1}
        assert sk.cut_value(set(range(6))) == 2

    def test_any_query_side_orientation(self, source):
        n = 8
        sk = CutEdgesSketch(n, k=4, source=source.derive(31)).consume_batch(
            stream_from_edges(n, path_graph(n)).as_batch()
        )
        assert sk.crossing_edges({0, 1, 2}) == {(2, 3): 1}
        assert sk.crossing_edges({3, 4, 5, 6, 7}) == {(2, 3): 1}

    def test_overfull_cut_fails(self, source):
        n = 10
        sk = CutEdgesSketch(n, k=3, source=source.derive(32)).consume_batch(
            stream_from_edges(n, complete_graph(n)).as_batch()
        )
        with pytest.raises(RecoveryFailed):
            sk.crossing_edges({0, 1, 2, 3, 4})

    def test_component_detection(self, source):
        n = 8
        edges = [(0, 1), (1, 2), (3, 4)]
        sk = CutEdgesSketch(n, k=4, source=source.derive(33)).consume_batch(
            stream_from_edges(n, edges).as_batch()
        )
        assert sk.is_cut_empty({0, 1, 2})
        assert not sk.is_cut_empty({0, 1})

    def test_multiplicities_reported(self, source):
        n = 5
        st = DynamicGraphStream(n)
        st.insert(0, 3, copies=4)
        sk = CutEdgesSketch(n, k=3, source=source.derive(34)).consume_batch(st.as_batch())
        assert sk.crossing_edges({0}) == {(0, 3): 4}
        assert sk.cut_value({0}) == 4

    def test_invalid_sides(self, source):
        sk = CutEdgesSketch(6, k=3, source=source.derive(35))
        with pytest.raises(ValueError):
            sk.crossing_edges(set())
        with pytest.raises(ValueError):
            sk.crossing_edges(set(range(6)))
        with pytest.raises(ValueError):
            sk.crossing_edges({9})

    def test_merge(self, source):
        n = 8
        edges = erdos_renyi_graph(n, 0.4, seed=2)
        st = churn_stream(n, edges, seed=3)
        direct = CutEdgesSketch(n, k=8, source=source.derive(36)).consume_batch(st.as_batch())
        merged = CutEdgesSketch(n, k=8, source=source.derive(36))
        for part in st.partition(2, seed=4):
            merged.merge(
                CutEdgesSketch(n, k=8, source=source.derive(36)).consume_batch(part.as_batch())
            )
        assert (merged.bank.bank.phi == direct.bank.bank.phi).all()

    def test_rejects_bad_parameters(self, source):
        with pytest.raises(ValueError):
            CutEdgesSketch(1, k=2, source=source)
        with pytest.raises(ValueError):
            CutEdgesSketch(5, k=0, source=source)
