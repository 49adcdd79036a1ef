"""Tests for repro.streams: updates, dynamic streams, generators."""

from __future__ import annotations

import pytest

from repro.errors import StreamError
from repro.graphs import Graph, global_min_cut_value
from repro.util import pair_rank
from repro.streams import (
    DynamicGraphStream,
    EdgeUpdate,
    churn_stream,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    dumbbell_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    planted_partition_graph,
    random_weighted_edges,
    star_graph,
    stream_from_edges,
    triangle_planted_graph,
    weighted_churn_stream,
)


class TestEdgeUpdate:
    def test_canonical_orientation(self):
        upd = EdgeUpdate(7, 3)
        assert (upd.lo, upd.hi) == (3, 7)
        assert upd.key == (3, 7)

    def test_inverse_cancels(self):
        upd = EdgeUpdate(1, 2, 5)
        inv = upd.inverse()
        assert inv.delta == -5
        assert inv.key == upd.key

    def test_rejects_self_loop(self):
        with pytest.raises(StreamError):
            EdgeUpdate(3, 3)

    def test_rejects_zero_delta(self):
        with pytest.raises(StreamError):
            EdgeUpdate(1, 2, 0)

    def test_rejects_negative_node(self):
        with pytest.raises(StreamError):
            EdgeUpdate(-1, 2)

    def test_universe_validation(self):
        EdgeUpdate(0, 9).validate_universe(10)
        with pytest.raises(StreamError):
            EdgeUpdate(0, 10).validate_universe(10)


class TestDynamicGraphStream:
    def test_multiplicities_aggregate(self):
        st = DynamicGraphStream(5)
        st.insert(0, 1)
        st.insert(1, 0)
        st.insert(2, 3)
        st.delete(2, 3)
        assert st.multiplicities() == {(0, 1): 2}
        assert st.edges() == [(0, 1)]

    def test_negative_final_multiplicity_rejected(self):
        st = DynamicGraphStream(5)
        st.delete(0, 1)
        with pytest.raises(StreamError):
            st.multiplicities()

    def test_validate_catches_negative_prefix(self):
        st = DynamicGraphStream(5)
        st.delete(0, 1)
        st.insert(0, 1)
        # Final multiplicity is 0, but a prefix went negative.
        with pytest.raises(StreamError):
            st.validate()

    def test_rejects_small_universe(self):
        with pytest.raises(StreamError):
            DynamicGraphStream(1)

    def test_rejects_out_of_universe_updates(self):
        st = DynamicGraphStream(4)
        with pytest.raises(StreamError):
            st.insert(0, 4)

    def test_partition_preserves_aggregate(self):
        edges = erdos_renyi_graph(15, 0.4, seed=1)
        st = churn_stream(15, edges, seed=2)
        parts = st.partition(3, seed=3)
        assert sum(len(p) for p in parts) == len(st)
        merged: dict = {}
        for p in parts:
            for upd in p:
                merged[upd.key] = merged.get(upd.key, 0) + upd.delta
        merged = {k: v for k, v in merged.items() if v}
        assert merged == st.multiplicities()

    def test_partition_needs_positive_sites(self):
        st = DynamicGraphStream(4)
        with pytest.raises(StreamError):
            st.partition(0)

    def test_sorted_by_edge_groups_tokens(self):
        st = DynamicGraphStream(6)
        st.insert(3, 4)
        st.insert(0, 1)
        st.delete(3, 4)
        st.insert(0, 2)
        st.insert(3, 4)
        srt = st.sorted_by_edge()
        keys = [u.key for u in srt]
        assert keys == sorted(keys)
        assert srt.multiplicities() == st.multiplicities()

    def test_shuffled_preserves_aggregate(self):
        edges = erdos_renyi_graph(12, 0.5, seed=4)
        st = stream_from_edges(12, edges)
        sh = st.shuffled(seed=9)
        assert sh.multiplicities() == st.multiplicities()
        assert len(sh) == len(st)

    def test_concatenation(self):
        a = DynamicGraphStream(5)
        a.insert(0, 1)
        b = DynamicGraphStream(5)
        b.insert(1, 2)
        c = a + b
        assert len(c) == 2
        assert c.multiplicities() == {(0, 1): 1, (1, 2): 1}

    def test_concatenation_universe_mismatch(self):
        with pytest.raises(StreamError):
            DynamicGraphStream(5) + DynamicGraphStream(6)

    def test_interleave_preserves_tokens(self):
        a = stream_from_edges(8, path_graph(8))
        b = stream_from_edges(8, [(0, 7)])
        c = a.interleaved_with(b, seed=1)
        assert len(c) == len(a) + len(b)
        assert c.multiplicities() == {**a.multiplicities(), **b.multiplicities()}

    def test_from_edges(self):
        st = DynamicGraphStream.from_edges(4, [(0, 1), (2, 3)])
        assert st.final_edge_count() == 2


class TestStreamBatch:
    def test_columns_match_tokens(self):
        st = DynamicGraphStream(6)
        st.insert(3, 1)
        st.delete(0, 5, copies=2)
        batch = st.as_batch()
        assert len(batch) == 2
        assert batch.n == 6
        assert list(batch.lo) == [1, 0]
        assert list(batch.hi) == [3, 5]
        assert list(batch.delta) == [1, -2]
        assert list(batch.ranks) == [pair_rank(1, 3, 6), pair_rank(0, 5, 6)]

    def test_cached_until_append(self):
        st = stream_from_edges(8, path_graph(8))
        first = st.as_batch()
        assert st.as_batch() is first  # shared across consumers
        st.insert(0, 7)
        second = st.as_batch()
        assert second is not first
        assert len(second) == len(first) + 1

    def test_columns_are_read_only(self):
        batch = stream_from_edges(5, [(0, 1), (2, 3)]).as_batch()
        for column in (batch.lo, batch.hi, batch.delta, batch.ranks):
            with pytest.raises(ValueError):
                column[0] = 99

    def test_select_and_slice(self):
        st = stream_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        batch = st.as_batch()
        picked = batch.select(batch.lo >= 2)
        assert list(picked.lo) == [2, 3]
        window = batch.slice(1, 3)
        assert list(window.hi) == [2, 3]
        assert list(window.ranks) == list(batch.ranks[1:3])

    def test_empty_stream_batch(self):
        batch = DynamicGraphStream(4).as_batch()
        assert len(batch) == 0
        assert batch.ranks.size == 0

    def test_consumer_sees_tokens_appended_after_as_batch(self):
        """Regression: the invalidate-on-append contract, end to end.

        A consumer that sketched the stream, then had the stream grow,
        then consumed again must see the new tokens — a stale cached
        batch would silently drop them (and break temporal epochs,
        where the manager re-pulls ``as_batch`` between seals).
        """
        from repro.core import SpanningForestSketch
        from repro.hashing import HashSource
        from repro.sketch import dump_sketch

        st = stream_from_edges(6, [(0, 1), (1, 2)])
        st.as_batch()  # populate the cache before the append
        st.insert(2, 3)
        st.delete(1, 2)
        grown = st.as_batch()
        assert len(grown) == 4, "append must invalidate the cached batch"
        resumed = SpanningForestSketch(6, HashSource(9)).consume_batch(st.as_batch())
        direct = SpanningForestSketch(6, HashSource(9))
        direct.consume_batch(
            DynamicGraphStream(6, list(st)).as_batch()
        )
        assert dump_sketch(resumed) == dump_sketch(direct)
        assert sorted(map(tuple, (e[:2] for e in resumed.spanning_forest()))) \
            == [(0, 1), (2, 3)]


class TestGenerators:
    def test_er_edge_count_scales_with_p(self):
        sparse = erdos_renyi_graph(40, 0.1, seed=1)
        dense = erdos_renyi_graph(40, 0.9, seed=1)
        assert len(sparse) < len(dense)

    def test_er_rejects_bad_p(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5)

    def test_er_no_self_loops_or_duplicates(self):
        edges = erdos_renyi_graph(30, 0.5, seed=2)
        assert all(u != v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_planted_partition_denser_inside(self):
        edges = planted_partition_graph(40, 0.8, 0.05, seed=3)
        inside = sum(1 for u, v in edges if (u < 20) == (v < 20))
        across = len(edges) - inside
        assert inside > 3 * across

    def test_dumbbell_min_cut_is_bridges(self):
        for bridges in (1, 3, 5):
            edges = dumbbell_graph(8, bridges)
            g = Graph.from_edges(16, edges)
            assert global_min_cut_value(g) == bridges

    def test_dumbbell_rejects_too_many_bridges(self):
        with pytest.raises(ValueError):
            dumbbell_graph(5, 4)

    def test_grid_edge_count(self):
        edges = grid_graph(4, 5)
        assert len(edges) == 4 * 4 + 3 * 5

    def test_path_cycle_star_complete(self):
        assert len(path_graph(10)) == 9
        assert len(cycle_graph(10)) == 10
        assert len(star_graph(10)) == 9
        assert len(complete_graph(6)) == 15
        assert len(complete_bipartite_graph(3, 4)) == 12

    def test_triangle_planted_contains_triangles(self):
        from repro.graphs import triangle_count

        edges = triangle_planted_graph(30, 0.0, 5, seed=4)
        g = Graph.from_edges(30, edges)
        assert triangle_count(g) == 5

    def test_triangle_planted_rejects_too_many(self):
        with pytest.raises(ValueError):
            triangle_planted_graph(10, 0.1, 4)

    def test_random_weighted_in_range(self):
        wedges = random_weighted_edges(20, 0.5, 9, seed=5)
        assert all(1 <= w <= 9 for _, _, w in wedges)


class TestChurnStreams:
    def test_final_graph_is_exact(self):
        edges = erdos_renyi_graph(25, 0.3, seed=6)
        st = churn_stream(25, edges, seed=7)
        assert sorted(st.edges()) == sorted(
            (min(u, v), max(u, v)) for u, v in edges
        )

    def test_prefix_validity(self):
        edges = erdos_renyi_graph(25, 0.3, seed=8)
        st = churn_stream(25, edges, seed=9)
        st.validate()  # no prefix goes negative

    def test_contains_deletions(self):
        edges = erdos_renyi_graph(25, 0.5, seed=10)
        st = churn_stream(25, edges, churn_fraction=0.5, seed=11)
        assert any(u.delta < 0 for u in st)

    def test_zero_churn_zero_decoy_is_clean(self):
        edges = [(0, 1), (1, 2)]
        st = churn_stream(5, edges, churn_fraction=0.0, decoy_fraction=0.0, seed=1)
        assert len(st) == 2

    def test_rejects_bad_fractions(self):
        with pytest.raises(StreamError):
            churn_stream(5, [(0, 1)], churn_fraction=1.5)

    def test_weighted_churn_preserves_weights(self):
        wedges = random_weighted_edges(15, 0.4, 7, seed=12)
        st = weighted_churn_stream(15, wedges, seed=13)
        st.validate()
        want = {
            (min(u, v), max(u, v)): w for u, v, w in wedges
        }
        assert st.multiplicities() == want

    def test_weighted_churn_tokens_are_atomic(self):
        wedges = [(0, 1, 5), (1, 2, 3)]
        st = weighted_churn_stream(4, wedges, churn_fraction=1.0, seed=14)
        # Every token's |delta| must equal the full edge weight.
        weights = {(0, 1): 5, (1, 2): 3}
        for upd in st:
            assert abs(upd.delta) == weights[upd.key]

    def test_weighted_churn_rejects_zero_weight(self):
        with pytest.raises(StreamError):
            weighted_churn_stream(4, [(0, 1, 0)])
