"""Tests for the adaptive spanner constructions (Section 5)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    BaswanaSenSpanner,
    ClusterState,
    NeighborhoodSketch,
    RecurseConnectSpanner,
    recurse_connect_stretch_bound,
)
from repro.distributed import partition_stream
from repro.graphs import Graph, measure_stretch, verify_subgraph
from repro.sketch import ensure_arena
from repro.sketch.arena import slot_bytes
from repro.streams import (
    DynamicGraphStream,
    churn_stream,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    stream_from_edges,
)


class TestClusterState:
    def test_initial_all_singletons(self):
        st = ClusterState(5)
        assert st.roots() == set(range(5))
        assert all(st.alive(v) for v in range(5))

    def test_finish(self):
        st = ClusterState(4)
        st.finish(2)
        assert not st.alive(2)
        assert st.roots() == {0, 1, 3}

    def test_members(self):
        st = ClusterState(4)
        st.root[1] = 0
        st.root[2] = 0
        assert st.members() == {0: [0, 1, 2], 3: [3]}


class TestNeighborhoodSketch:
    def test_one_edge_per_cluster(self, source):
        n = 8
        # Clusters: {0}, {1,2}, {3,4,5}; vertex 6, 7 isolated-cluster.
        state = ClusterState(n)
        state.root[2] = 1
        state.root[4] = 3
        state.root[5] = 3
        st = DynamicGraphStream(n)
        for u, v in [(0, 1), (0, 2), (0, 4), (0, 5), (6, 7)]:
            st.insert(u, v)
        hood = NeighborhoodSketch(n, buckets=16, source=source.derive(1))
        hood.consume(st, state)
        per = hood.edges_per_cluster(0, state)
        assert set(per) == {1, 3}
        for root, (a, x) in per.items():
            assert a == 0
            assert state.root[x] == root

    def test_restricted_roots(self, source):
        n = 6
        state = ClusterState(n)
        st = DynamicGraphStream(n)
        st.insert(0, 1)
        st.insert(0, 2)
        hood = NeighborhoodSketch(
            n, buckets=8, source=source.derive(2), restrict_roots={1}
        )
        hood.consume(st, state)
        per = hood.edges_per_cluster(0, state)
        assert set(per) == {1}

    def test_dead_vertices_ignored(self, source):
        n = 6
        state = ClusterState(n)
        state.finish(2)
        st = DynamicGraphStream(n)
        st.insert(0, 2)
        hood = NeighborhoodSketch(n, buckets=8, source=source.derive(3))
        hood.consume(st, state)
        assert hood.edges_per_cluster(0, state) == {}


class TestBaswanaSenSpanner:
    @pytest.mark.parametrize("k", [2, 3])
    def test_stretch_bound_on_grid(self, k, source):
        n = 36
        edges = grid_graph(6, 6)
        g = Graph.from_edges(n, edges)
        rep = BaswanaSenSpanner(n, k=k, source=source.derive(10, k)).build(
            churn_stream(n, edges, seed=k)
        )
        sr = measure_stretch(g, rep.spanner)
        assert sr.disconnected_pairs == 0
        assert sr.max_stretch <= 2 * k - 1

    def test_spanner_is_subgraph(self, source):
        n = 30
        edges = erdos_renyi_graph(n, 0.3, seed=11)
        g = Graph.from_edges(n, edges)
        rep = BaswanaSenSpanner(n, k=3, source=source.derive(11)).build(
            churn_stream(n, edges, seed=12)
        )
        verify_subgraph(g, rep.spanner)  # raises on violation

    def test_batches_equal_k(self, source):
        n = 20
        edges = erdos_renyi_graph(n, 0.3, seed=13)
        for k in (2, 3, 4):
            rep = BaswanaSenSpanner(n, k=k, source=source.derive(12, k)).build(
                stream_from_edges(n, edges)
            )
            assert rep.batches == k
            assert rep.stretch_bound == 2 * k - 1

    def test_dense_graph_compressed(self, source):
        n = 24
        edges = complete_graph(n)
        g = Graph.from_edges(n, edges)
        rep = BaswanaSenSpanner(n, k=2, source=source.derive(13)).build(
            stream_from_edges(n, edges)
        )
        assert rep.edges < g.num_edges()
        sr = measure_stretch(g, rep.spanner)
        assert sr.max_stretch <= 3

    def test_disconnected_graph_handled(self, source):
        n = 12
        edges = path_graph(6) + [(6 + u, 6 + v) for u, v in path_graph(6)]
        g = Graph.from_edges(n, edges)
        rep = BaswanaSenSpanner(n, k=2, source=source.derive(14)).build(
            stream_from_edges(n, edges)
        )
        sr = measure_stretch(g, rep.spanner)
        assert sr.disconnected_pairs == 0

    def test_rejects_bad_k(self, source):
        with pytest.raises(ValueError):
            BaswanaSenSpanner(10, k=1, source=source)

    def test_universe_mismatch(self, source):
        sp = BaswanaSenSpanner(10, k=2, source=source.derive(15))
        with pytest.raises(ValueError):
            sp.build(DynamicGraphStream(12))

    def test_memory_reported(self, source):
        n = 16
        rep = BaswanaSenSpanner(n, k=2, source=source.derive(16)).build(
            stream_from_edges(n, cycle_graph(n))
        )
        assert rep.memory_cells > 0

    def test_sharded_build_ships_slot_bytes(self, source, monkeypatch):
        """Each site bank counts as a sharded runner's slot would, so
        ``shipped_bytes`` is the one figure every engine kind reports."""
        n, k, sites = 20, 3, 3
        stream = churn_stream(n, erdos_renyi_graph(n, 0.3, seed=17), seed=18)
        received = []
        ship = BaswanaSenSpanner._ship

        def record(self, bank, into):
            received.append(bank)
            return ship(self, bank, into)

        monkeypatch.setattr(BaswanaSenSpanner, "_ship", record)
        rep = BaswanaSenSpanner(n, k=k, source=source.derive(17)).build_sharded(
            partition_stream(stream, sites, "round-robin")
        )
        # Two banks per site in each of the k-1 growth batches, one in
        # the clean-up batch.
        assert len(received) == sites * (2 * (k - 1) + 1)
        arenas = [ensure_arena(bank) for bank in received]
        expected = sum(
            slot_bytes(int(np.count_nonzero(a.buffer)), a.cells)
            for a in arenas
        )
        assert rep.shipped_bytes == expected > 0


class TestRecurseConnectSpanner:
    def test_stretch_bound_formula(self):
        assert recurse_connect_stretch_bound(2) == pytest.approx(
            2 ** math.log2(5) - 1
        )
        assert recurse_connect_stretch_bound(4) == pytest.approx(24.0, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 4])
    def test_stretch_within_bound(self, k, source):
        n = 36
        edges = grid_graph(6, 6)
        g = Graph.from_edges(n, edges)
        rep = RecurseConnectSpanner(n, k=k, source=source.derive(20, k)).build(
            churn_stream(n, edges, seed=k + 1)
        )
        sr = measure_stretch(g, rep.spanner)
        assert sr.disconnected_pairs == 0
        assert sr.max_stretch <= rep.stretch_bound

    def test_adaptivity_is_log_k(self, source):
        n = 30
        edges = erdos_renyi_graph(n, 0.4, seed=21)
        for k in (2, 4, 8):
            rep = RecurseConnectSpanner(n, k=k, source=source.derive(21, k)).build(
                stream_from_edges(n, edges)
            )
            assert rep.batches <= math.ceil(math.log2(k)) + 1

    def test_contraction_trajectory_monotone(self, source):
        n = 36
        edges = erdos_renyi_graph(n, 0.5, seed=22)
        spanner = RecurseConnectSpanner(n, k=4, source=source.derive(22))
        spanner.build(stream_from_edges(n, edges))
        traj = spanner.contraction_trajectory
        assert traj[0] == n
        assert all(a >= b for a, b in zip(traj, traj[1:]))

    def test_spanner_is_subgraph(self, source):
        n = 25
        edges = erdos_renyi_graph(n, 0.35, seed=23)
        g = Graph.from_edges(n, edges)
        rep = RecurseConnectSpanner(n, k=4, source=source.derive(23)).build(
            churn_stream(n, edges, seed=24)
        )
        verify_subgraph(g, rep.spanner)

    def test_connectivity_preserved(self, source):
        n = 20
        edges = cycle_graph(n)
        g = Graph.from_edges(n, edges)
        rep = RecurseConnectSpanner(n, k=2, source=source.derive(24)).build(
            stream_from_edges(n, edges)
        )
        sr = measure_stretch(g, rep.spanner)
        assert sr.disconnected_pairs == 0

    def test_rejects_bad_k(self, source):
        with pytest.raises(ValueError):
            RecurseConnectSpanner(10, k=1, source=source)

    def test_universe_mismatch(self, source):
        sp = RecurseConnectSpanner(10, k=2, source=source.derive(25))
        with pytest.raises(ValueError):
            sp.build(DynamicGraphStream(12))
