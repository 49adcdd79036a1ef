"""Property-based tests for the companion sketches and I/O layers."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BipartitenessSketch, CutEdgesSketch, MSTWeightSketch
from repro.errors import RecoveryFailed
from repro.graphs import UnionFind
from repro.hashing import HashSource
from repro.streams import (
    DynamicGraphStream,
    EdgeUpdate,
    dumps_stream,
    loads_stream,
)

common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Small random graphs as canonical edge sets.
edge_sets = st.builds(
    lambda pairs: sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25),
)


def _is_bipartite_exact(n: int, edges: list[tuple[int, int]]) -> bool:
    color = [-1] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = color[x] ^ 1
                    stack.append(y)
                elif color[y] == color[x]:
                    return False
    return True


class TestBipartitenessProperty:
    @common_settings
    @given(edges=edge_sets, seed=st.integers(0, 3))
    def test_matches_two_coloring(self, edges, seed):
        n = 10
        st_ = DynamicGraphStream(n, (EdgeUpdate(u, v) for u, v in edges))
        sk = BipartitenessSketch(n, HashSource(40 + seed)).consume_batch(st_.as_batch())
        assert sk.is_bipartite() == _is_bipartite_exact(n, edges)


class TestMSTProperty:
    @common_settings
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 8),
                st.integers(0, 8),
                st.integers(1, 7),
            ).filter(lambda t: t[0] != t[1]),
            max_size=20,
        )
    )
    def test_matches_kruskal(self, data):
        n = 9
        # Deduplicate edges (keep first weight) to get atomic tokens.
        weights: dict[tuple[int, int], int] = {}
        for u, v, w in data:
            weights.setdefault((min(u, v), max(u, v)), w)
        stream = DynamicGraphStream(n)
        for (u, v), w in weights.items():
            stream.insert(u, v, copies=w)
        sk = MSTWeightSketch(n, max_weight=7, source=HashSource(41)).consume_batch(
            stream.as_batch()
        )
        uf = UnionFind(n)
        truth = 0.0
        for (u, v), w in sorted(weights.items(), key=lambda kv: kv[1]):
            if uf.union(u, v):
                truth += w
        assert sk.estimate() == truth


class TestCutQueryProperty:
    @common_settings
    @given(edges=edge_sets, side_bits=st.integers(1, 2**10 - 2))
    def test_matches_exact_cut(self, edges, side_bits):
        n = 10
        side = {v for v in range(n) if (side_bits >> v) & 1}
        if not side or len(side) == n:
            return
        stream = DynamicGraphStream(n, (EdgeUpdate(u, v) for u, v in edges))
        sk = CutEdgesSketch(n, k=30, source=HashSource(42)).consume_batch(stream.as_batch())
        exact = {
            (u, v): 1 for u, v in edges if (u in side) != (v in side)
        }
        try:
            assert sk.crossing_edges(side) == exact
        except RecoveryFailed:
            # Only acceptable when the cut genuinely exceeds capacity.
            assert len(exact) > 30


class TestStreamIOProperty:
    @common_settings
    @given(
        tokens=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(0, 7),
                st.integers(-9, 9),
            ).filter(lambda t: t[0] != t[1] and t[2] != 0),
            max_size=30,
        )
    )
    def test_round_trip_identity(self, tokens):
        stream = DynamicGraphStream(
            8, (EdgeUpdate(u, v, d) for u, v, d in tokens)
        )
        restored = loads_stream(dumps_stream(stream))
        assert restored.n == stream.n
        assert list(restored) == list(stream)
