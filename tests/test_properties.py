"""Property-based tests (hypothesis) on the library's core invariants.

These target the *exact* algebraic properties the paper's machinery
rests on — linearity, order-invariance, support membership, recovery
exactness, Gomory–Hu agreement — under adversarially generated inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RecoveryFailed, SamplerFailed
from repro.graphs import (
    Graph,
    MaxFlow,
    brute_force_min_cut,
    gomory_hu_tree,
    sparse_certificate,
    stoer_wagner,
)
from repro.hashing import HashSource
from repro.sketch import CellBank, L0SamplerBank, SparseRecoveryBank, decode_cells
from repro.streams import DynamicGraphStream, EdgeUpdate
from repro.util import pair_rank, pair_unrank, subset_rank, subset_unrank

# Compact update strategy: (index, delta) pairs over a small domain.
updates_strategy = st.lists(
    st.tuples(st.integers(0, 199), st.integers(-5, 5).filter(lambda d: d != 0)),
    min_size=0,
    max_size=60,
)

common_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _vector_of(updates: list[tuple[int, int]]) -> dict[int, int]:
    acc: dict[int, int] = {}
    for i, d in updates:
        acc[i] = acc.get(i, 0) + d
        if acc[i] == 0:
            del acc[i]
    return acc


def _apply(bank, updates: list[tuple[int, int]]) -> None:
    """Feed ``(index, delta)`` updates one at a time into a one-row bank."""
    zero = np.zeros(1, dtype=np.int64)
    for i, d in updates:
        bank.update(zero, zero, np.array([i]), np.array([d]))


def _cells(sampler: L0SamplerBank) -> tuple[list[int], ...]:
    cells = sampler.bank
    return (
        cells.phi.tolist(), cells.iota.tolist(),
        cells.fp1.tolist(), cells.fp2.tolist(),
    )


class TestSketchProperties:
    @common_settings
    @given(updates=updates_strategy)
    def test_onesparse_decodes_iff_one_sparse(self, updates):
        cell = CellBank(1, 200, HashSource(1).derive(7))
        for i, d in updates:
            cell.scatter(np.array([0]), np.array([i]), np.array([d]))
        truth = _vector_of(updates)
        ok, index, value = decode_cells(
            cell.phi, cell.iota, cell.fp1, cell.fp2, 200, cell.z1, cell.z2
        )
        decoded = (int(index[0]), int(value[0])) if ok[0] else None
        if len(truth) == 1:
            ((i, v),) = truth.items()
            assert decoded == (i, v)
        elif len(truth) == 0:
            assert decoded is None
            assert not (cell.phi.any() or cell.iota.any()
                        or cell.fp1.any() or cell.fp2.any())
        else:
            # Fingerprints make false accepts essentially impossible.
            assert decoded is None

    @common_settings
    @given(updates=updates_strategy)
    def test_l0_sample_is_support_member(self, updates):
        s = L0SamplerBank(1, 1, 200, HashSource(2).derive(3))
        _apply(s, updates)
        truth = _vector_of(updates)
        try:
            i, v = s.sample(0, 0)
        except SamplerFailed as exc:
            if not truth:
                assert exc.vector_is_zero
            return
        assert truth.get(i) == v

    @common_settings
    @given(updates=updates_strategy, split=st.integers(0, 60))
    def test_l0_linearity_merge_equals_concat(self, updates, split):
        a = L0SamplerBank(1, 1, 200, HashSource(3).derive(1))
        b = L0SamplerBank(1, 1, 200, HashSource(3).derive(1))
        c = L0SamplerBank(1, 1, 200, HashSource(3).derive(1))
        _apply(a, updates[:split])
        _apply(b, updates[split:])
        _apply(c, updates)
        a.merge(b)
        # Compare every cell of the merged and direct sketches.
        assert _cells(a) == _cells(c)

    @common_settings
    @given(updates=updates_strategy)
    def test_l0_order_invariance(self, updates):
        a = L0SamplerBank(1, 1, 200, HashSource(4).derive(1))
        b = L0SamplerBank(1, 1, 200, HashSource(4).derive(1))
        _apply(a, updates)
        _apply(b, list(reversed(updates)))
        assert _cells(a) == _cells(b)

    @common_settings
    @given(updates=updates_strategy)
    def test_sparse_recovery_exact_or_honest(self, updates):
        """Theorem 2.2 contract: never wrong; FAIL only with small probability.

        The guarantee is over the *hash randomness*, so a fixed seed
        admits adversarial inputs (hypothesis will find all-rows
        collisions).  Accordingly: any successful decode must be exact,
        and a FAIL on a ≤ k support must disappear under reseeding.
        """
        truth = _vector_of(updates)
        failures = 0
        for attempt in range(4):
            sr = SparseRecoveryBank(
                1, 1, 200, 12, HashSource(5).derive(2, attempt)
            )
            _apply(sr, updates)
            try:
                decoded = sr.decode(0, 0)
            except RecoveryFailed:
                failures += 1
                continue
            # Any reported answer must be the exact vector, within cap.
            assert decoded == truth
            assert len(decoded) <= 12
        if len(truth) <= 12:
            assert failures < 4, "every seed failed on a recoverable vector"
        # Over-capacity supports may legitimately FAIL on every seed; the
        # in-loop assertions already forbid wrong successes.


class TestRankingProperties:
    @common_settings
    @given(
        n=st.integers(2, 60),
        data=st.data(),
    )
    def test_pair_rank_bijection(self, n, data):
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1).filter(lambda x: x != u))
        r = pair_rank(u, v, n)
        assert 0 <= r < n * (n - 1) // 2
        assert pair_unrank(r, n) == (min(u, v), max(u, v))

    @common_settings
    @given(n=st.integers(3, 20), k=st.integers(2, 5), data=st.data())
    def test_subset_rank_bijection(self, n, k, data):
        if k > n:
            return
        subset = tuple(
            sorted(
                data.draw(
                    st.sets(st.integers(0, n - 1), min_size=k, max_size=k)
                )
            )
        )
        assert subset_unrank(subset_rank(subset, n), n, k) == subset


graph_strategy = st.builds(
    lambda n, pairs: (n, [(u % n, v % n) for u, v in pairs if u % n != v % n]),
    st.integers(4, 10),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25),
)


class TestGraphProperties:
    @common_settings
    @given(graph_strategy)
    def test_stoer_wagner_matches_brute_force(self, spec):
        n, edges = spec
        g = Graph.from_edges(n, edges) if edges else Graph(n)
        sw, _ = stoer_wagner(g)
        bf, _ = brute_force_min_cut(g)
        assert sw == pytest.approx(bf)

    @common_settings
    @given(graph_strategy)
    def test_gomory_hu_matches_maxflow(self, spec):
        n, edges = spec
        g = Graph.from_edges(n, edges) if edges else Graph(n)
        tree = gomory_hu_tree(g)
        flow = MaxFlow(g)
        for u in range(n):
            for v in range(u + 1, n):
                assert tree.min_cut_value(u, v) == pytest.approx(
                    flow.max_flow(u, v)
                )

    @common_settings
    @given(graph_strategy, st.integers(1, 4))
    def test_certificate_preserves_cuts_up_to_k(self, spec, k):
        n, edges = spec
        g = Graph.from_edges(n, edges) if edges else Graph(n)
        cert = sparse_certificate(g, k)
        cut_g, _ = stoer_wagner(g)
        cut_h, _ = stoer_wagner(cert)
        assert min(cut_h, k) == pytest.approx(min(cut_g, k))


class TestStreamProperties:
    @common_settings
    @given(
        tokens=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(0, 7),
                st.integers(-3, 3),
            ).filter(lambda t: t[0] != t[1] and t[2] != 0),
            max_size=40,
        )
    )
    def test_multiplicities_order_invariant(self, tokens):
        a = DynamicGraphStream(8, (EdgeUpdate(u, v, d) for u, v, d in tokens))
        b = a.shuffled(seed=3)
        c = a.sorted_by_edge()
        try:
            ma = a.multiplicities()
        except Exception:
            return  # negative aggregates: nothing to compare
        assert b.multiplicities() == ma
        assert c.multiplicities() == ma

    @common_settings
    @given(
        tokens=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=40,
        ),
        sites=st.integers(1, 5),
    )
    def test_partition_is_lossless(self, tokens, sites):
        stream = DynamicGraphStream(8, (EdgeUpdate(u, v) for u, v in tokens))
        parts = stream.partition(sites, seed=1)
        total = sum(len(p) for p in parts)
        assert total == len(stream)
