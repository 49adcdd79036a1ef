"""Failure-injection and adversarial-input tests.

The probabilistic machinery must fail *honestly*: undersized sketches
may return FAIL, but must not return wrong answers; preconditions the
paper states (simple final graphs for §4) must be detected when
violated; extreme churn must leave no residue.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    TRIANGLE,
    CutEdgesSketch,
    MinCutSketch,
    SpanningForestSketch,
    SubgraphSketch,
)
from repro.errors import RecoveryFailed, SamplerFailed
from repro.graphs import Graph
from repro.hashing import HashSource
from repro.sketch import L0SamplerBank, SparseRecoveryBank
from repro.streams import (
    DynamicGraphStream,
    complete_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
    stream_from_edges,
)


class TestExtremeChurn:
    def test_repeated_insert_delete_leaves_no_residue(self, source):
        """1000 insert/delete rounds on one edge: sketch must end zero."""
        n = 6
        st = DynamicGraphStream(n)
        for _ in range(1000):
            st.insert(0, 1)
            st.delete(0, 1)
        sk = SpanningForestSketch(n, source.derive(1)).consume_batch(st.as_batch())
        assert sk.spanning_forest() == []
        assert all(sk.bank.is_zero(0, v) for v in range(n))

    def test_everything_churns_final_graph_survives(self, source):
        """Insert the clique, delete all of it, re-insert a path."""
        n = 10
        st = DynamicGraphStream(n)
        for u, v in complete_graph(n):
            st.insert(u, v)
        for u, v in complete_graph(n):
            st.delete(u, v)
        for u, v in path_graph(n):
            st.insert(u, v)
        sk = SpanningForestSketch(n, source.derive(2)).consume_batch(st.as_batch())
        forest = sk.spanning_forest()
        assert len(forest) == n - 1
        path_edges = set(path_graph(n))
        assert all((u, v) in path_edges for u, v, _ in forest)

    def test_high_multiplicity_cancellation(self, source):
        n = 5
        st = DynamicGraphStream(n)
        st.insert(0, 1, copies=10**6)
        st.delete(0, 1, copies=10**6 - 1)
        sk = SpanningForestSketch(n, source.derive(3)).consume_batch(st.as_batch())
        assert sk.spanning_forest() == [(0, 1, 1)]

    def test_mincut_under_total_rebuild(self, source):
        """Graph torn down and rebuilt differently: only the final state counts."""
        n = 10
        st = DynamicGraphStream(n)
        for u, v in complete_graph(n):
            st.insert(u, v)
        for u, v in complete_graph(n):
            st.delete(u, v)
        for u, v in star_graph(n):
            st.insert(u, v)
        res = MinCutSketch(n, source=source.derive(4)).consume_batch(st.as_batch()).estimate()
        assert res.value == 1  # star has min cut 1


class TestHonestFailure:
    def test_undersized_sampler_fails_not_lies(self, source):
        """rows=1, buckets=1: failures allowed, wrong samples are not."""
        domain = 1000
        support = {i * 13 + 1: 1 for i in range(100)}
        wrong = 0
        fails = 0
        for trial in range(50):
            bank = L0SamplerBank(
                families=1, samplers=1, domain=domain,
                source=source.derive(10, trial), rows=1, buckets=1,
            )
            items = np.asarray(list(support))
            bank.update(
                np.zeros(items.size, dtype=int), np.zeros(items.size, dtype=int),
                items, np.ones(items.size, dtype=int),
            )
            try:
                i, v = bank.sample(0, 0)
                if support.get(i) != v:
                    wrong += 1
            except SamplerFailed:
                fails += 1
        assert wrong == 0, "sampler must never return a non-support element"
        assert fails > 0, "this configuration should exhibit failures"

    def test_undersized_recovery_fails_not_lies(self, source):
        wrong = 0
        failed = 0
        for trial in range(50):
            sr = SparseRecoveryBank(1, 1, 10_000, k=2, source=source.derive(11, trial))
            items = np.arange(trial * 7, trial * 7 + 20)
            zero = np.zeros_like(items)
            sr.update(zero, zero, items, np.ones(20, dtype=int))
            try:
                decoded = sr.decode(0, 0)
                if decoded != {int(i): 1 for i in items}:
                    wrong += 1
            except RecoveryFailed:
                failed += 1
        assert wrong == 0, "recovery must never return a wrong vector"
        assert failed >= 45, "support 10x beyond capacity should mostly FAIL"

    def test_cut_query_beyond_k_raises_not_truncates(self, source):
        n = 12
        sk = CutEdgesSketch(n, k=2, source=source.derive(12)).consume_batch(
            stream_from_edges(n, star_graph(n)).as_batch()
        )
        # Centre cut crosses 11 > 2 edges.
        with pytest.raises(RecoveryFailed):
            sk.crossing_edges({0})
        # Leaf cuts (1 edge) still answer fine.
        assert sk.crossing_edges({5}) == {(0, 5): 1}


class TestPreconditionViolations:
    def test_subgraph_sketch_detects_multigraph(self, source):
        """§4 needs a simple final graph; multiplicity 2 must be flagged.

        A doubled edge contributes ``2·2^pos``; when the third vertex of
        a column is *below* both endpoints the pair sits at the top row
        (pos = 2 for k = 3) and the column value ``8`` falls outside the
        3-bit binary encodings — detectably invalid.  (Doubled edges can
        also alias to *valid* wrong encodings at lower rows; that is the
        documented limit of the precondition check.)
        """
        n = 8
        st = DynamicGraphStream(n)
        st.insert(6, 7, copies=2)  # every {w,6,7} column gets value 8
        sk = SubgraphSketch(n, order=3, samplers=64, source=source.derive(13))
        sk.consume_batch(st.as_batch())
        est = sk.estimate(TRIANGLE)
        assert est.invalid_encodings > 0

    def test_stream_universe_guard_everywhere(self, source):
        big = DynamicGraphStream(20)
        big.insert(0, 19)
        for sketch in (
            SpanningForestSketch(10, source.derive(14)),
            MinCutSketch(10, source=source.derive(15)),
            CutEdgesSketch(10, k=3, source=source.derive(16)),
            SubgraphSketch(10, order=3, samplers=4, source=source.derive(17)),
        ):
            with pytest.raises(ValueError):
                sketch.consume_batch(big.as_batch())


class TestSeedSensitivity:
    def test_different_seeds_different_cells_same_answers(self, source):
        n = 14
        edges = erdos_renyi_graph(n, 0.4, seed=5)
        st = stream_from_edges(n, edges)
        g = Graph.from_edges(n, edges)
        from repro.graphs import connected_components

        want = len(connected_components(g))
        cells = []
        for seed in range(5):
            sk = SpanningForestSketch(n, HashSource(seed)).consume_batch(st.as_batch())
            assert len(sk.connected_components()) == want
            cells.append(sk.bank.bank.phi.copy())
        # The cell contents must differ across seeds (different hashes).
        assert any((cells[0] != c).any() for c in cells[1:])

    def test_merge_rejects_cross_seed(self):
        a = SpanningForestSketch(8, HashSource(1))
        b = SpanningForestSketch(8, HashSource(2))
        # Same shape, different seeds: merging would corrupt silently if
        # allowed on the bank level, so the banks must share z1/z2 — they
        # do not, and CellBank.merge refuses.
        with pytest.raises(ValueError):
            a.bank.merge(b.bank)
