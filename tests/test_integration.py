"""Integration tests: full pipelines across modules, end to end.

Each test exercises a complete paper workflow: stream → sketch →
post-process → verify against exact computation, including the
distributed and derandomised deployment stories of Sections 1.1 / 3.4.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    TRIANGLE,
    BaswanaSenSpanner,
    MinCutSketch,
    SimpleSparsification,
    Sparsification,
    SubgraphSketch,
    cut_approximation_report,
    encoding_class,
)
from repro.graphs import (
    Graph,
    gamma_exact,
    global_min_cut_value,
    measure_stretch,
)
from repro.hashing import HashSource, NisanPRG
from repro.sketch import L0SamplerBank
from repro.streams import (
    churn_stream,
    dumbbell_graph,
    erdos_renyi_graph,
    planted_partition_graph,
)


class TestEndToEndPipelines:
    def test_mincut_pipeline_on_planted_partition(self, source):
        n = 24
        edges = planted_partition_graph(n, 0.8, 0.1, seed=1)
        g = Graph.from_edges(n, edges)
        truth = global_min_cut_value(g)
        st = churn_stream(n, edges, seed=2)
        res = MinCutSketch(n, epsilon=0.5, source=source.derive(1)).consume_batch(
            st.as_batch()
        ).estimate()
        assert res.value == pytest.approx(truth, rel=0.5)

    def test_sparsifier_then_mincut_composition(self, source):
        """A sparsifier must preserve the min cut — compose the two results."""
        n = 22
        edges = erdos_renyi_graph(n, 0.7, seed=3)
        g = Graph.from_edges(n, edges)
        st = churn_stream(n, edges, seed=4)
        sp = SimpleSparsification(
            n, source=source.derive(2), c_k=0.4
        ).consume_batch(st.as_batch()).sparsifier()
        lam_g = global_min_cut_value(g)
        lam_h = global_min_cut_value(sp.graph)
        assert lam_h == pytest.approx(lam_g, rel=0.6)

    def test_all_sketches_one_stream(self, source):
        """Single pass, four different sketches fed the same tokens."""
        n = 20
        edges = erdos_renyi_graph(n, 0.4, seed=5)
        g = Graph.from_edges(n, edges)
        st = churn_stream(n, edges, seed=6)

        mc = MinCutSketch(n, source=source.derive(3))
        sp = SimpleSparsification(n, source=source.derive(4), c_k=0.3)
        sub = SubgraphSketch(n, order=3, samplers=64, source=source.derive(5))
        for upd in st:
            mc.update(upd)
            sp.update(upd)
            sub.update(upd)

        assert mc.estimate().value == pytest.approx(
            global_min_cut_value(g), rel=0.6
        )
        rep = cut_approximation_report(g, sp.sparsifier(), sample_cuts=100)
        assert rep.max_relative_error < 1.0
        est = sub.estimate(TRIANGLE)
        assert abs(
            est.gamma - gamma_exact(g, encoding_class(TRIANGLE), 3)
        ) < 0.15

    def test_distributed_three_site_deployment(self, source):
        """Partition → per-site sketches → merge → identical answers."""
        n = 18
        edges = erdos_renyi_graph(n, 0.5, seed=7)
        st = churn_stream(n, edges, seed=8)
        direct = Sparsification(n, source=source.derive(6)).consume_batch(st.as_batch())
        merged = Sparsification(n, source=source.derive(6))
        for part in st.partition(3, seed=9):
            merged.merge(Sparsification(n, source=source.derive(6)).consume_batch(part.as_batch()))
        assert sorted(direct.sparsifier().graph.weighted_edges()) == sorted(
            merged.sparsifier().graph.weighted_edges()
        )

    def test_adaptive_spanner_over_dynamic_stream(self, source):
        n = 25
        edges = erdos_renyi_graph(n, 0.35, seed=10)
        g = Graph.from_edges(n, edges)
        st = churn_stream(n, edges, seed=11)
        rep = BaswanaSenSpanner(n, k=3, source=source.derive(7)).build(st)
        sr = measure_stretch(g, rep.spanner)
        assert sr.disconnected_pairs == 0
        assert sr.max_stretch <= 5

    def test_dumbbell_stress_all_results(self, source):
        """The motivating example: a fragile cut under heavy churn."""
        clique, bridges = 8, 2
        n = 2 * clique
        edges = dumbbell_graph(clique, bridges)
        st = churn_stream(n, edges, churn_fraction=0.8, decoy_fraction=1.0,
                          seed=12)
        res = MinCutSketch(n, source=source.derive(8)).consume_batch(st.as_batch()).estimate()
        assert res.value == bridges

    def test_derandomised_l0_pipeline(self, source):
        """Section 3.4: the sampler driven by Nisan-PRG bits still works."""
        prg = NisanPRG(20, source.derive(9))

        class PrgSource:
            def derive(self, *labels):
                return self

            def levels(self, x, max_level):
                return prg.levels(x, max_level)

            def bucket(self, x, buckets):
                return prg.bucket(x, buckets)

            def hash64(self, x):
                return prg.hash64(x)

            seed = 0

        sampler = L0SamplerBank(1, 1, 500, PrgSource())
        support = {10: 1, 200: 2, 499: 3}
        for i, v in support.items():
            sampler.update(np.array([0]), np.array([0]), np.array([i]), np.array([v]))
        i, v = sampler.sample(0, 0)
        assert support[i] == v

    def test_order_invariance_of_full_pipeline(self, source):
        """Sketches of shuffled vs sorted streams are identical (§3.4)."""
        n = 16
        edges = erdos_renyi_graph(n, 0.4, seed=13)
        st = churn_stream(n, edges, seed=14)
        a = SubgraphSketch(n, order=3, samplers=16, source=source.derive(10))
        b = SubgraphSketch(n, order=3, samplers=16, source=source.derive(10))
        a.consume_batch(st.shuffled(seed=15).as_batch())
        b.consume_batch(st.sorted_by_edge().as_batch())
        assert (a.bank.bank.phi == b.bank.bank.phi).all()
        assert (a.bank.bank.fp1 == b.bank.bank.fp1).all()

    def test_quickstart_example_runs(self):
        """The README quickstart, verbatim."""
        from repro import (
            DynamicGraphStream,
            HashSource,
            MinCutSketch,
        )

        stream = DynamicGraphStream(n=8)
        stream.insert(0, 1)
        stream.insert(1, 2)
        stream.insert(2, 3)
        stream.insert(0, 3)
        stream.insert(4, 5)
        stream.delete(4, 5)
        sketch = MinCutSketch(8, epsilon=0.5, source=HashSource(42))
        sketch.consume_batch(stream.as_batch())
        assert sketch.estimate().value == 0  # nodes 4..7 are isolated
