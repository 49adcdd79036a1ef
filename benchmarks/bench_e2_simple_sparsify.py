"""E2 — SIMPLE-SPARSIFICATION (Fig. 2, Lemma 3.2/Theorem 3.3).

Regenerates the cut-quality-vs-space table (sketch vs Karger/Fung
offline baselines) and times streaming vs post-processing, plus the
constant-scale ablation DESIGN.md calls out (c_k sweep).
"""

from __future__ import annotations

import pytest
from conftest import run_table_once

from repro.core import SimpleSparsification, cut_approximation_report
from repro.eval import make_workload
from repro.hashing import HashSource


def test_e2_table(benchmark, seed):
    """Regenerate and print the E2 table; check the error-vs-k shape."""
    table = run_table_once(benchmark, "e2", seed)
    sketch_rows = [r for r in table.rows if r[1] == "sketch"]
    assert len(sketch_rows) >= 2
    # Larger c_k (later row) must not be worse on max error.
    assert sketch_rows[-1][5] <= sketch_rows[0][5] + 1e-9


def test_bench_stream_pass(benchmark, seed):
    wl = make_workload("er-dense", seed=seed)

    def run():
        SimpleSparsification(
            wl.graph.n, epsilon=0.5, source=HashSource(seed), c_k=0.1
        ).consume_batch(wl.stream.as_batch())

    benchmark(run)


def test_bench_postprocess(benchmark, seed):
    wl = make_workload("er-dense", seed=seed)
    sk = SimpleSparsification(
        wl.graph.n, epsilon=0.5, source=HashSource(seed), c_k=0.1
    ).consume_batch(wl.stream.as_batch())
    benchmark(sk.sparsifier)


@pytest.mark.parametrize("c_k", [0.05, 0.2])
def test_bench_ck_ablation(benchmark, seed, c_k):
    """Ablation: accuracy/space constant — quality measured, build timed."""
    wl = make_workload("er-dense", seed=seed)

    def run():
        sk = SimpleSparsification(
            wl.graph.n, epsilon=0.5, source=HashSource(seed), c_k=c_k
        ).consume_batch(wl.stream.as_batch())
        return sk.sparsifier()

    sp = benchmark(run)
    rep = cut_approximation_report(wl.graph, sp, sample_cuts=100, seed=seed)
    print(f"\n[c_k={c_k}] edges={sp.num_edges} max_err="
          f"{rep.max_relative_error:.3f}")
