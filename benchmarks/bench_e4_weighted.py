"""E4 — weighted sparsification (§3.5, Theorem 3.8).

Regenerates the weight-class table and times the class-routing stream
pass against the per-class post-processing.
"""

from __future__ import annotations

from conftest import run_table_once

from repro.core import WeightedSparsification
from repro.eval import make_workload
from repro.hashing import HashSource


def test_e4_table(benchmark, seed):
    """Regenerate and print the E4 table; quality must be within ε-ish."""
    table = run_table_once(benchmark, "e4", seed)
    for row in table.rows:
        assert row[5] <= 1.0, f"weighted cut error out of range: {row}"


def test_bench_stream_pass(benchmark, seed):
    wl = make_workload("weighted", seed=seed)

    def run():
        WeightedSparsification(
            wl.graph.n, max_weight=16, epsilon=0.5,
            source=HashSource(seed), c_k=0.3,
        ).consume_batch(wl.stream.as_batch())

    benchmark(run)


def test_bench_postprocess(benchmark, seed):
    wl = make_workload("weighted", seed=seed)
    sk = WeightedSparsification(
        wl.graph.n, max_weight=16, epsilon=0.5,
        source=HashSource(seed), c_k=0.3,
    ).consume_batch(wl.stream.as_batch())
    benchmark(sk.sparsifier)
