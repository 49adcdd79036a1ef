"""E5 — induced subgraphs (§4, Theorem 4.1).

Regenerates the γ_H accuracy table (sketch vs exact vs insert-only
Buriol baseline) and times the per-edge column-update cost — the
honest price of the tiny sketch — for k = 3 (vectorised) and k = 4
(generic path), the vectorisation ablation DESIGN.md calls out.
"""

from __future__ import annotations

from conftest import run_table_once

from repro.core import TRIANGLE, SubgraphSketch
from repro.eval import make_workload
from repro.hashing import HashSource


def test_e5_table(benchmark, seed):
    """Regenerate and print the E5 table; additive errors must be small."""
    table = run_table_once(benchmark, "e5", seed)
    sketch_rows = [r for r in table.rows if r[1] in ("triangle", "path3")]
    for row in sketch_rows:
        assert row[5] <= 0.2, f"γ additive error too large: {row}"


def test_bench_stream_pass_k3(benchmark, seed):
    """Vectorised k=3 update path."""
    wl = make_workload("triangles", seed=seed)

    def run():
        SubgraphSketch(
            wl.graph.n, order=3, samplers=64, source=HashSource(seed)
        ).consume_batch(wl.stream.as_batch())

    benchmark(run)


def test_bench_stream_pass_k4(benchmark, seed):
    """Generic-k update path (ablation vs the k=3 fast path)."""
    wl = make_workload("er-small", seed=seed)

    def run():
        SubgraphSketch(
            wl.graph.n, order=4, samplers=16, source=HashSource(seed)
        ).consume_batch(wl.stream.as_batch())

    benchmark(run)


def test_bench_estimate(benchmark, seed):
    wl = make_workload("triangles", seed=seed)
    sk = SubgraphSketch(
        wl.graph.n, order=3, samplers=128, source=HashSource(seed)
    ).consume_batch(wl.stream.as_batch())
    benchmark(sk.estimate, TRIANGLE)
