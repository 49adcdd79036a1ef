"""E1 — MINCUT (Fig. 1, Theorems 3.2/3.6).

Regenerates the E1 table (estimate vs exact min cut across workloads)
and times the two phases of the algorithm: the single streaming pass
(sketch updates) and the post-processing (witness extraction +
Stoer–Wagner per level).
"""

from __future__ import annotations

from conftest import run_table_once

from repro.core import MinCutSketch
from repro.eval import make_workload
from repro.hashing import HashSource


def test_e1_table(benchmark, seed):
    """Regenerate and print the E1 table; sanity-check its shape."""
    table = run_table_once(benchmark, "e1", seed)
    assert table.rows, "experiment produced no rows"
    for row in table.rows:
        rel_err = row[6]
        assert rel_err <= 0.5, f"min cut estimate outside (1±ε): {row}"


def test_bench_stream_pass(benchmark, seed):
    """Time the streaming pass (all sketch updates for the stream)."""
    wl = make_workload("dumbbell", seed=seed)

    def run():
        MinCutSketch(
            wl.graph.n, epsilon=0.5, source=HashSource(seed), c_k=1.0
        ).consume_batch(wl.stream.as_batch())

    benchmark(run)


def test_bench_postprocess(benchmark, seed):
    """Time post-processing only (Fig. 1 step 3) on a prepared sketch."""
    wl = make_workload("dumbbell", seed=seed)
    sketch = MinCutSketch(
        wl.graph.n, epsilon=0.5, source=HashSource(seed), c_k=1.0
    ).consume_batch(wl.stream.as_batch())
    benchmark(sketch.estimate)
