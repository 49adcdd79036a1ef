"""E9 — stream-model claims (§1.1): cancellation, merging, throughput.

Regenerates the model-claims table and times the operations the model
story depends on: per-token updates, sketch merging, and the scaling of
update throughput with the sketch's round budget.
"""

from __future__ import annotations

import pytest
from conftest import run_table_once

from repro.core import SpanningForestSketch
from repro.eval import make_workload
from repro.hashing import HashSource


def test_e9_table(benchmark, seed):
    """Regenerate and print the E9 table; exactness claims must hold."""
    table = run_table_once(benchmark, "e9", seed)
    flags = {(r[0], r[2]): r[3] for r in table.rows}
    assert flags[("deletions cancel", "sketches bit-identical")]
    assert flags[("distributed merge", "merged == direct")]


def test_bench_consume_stream(benchmark, seed):
    wl = make_workload("er-small", seed=seed)

    def run():
        SpanningForestSketch(wl.graph.n, HashSource(seed)).consume_batch(wl.stream.as_batch())

    benchmark(run)


def test_bench_merge(benchmark, seed):
    wl = make_workload("er-small", seed=seed)
    a = SpanningForestSketch(wl.graph.n, HashSource(seed)).consume_batch(wl.stream.as_batch())
    b = SpanningForestSketch(wl.graph.n, HashSource(seed)).consume_batch(wl.stream.as_batch())
    benchmark(a.merge, b)


@pytest.mark.parametrize("rounds", [4, 8, 16])
def test_bench_rounds_scaling(benchmark, seed, rounds):
    """Update cost scales linearly with the sketch's round budget."""
    wl = make_workload("er-small", seed=seed)

    def run():
        SpanningForestSketch(
            wl.graph.n, HashSource(seed), rounds=rounds
        ).consume_batch(wl.stream.as_batch())

    benchmark(run)
