"""E3 — SPARSIFICATION (Fig. 3, Theorems 3.4/3.7).

Regenerates the simple-vs-better comparison table and times the three
distinctive phases of the Fig. 3 construction: the streaming pass, the
Gomory–Hu tree on the rough sparsifier, and the k-RECOVERY read-out of
all tree cuts.
"""

from __future__ import annotations

from conftest import run_table_once

from repro.core import Sparsification
from repro.eval import make_workload
from repro.graphs import gomory_hu_tree
from repro.hashing import HashSource


def test_e3_table(benchmark, seed):
    """Regenerate and print the E3 table; better must use fewer cells."""
    table = run_table_once(benchmark, "e3", seed)
    by_method = {row[1]: row for row in table.rows}
    assert by_method["better (Fig.3)"][5] < by_method["simple (Fig.2)"][5], (
        "Fig. 3 should hold fewer sketch cells than Fig. 2"
    )


def _built_sketch(seed):
    wl = make_workload("er-dense", seed=seed)
    sk = Sparsification(
        wl.graph.n, epsilon=0.5, source=HashSource(seed),
        c_k=0.3, c_rough=0.05, c_level=4.0,
    ).consume_batch(wl.stream.as_batch())
    return wl, sk


def test_bench_stream_pass(benchmark, seed):
    wl = make_workload("er-dense", seed=seed)

    def run():
        Sparsification(
            wl.graph.n, epsilon=0.5, source=HashSource(seed),
            c_k=0.3, c_rough=0.05, c_level=4.0,
        ).consume_batch(wl.stream.as_batch())

    benchmark(run)


def test_bench_gomory_hu_phase(benchmark, seed):
    """Time the Gomory–Hu tree on the rough sparsifier (step 4 input)."""
    _wl, sk = _built_sketch(seed)
    rough = sk.rough.sparsifier().graph
    benchmark(gomory_hu_tree, rough)


def test_bench_full_postprocess(benchmark, seed):
    """Time the complete step 4 (tree + recovery + assembly)."""
    _wl, sk = _built_sketch(seed)
    benchmark(sk.sparsifier)
