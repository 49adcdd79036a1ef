"""Distributed IP-flow telemetry: merge sketches across collection sites.

The Section 1.1 distributed-streams story.  An ISP observes flows
(edges between IP endpoints) at four collection points; no site sees
the whole traffic, and shipping raw streams to one place is exactly
what sketching avoids.  Because the sketches are linear, each site
summarises its own sub-stream and the coordinator *adds* the four
sketches — the result is bit-identical to sketching the union stream.

With the engine API the whole deployment is one fluent chain:
``GraphSketchEngine.for_spec(spec).sharded(sites=4).ingest(stream)``
partitions, folds each site's sub-stream into a slot of sketch cells
through the columnar path, checks every site sketch's kind, parameters
and seed against the coordinator's, and adds the slots — and
``query()`` then answers exactly as a local engine would.  The bytes
printed per site are that slot as the coordinator reads it: 16 per
nonzero cell entry, or 32 per cell once the slot is dense.

Run:  python examples/distributed_telemetry.py [--quick]
"""

from __future__ import annotations

import argparse

from repro import (
    GraphSketchEngine,
    MinCutQuery,
    SketchSpec,
    SparsifierQuery,
)
from repro.core import cut_approximation_report
from repro.graphs import Graph, global_min_cut_value
from repro.streams import churn_stream, planted_partition_graph


def main(quick: bool = False) -> None:
    n = 24 if quick else 40
    sites = 4
    # Global traffic graph: two data-centre regions, thin inter-region links.
    edges = planted_partition_graph(n, p_in=0.6, p_out=0.08, seed=3)
    global_stream = churn_stream(n, edges, churn_fraction=0.4, seed=4)
    print(f"global stream: {len(global_stream)} flow updates "
          f"(with teardowns), {global_stream.final_edge_count()} live flows")

    # One spec per question; the SAME spec would drive a local engine —
    # the seed inside it is what makes every site's measurements compatible.
    cut_engine = (GraphSketchEngine
                  .for_spec(SketchSpec.of("mincut", n, seed=0xD157 + 1))
                  .sharded(sites=sites, strategy="hash-edge")
                  .ingest(global_stream))
    for site in cut_engine.last_report.sites:
        print(f"  site {site.site}: {site.tokens} updates → "
              f"{site.payload_bytes} sketch bytes shipped")
    sparse_engine = (GraphSketchEngine
                     .for_spec(SketchSpec.of(
                         "simple_sparsification", n, seed=0xD157 + 2, c_k=0.3
                     ))
                     .sharded(sites=sites, strategy="hash-edge")
                     .ingest(global_stream))

    # Coordinator-side answers vs centralised ground truth.
    truth_graph = Graph.from_multiplicities(n, global_stream.multiplicities())
    result = cut_engine.query(MinCutQuery())
    print(f"\nweakest cut: merged-sketch={result.value} "
          f"exact={global_min_cut_value(truth_graph)}")

    sparse = sparse_engine.query(SparsifierQuery())
    report = cut_approximation_report(truth_graph, sparse.sparsifier,
                                      sample_cuts=300, seed=1)
    print(f"capacity model: {sparse.edges}/{truth_graph.num_edges()} "
          f"edges kept, max cut error {report.max_relative_error:.3f}")
    total = cut_engine.shipped_bytes + sparse_engine.shipped_bytes
    print(f"\nno raw flow ever left a site — only {total} bytes of "
          "linear sketches did.")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="sharded telemetry demo")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload for CI")
    main(quick=parser.parse_args().quick)
