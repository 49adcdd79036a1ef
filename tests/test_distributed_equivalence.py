"""Cross-shard equivalence harness (PAPER.md §1.1).

The contract of multi-site sketching: for *every* sketch class, *every*
partition strategy, and *every* shard count, the coordinator's merged
sketch is **byte-identical** to a single-site sketch of the full
stream.  Linearity makes this exact — not approximate — so the harness
compares serialised bytes, which pins cell arrays, parameters, and
seeds all at once.

The workload streams contain deletions, and for the position-based
strategies the harness verifies that insert/delete pairs of the same
edge really do land on different shards — the case a non-linear
summary would get wrong.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import (
    BaswanaSenSpanner,
    BipartitenessSketch,
    CutEdgesSketch,
    EdgeConnectivitySketch,
    MinCutSketch,
    MSTWeightSketch,
    SimpleSparsification,
    Sparsification,
    SpanningForestSketch,
    SubgraphSketch,
    WeightedSparsification,
)
from repro.distributed import (
    PARTITION_STRATEGIES,
    ShardedSketchRunner,
    partition_batch,
    partition_stream,
    partition_stream_by,
    shard_assignment,
)
from repro.errors import StreamError
from repro.hashing import HashSource
from repro.sketch import dump_sketch
from repro.streams import (
    DynamicGraphStream,
    churn_stream,
    erdos_renyi_graph,
    random_weighted_edges,
    weighted_churn_stream,
)

N = 12
SITE_COUNTS = (1, 2, 3, 7)


@pytest.fixture(scope="module")
def stream() -> DynamicGraphStream:
    """Unweighted churny stream: every edge inserted, many churned."""
    st = churn_stream(
        N, erdos_renyi_graph(N, 0.4, seed=5), churn_fraction=0.6, seed=6
    )
    assert any(u.delta < 0 for u in st), "harness needs deletions"
    return st


@pytest.fixture(scope="module")
def weighted_stream() -> DynamicGraphStream:
    """Weight-atomic churny stream for the weighted consumers."""
    return weighted_churn_stream(
        N, random_weighted_edges(N, 0.4, 3, seed=7), churn_fraction=0.6,
        seed=8,
    )


def _forest_n(n, seed):
    return SpanningForestSketch(n, HashSource(seed))


def _forest(seed):
    return _forest_n(N, seed)


def _edge_connect(seed):
    return EdgeConnectivitySketch(N, 3, HashSource(seed))


def _mincut(seed):
    return MinCutSketch(N, epsilon=0.5, source=HashSource(seed), c_k=0.4)


def _simple_sparsify(seed):
    return SimpleSparsification(
        N, epsilon=0.5, source=HashSource(seed), c_k=0.15
    )


def _sparsify(seed):
    return Sparsification(
        N, epsilon=0.5, source=HashSource(seed), c_k=0.3, c_rough=0.05
    )


def _weighted(seed):
    return WeightedSparsification(
        N, max_weight=3, epsilon=0.5, source=HashSource(seed), c_k=0.15
    )


def _subgraph(seed):
    return SubgraphSketch(N, order=3, samplers=8, source=HashSource(seed))


def _cut_edges(seed):
    return CutEdgesSketch(N, k=8, source=HashSource(seed))


def _bipartite(seed):
    return BipartitenessSketch(N, HashSource(seed))


def _mst(seed):
    return MSTWeightSketch(N, max_weight=3, source=HashSource(seed))


#: (name, factory maker, needs weighted stream) — every serialisable class.
SKETCH_CASES = [
    ("spanning_forest", _forest, False),
    ("edge_connectivity", _edge_connect, False),
    ("mincut", _mincut, False),
    ("simple_sparsification", _simple_sparsify, False),
    ("sparsification", _sparsify, False),
    ("weighted_sparsification", _weighted, True),
    ("subgraph_count", _subgraph, False),
    ("cut_edges", _cut_edges, False),
    ("bipartiteness", _bipartite, False),
    ("mst_weight", _mst, True),
]


class TestShardCountInvariance:
    @pytest.mark.parametrize(
        "name,maker,weighted", SKETCH_CASES, ids=[c[0] for c in SKETCH_CASES]
    )
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_merged_equals_single_site(
        self, name, maker, weighted, strategy, stream, weighted_stream
    ):
        st = weighted_stream if weighted else stream
        case_index = [c[0] for c in SKETCH_CASES].index(name)
        factory = functools.partial(maker, 1000 + case_index)
        reference = dump_sketch(factory().consume_batch(st.as_batch()))
        for sites in SITE_COUNTS:
            report = ShardedSketchRunner(
                factory, sites=sites, strategy=strategy, seed=3
            ).run(st)
            assert dump_sketch(report.sketch) == reference, (
                f"{name}: coordinator sketch differs from single-site at "
                f"K={sites}, strategy={strategy}"
            )
            assert sum(s.tokens for s in report.sites) == len(st)

    @pytest.mark.parametrize("strategy", ["round-robin", "contiguous"])
    def test_deletions_cross_shard_boundaries(self, strategy, stream):
        """Position-based strategies split an edge's insert/delete pair."""
        batch = stream.as_batch()
        assignment = shard_assignment(batch, 2, strategy, seed=3)
        split_edges = 0
        for rank in np.unique(batch.ranks[batch.delta < 0]):
            sites = set(assignment[batch.ranks == rank].tolist())
            if len(sites) > 1:
                split_edges += 1
        assert split_edges > 0, (
            f"{strategy} never separated an insert from its deletion — "
            "the harness would not be exercising cross-shard cancellation"
        )

    def test_edge_keyed_strategies_keep_edges_local(self, stream):
        """hash-edge routes all tokens of one edge to one site."""
        batch = stream.as_batch()
        assignment = shard_assignment(batch, 3, "hash-edge", seed=3)
        for rank in np.unique(batch.ranks):
            sites = set(assignment[batch.ranks == rank].tolist())
            assert len(sites) == 1


class TestShardedSpanner:
    def test_spanner_identical_for_all_shard_counts(self, stream):
        direct = BaswanaSenSpanner(N, k=2, source=HashSource(77)).build(stream)
        for sites in SITE_COUNTS:
            shards = partition_stream(stream, sites, "round-robin")
            rep = BaswanaSenSpanner(
                N, k=2, source=HashSource(77)
            ).build_sharded(shards)
            assert sorted(rep.spanner.edges()) == sorted(direct.spanner.edges())
            if sites > 1:
                assert rep.shipped_bytes > 0
            else:
                assert rep.shipped_bytes == 0


class TestRandomizedPartitions:
    def test_merge_invariance_over_random_assignments(self):
        """Random streams, random shard maps — 20+ seeds, exact equality."""
        for seed in range(24):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 16))
            edges = erdos_renyi_graph(n, 0.45, seed=seed)
            if not edges:
                continue
            st = churn_stream(
                n, edges, churn_fraction=0.7, decoy_fraction=0.5, seed=seed
            )
            sites = int(rng.integers(2, 6))
            assignment = rng.integers(0, sites, size=len(st))
            shards = partition_stream_by(st, assignment, sites)
            assert sum(len(s) for s in shards) == len(st)

            factory = functools.partial(_forest_n, n, 4000 + seed)
            direct = dump_sketch(factory().consume_batch(st.as_batch()))
            runner = ShardedSketchRunner(factory, sites=sites)
            merged = dump_sketch(runner.run_shards(shards).sketch)
            assert merged == direct, f"seed {seed} broke merge-invariance"

    def test_partition_stream_by_validates(self):
        st = churn_stream(8, erdos_renyi_graph(8, 0.5, seed=1), seed=2)
        with pytest.raises(StreamError):
            partition_stream_by(st, np.zeros(len(st) + 1, dtype=np.int64), 2)
        with pytest.raises(StreamError):
            partition_stream_by(st, np.full(len(st), 5, dtype=np.int64), 2)


class TestPartitionBasics:
    def test_unknown_strategy_rejected(self, stream):
        with pytest.raises(StreamError):
            shard_assignment(stream.as_batch(), 2, "no-such-strategy")

    def test_bad_site_count_rejected(self, stream):
        with pytest.raises(StreamError):
            shard_assignment(stream.as_batch(), 0, "round-robin")

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_partition_batch_is_exhaustive(self, strategy, stream):
        batch = stream.as_batch()
        parts = partition_batch(batch, 3, strategy, seed=1)
        assert sum(len(p) for p in parts) == len(batch)

    def test_process_mode_matches_sequential(self, stream):
        factory = functools.partial(_forest, 909)
        seq = ShardedSketchRunner(factory, sites=3, mode="sequential")
        with ShardedSketchRunner(factory, sites=3, mode="process") as par:
            assert dump_sketch(seq.run(stream).sketch) == dump_sketch(
                par.run(stream).sketch
            )


class TestProcessModeEquivalence:
    """Shared-memory process mode against the single-site reference.

    The same contract as :class:`TestShardCountInvariance`, but through
    the persistent-pool shared-memory path: every sketch kind, every
    partition strategy, one warm runner per kind (``run(st,
    strategy=...)`` re-targets a live pool, so the matrix also proves
    strategy changes never require a respawn).
    """

    @pytest.mark.parametrize(
        "name,maker,weighted", SKETCH_CASES, ids=[c[0] for c in SKETCH_CASES]
    )
    def test_shm_merged_equals_single_site(
        self, name, maker, weighted, stream, weighted_stream
    ):
        st = weighted_stream if weighted else stream
        case_index = [c[0] for c in SKETCH_CASES].index(name)
        factory = functools.partial(maker, 2000 + case_index)
        reference = dump_sketch(factory().consume_batch(st.as_batch()))
        with ShardedSketchRunner(
            factory, sites=3, seed=3, mode="process"
        ) as runner:
            for strategy in PARTITION_STRATEGIES:
                report = runner.run(st, strategy=strategy)
                assert dump_sketch(report.sketch) == reference, (
                    f"{name}: process-mode coordinator differs from "
                    f"single-site at K=3, strategy={strategy}"
                )
                assert report.mode == "process"
                assert sum(s.tokens for s in report.sites) == len(st)
