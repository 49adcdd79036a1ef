"""Property-based temporal equivalence harness.

The temporal contract, pinned *byte-for-byte* for every serialisable
sketch class over hypothesis-generated insert/delete streams and epoch
grids: for any epoch-aligned window ``[t1, t2)``, the following three
sketches are identical —

(a) a fresh sketch consuming only the window's tokens (direct),
(b) ``checkpoint[t2] - checkpoint[t1]`` (temporal subtraction),
(c) the same subtraction over a timeline whose checkpoints were sealed
    per-site and merged across shards (PR 2 strategies × temporal).

Linearity makes all three exact, so the harness compares serialised
bytes — cell arrays, parameters, and seeds at once.  Algebraic
identities of ``subtract``/``negate`` ride along at the bottom.

The whole module runs once per available kernel backend (the autouse
``kernel_backend`` fixture below): byte-identity across backends is the
parity contract of :mod:`repro.kernels`, and this harness is what pins
it — a backend whose kernels drift by even one residue fails here on
hypothesis-generated streams.  On a numpy-only install that is a single
pass; where numba imports, every property runs under both backends.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    ConnectivityQuery,
    CutQuery,
    GraphSketchEngine,
    KEdgeConnectivityQuery,
    MinCutQuery,
    PropertiesQuery,
    SparsifierQuery,
    SubgraphCountQuery,
    kind_of_sketch,
)
from repro.core import (
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
from repro.distributed import PARTITION_STRATEGIES, ShardedSketchRunner
from repro.errors import NotSupportedError, SketchCompatibilityError
from repro.hashing import HashSource
from repro.sketch import dump_sketch
from repro.streams import DynamicGraphStream
from repro.temporal import (
    EpochManager,
    EpochTimeline,
    materialise_window,
    window_tokens,
)

from strategies import streams_with_epochs

from repro import kernels

N = 8


@pytest.fixture(
    params=kernels.available_backends(),
    ids=lambda backend: f"kernels-{backend}",
    autouse=True,
    scope="module",
)
def kernel_backend(request):
    """Pin the parity contract: the harness repeats per kernel backend."""
    previous = kernels.backend_name()
    selected = kernels.use(request.param)
    assert selected == request.param, (
        f"backend {request.param!r} advertised as available but "
        f"selection fell back to {selected!r}"
    )
    yield selected
    kernels.use(previous)


def _forest(seed):
    return SpanningForestSketch(N, HashSource(seed))


def _edge_connect(seed):
    return EdgeConnectivitySketch(N, 2, HashSource(seed))


def _mincut(seed):
    return MinCutSketch(N, epsilon=0.5, source=HashSource(seed), c_k=0.4)


def _simple_sparsify(seed):
    return SimpleSparsification(N, epsilon=0.5, source=HashSource(seed), c_k=0.15)


def _sparsify(seed):
    return Sparsification(
        N, epsilon=0.5, source=HashSource(seed), c_k=0.3, c_rough=0.05
    )


def _weighted(seed):
    return WeightedSparsification(
        N, max_weight=2, epsilon=0.5, source=HashSource(seed), c_k=0.15
    )


def _subgraph(seed):
    return SubgraphSketch(N, order=3, samplers=6, source=HashSource(seed))


def _cut_edges(seed):
    return CutEdgesSketch(N, k=6, source=HashSource(seed))


def _bipartite(seed):
    return BipartitenessSketch(N, HashSource(seed))


def _mst(seed):
    return MSTWeightSketch(N, max_weight=2, source=HashSource(seed))


#: Cheap-to-construct classes get more hypothesis examples; the
#: hierarchy sketches (dozens of constituent banks each) get fewer —
#: the algebra they exercise is identical, only the bank count grows.
CHEAP_CASES = [
    ("spanning_forest", _forest),
    ("cut_edges", _cut_edges),
    ("subgraph_count", _subgraph),
    ("bipartiteness", _bipartite),
]
HEAVY_CASES = [
    ("edge_connectivity", _edge_connect),
    ("mst_weight", _mst),
    ("mincut", _mincut),
    ("simple_sparsification", _simple_sparsify),
    ("weighted_sparsification", _weighted),
    ("sparsification", _sparsify),
]
#: Every registry-serialisable sketch class.
SKETCH_CASES = CHEAP_CASES + HEAVY_CASES


def _stream_from(tokens: list[tuple[int, int, int]]) -> DynamicGraphStream:
    stream = DynamicGraphStream(N)
    for u, v, delta in tokens:
        if delta > 0:
            stream.insert(u, v, delta)
        else:
            stream.delete(u, v, -delta)
    return stream


def _window_pairs(epochs: int) -> list[tuple[int, int]]:
    """All windows for tiny grids, a representative sweep otherwise."""
    if epochs <= 2:
        return [(a, b) for a in range(epochs) for b in range(a + 1, epochs + 1)]
    return [(0, epochs), (epochs // 2, epochs), (1, 2), (epochs - 1, epochs)]


temporal_settings = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

heavy_settings = settings(
    max_examples=2,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _check_window_equivalence(maker, name, data, shard):
    """Shared body for the (a)/(b)/(c) byte-identity property.

    The sharded route is pinned at the checkpoint level: once the
    merged-across-sites timeline is byte-identical to the single-site
    one (epoch metadata included), window subtraction over it is the
    same computation, so only the single-site engine needs the
    per-window sweep.
    """
    tokens, boundaries = data
    strategy, sites = shard
    seed = 5000 + sum(ord(c) for c in name)
    factory = functools.partial(maker, seed)
    stream = _stream_from(tokens)
    batch = stream.as_batch()

    timeline = EpochManager.consume(factory, stream, boundaries=boundaries)
    sharded = ShardedSketchRunner(
        factory, sites=sites, strategy=strategy, seed=3
    ).run_epochs(stream, boundaries=boundaries)
    assert [c.payload for c in sharded.timeline.checkpoints] == [
        c.payload for c in timeline.checkpoints
    ], f"{name}: sharded timeline differs at K={sites}, {strategy}"

    for t1, t2 in _window_pairs(timeline.epochs):
        start = boundaries[t1 - 1] if t1 else 0
        direct = factory()
        direct.consume_batch(batch.slice(start, boundaries[t2 - 1]))
        assert dump_sketch(materialise_window(timeline, t1, t2)) == dump_sketch(
            direct
        ), f"{name}: subtraction window [{t1},{t2}) differs from direct"


class TestWindowEquivalence:
    @pytest.mark.parametrize(
        "name,maker", CHEAP_CASES, ids=[c[0] for c in CHEAP_CASES]
    )
    @temporal_settings
    @given(data=streams_with_epochs(n=N, max_tokens=30, max_epochs=4),
           shard=st.tuples(
               st.sampled_from(PARTITION_STRATEGIES), st.integers(2, 3)
           ))
    def test_direct_subtraction_and_sharded_agree(self, name, maker, data, shard):
        _check_window_equivalence(maker, name, data, shard)

    @pytest.mark.parametrize(
        "name,maker", HEAVY_CASES, ids=[c[0] for c in HEAVY_CASES]
    )
    @heavy_settings
    @given(data=streams_with_epochs(n=N, max_tokens=24, max_epochs=3),
           shard=st.tuples(
               st.sampled_from(PARTITION_STRATEGIES), st.integers(2, 3)
           ))
    def test_hierarchy_classes_agree(self, name, maker, data, shard):
        _check_window_equivalence(maker, name, data, shard)

    @temporal_settings
    @given(data=streams_with_epochs(n=N, max_tokens=40, max_epochs=4))
    def test_manifest_round_trip_preserves_windows(self, data):
        tokens, boundaries = data
        factory = functools.partial(_forest, 777)
        stream = _stream_from(tokens)
        timeline = EpochManager.consume(factory, stream, boundaries=boundaries)
        restored = EpochTimeline.from_bytes(timeline.to_bytes())
        assert restored.boundaries == timeline.boundaries
        for t1, t2 in _window_pairs(timeline.epochs):
            assert dump_sketch(materialise_window(restored, t1, t2)) == dump_sketch(
                materialise_window(timeline, t1, t2)
            )


class TestSubtractAlgebra:
    @pytest.mark.parametrize(
        "name,maker", SKETCH_CASES, ids=[c[0] for c in SKETCH_CASES]
    )
    def test_subtract_then_merge_is_identity(self, name, maker):
        """(x - y) + y == x, and x - x == 0, for every sketch class."""
        stream = _stream_from(
            [(0, 1, 1), (1, 2, 2), (2, 3, 1), (1, 2, -1), (0, 4, 1),
             (3, 5, 2), (0, 1, -1), (4, 6, 1)]
        )
        half = DynamicGraphStream(N, list(stream)[: len(stream) // 2])
        whole = maker(61).consume_batch(stream.as_batch())
        reference = dump_sketch(whole)
        whole.subtract(maker(61).consume_batch(half.as_batch()))
        whole.merge(maker(61).consume_batch(half.as_batch()))
        assert dump_sketch(whole) == reference
        zero = maker(61).consume_batch(stream.as_batch())
        zero.subtract(maker(61).consume_batch(stream.as_batch()))
        assert dump_sketch(zero) == dump_sketch(maker(61))

    @pytest.mark.parametrize(
        "name,maker", SKETCH_CASES, ids=[c[0] for c in SKETCH_CASES]
    )
    def test_negate_twice_is_identity(self, name, maker):
        stream = DynamicGraphStream(N)
        stream.insert(0, 1)
        stream.insert(1, 2, 2)
        stream.delete(1, 2)
        sketch = maker(62).consume_batch(stream.as_batch())
        reference = dump_sketch(sketch)
        sketch.negate()
        assert dump_sketch(sketch) != reference  # non-zero sketch flips
        sketch.negate()
        assert dump_sketch(sketch) == reference

    def test_subtract_refuses_mismatched_seed(self):
        a = _forest(1)
        b = _forest(2)
        with pytest.raises(SketchCompatibilityError):
            a.subtract(b)

    def test_subtract_refuses_mismatched_shape(self):
        a = _edge_connect(3)
        b = EdgeConnectivitySketch(N, 3, HashSource(3))
        with pytest.raises(SketchCompatibilityError):
            a.subtract(b)


#: One windowed query per kind, on that kind's own capability.
WINDOW_QUERIES = {
    "spanning_forest": ConnectivityQuery(window=(0, 1)),
    "edge_connectivity": KEdgeConnectivityQuery(window=(0, 1)),
    "mincut": MinCutQuery(window=(0, 1)),
    "simple_sparsification": SparsifierQuery(window=(0, 1)),
    "sparsification": SparsifierQuery(window=(0, 1)),
    "weighted_sparsification": SparsifierQuery(window=(0, 1)),
    "subgraph_count": SubgraphCountQuery(pattern="triangle", window=(0, 1)),
    "cut_edges": CutQuery(side=frozenset({0}), window=(0, 1)),
    "bipartiteness": PropertiesQuery(window=(0, 1)),
    "mst_weight": PropertiesQuery(window=(0, 1)),
}


class TestQuerySurfaceRouting:
    """Every sketch kind routes a windowed query through the engine."""

    @pytest.mark.parametrize(
        "name,maker", SKETCH_CASES, ids=[c[0] for c in SKETCH_CASES]
    )
    def test_windowed_query_has_kind_specific_metric(self, name, maker):
        stream = _stream_from(
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (4, 5, 1),
             (1, 2, -1), (1, 2, 1)]
        )
        timeline = EpochManager.consume(
            functools.partial(maker, 63), stream, epochs=1
        )
        engine = GraphSketchEngine.restore(timeline.to_bytes())
        answer = engine.query(WINDOW_QUERIES[name])
        assert (answer.kind, answer.window) == (name, (0, 1))
        # Beyond the kind: a kind-specific metric in the result body.
        assert answer.to_dict()["body"]

    def test_unregistered_sketch_is_refused(self):
        with pytest.raises(NotSupportedError, match="capability-registry"):
            kind_of_sketch(object())

    def test_engine_surface(self):
        factory = functools.partial(_forest, 88)
        stream = _stream_from([(0, 1, 1), (1, 2, 1), (3, 4, 1)])
        timeline = EpochManager.consume(factory, stream, epochs=2)
        engine = GraphSketchEngine.restore(timeline.to_bytes())
        assert timeline.epochs == 2
        assert window_tokens(timeline, 0, 2) == 3
        assert dump_sketch(materialise_window(timeline, 0, 2)) == dump_sketch(
            factory().consume_batch(stream.as_batch())
        )
        assert engine.query(
            ConnectivityQuery(u=0, v=2, window=(0, 2))
        ).same_component
        assert not engine.query(
            ConnectivityQuery(u=0, v=3, window=(0, 2))
        ).same_component
        with pytest.raises(ValueError, match="valid epoch range"):
            window_tokens(timeline, 2, 2)

    def test_was_connected_requires_connectivity_surface(self):
        factory = functools.partial(_cut_edges, 89)
        stream = _stream_from([(0, 1, 1)])
        engine = GraphSketchEngine.restore(
            EpochManager.consume(factory, stream, epochs=1).to_bytes()
        )
        with pytest.raises(NotSupportedError, match="connectivity"):
            engine.query(ConnectivityQuery(u=0, v=1, window=(0, 1)))

    def test_manager_streaming_api(self):
        """extend/seal_epoch incrementally, matching the one-shot path."""
        factory = functools.partial(_forest, 90)
        stream = _stream_from([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 1, -1)])
        batch = stream.as_batch()
        manager = EpochManager(factory)
        manager.extend(batch.slice(0, 2))
        first = manager.seal_epoch()
        assert (first.epoch, first.tokens, first.cumulative_tokens) == (1, 2, 2)
        manager.extend(batch.slice(2, 4))
        manager.seal_epoch()
        assert manager.sealed_epochs == 2
        assert manager.n == N
        one_shot = EpochManager.consume(factory, stream, boundaries=[2, 4])
        assert [c.payload for c in manager.timeline().checkpoints] == [
            c.payload for c in one_shot.checkpoints
        ]

    def test_manager_rejects_non_columnar_sketch(self):
        with pytest.raises(TypeError, match="consume_batch"):
            EpochManager(lambda: object())
