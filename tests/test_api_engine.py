"""Engine/legacy parity: the facade answers are the hand-wired answers.

For every registry sketch kind and every deployment mode — local,
sharded across all four partition strategies, temporal epoch windows,
and sharded-temporal — the :class:`~repro.api.GraphSketchEngine` state
is *byte-identical* to the pipeline a caller would have hand-wired
before the facade existed.  DeprecationWarnings are promoted to errors
here: the engine path must stay free of deprecated calls.

Capability dispatch rides along: every capability a kind declares must
actually answer its canonical query, and every undeclared one must
raise :class:`~repro.errors.NotSupportedError`.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    CAPABILITIES,
    ConnectivityQuery,
    CutQuery,
    GraphSketchEngine,
    KEdgeConnectivityQuery,
    MinCutQuery,
    PropertiesQuery,
    QueryResult,
    SketchSpec,
    SpannerDistanceQuery,
    SparsifierQuery,
    SubgraphCountQuery,
    build_sketch,
    capability_entry,
)
from repro.distributed import PARTITION_STRATEGIES, ShardedSketchRunner
from repro.errors import NotSupportedError
from repro.sketch import dump_sketch
from repro.streams import DynamicGraphStream, churn_stream, erdos_renyi_graph
from repro.temporal import EpochManager

from strategies import streams_with_epochs

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

N = 8

#: One spec per serialisable kind, parameters matching the temporal
#: equivalence harness (small enough for a dense matrix sweep).
SPECS = {
    "spanning_forest": SketchSpec.of("spanning_forest", N, seed=31),
    "edge_connectivity": SketchSpec.of("edge_connectivity", N, seed=32, k=2),
    "mincut": SketchSpec.of("mincut", N, seed=33, epsilon=0.5, c_k=0.4),
    "simple_sparsification": SketchSpec.of(
        "simple_sparsification", N, seed=34, epsilon=0.5, c_k=0.15),
    "sparsification": SketchSpec.of(
        "sparsification", N, seed=35, epsilon=0.5, c_k=0.3, c_rough=0.05),
    "weighted_sparsification": SketchSpec.of(
        "weighted_sparsification", N, seed=36, max_weight=2, epsilon=0.5,
        c_k=0.15),
    "subgraph_count": SketchSpec.of(
        "subgraph_count", N, seed=37, order=3, samplers=6),
    # k bounds the recoverable crossing-edge count; the ER workload's
    # two-node cuts can cross ~10 edges, so give it headroom.
    "cut_edges": SketchSpec.of("cut_edges", N, seed=38, k=16),
    "bipartiteness": SketchSpec.of("bipartiteness", N, seed=39),
    "mst_weight": SketchSpec.of("mst_weight", N, seed=40, max_weight=2),
}
KINDS = sorted(SPECS)

SPANNER_SPECS = {
    "baswana_sen_spanner": SketchSpec.of(
        "baswana_sen_spanner", N, seed=41, k=2),
    "recurse_connect_spanner": SketchSpec.of(
        "recurse_connect_spanner", N, seed=42, k=2),
}

#: One canonical, dispatchable query per capability name.
CANONICAL_QUERIES = {
    "connectivity": ConnectivityQuery(u=0, v=N - 1),
    "k-edge-connectivity": KEdgeConnectivityQuery(),
    "mincut": MinCutQuery(),
    "cut-query": CutQuery(side=frozenset({0, 1})),
    "sparsifier": SparsifierQuery(),
    "spanner-distance": SpannerDistanceQuery(source=0, target=1),
    "subgraph-count": SubgraphCountQuery("triangle"),
    "properties": PropertiesQuery(),
}


@pytest.fixture(scope="module")
def stream() -> DynamicGraphStream:
    edges = erdos_renyi_graph(N, 0.5, seed=5)
    return churn_stream(N, edges, seed=6)


@pytest.fixture(scope="module")
def direct_bytes(stream) -> dict:
    """dump_sketch of the hand-wired local pipeline, per kind."""
    return {
        kind: dump_sketch(spec.build().consume_batch(stream.as_batch()))
        for kind, spec in SPECS.items()
    }


class TestLocalParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_ingest_matches_hand_wired(self, kind, stream, direct_bytes):
        engine = GraphSketchEngine.for_spec(SPECS[kind]).ingest(stream)
        assert engine.snapshot() == direct_bytes[kind]

    @pytest.mark.parametrize("kind", KINDS)
    def test_ingest_batch_matches_hand_wired(self, kind, stream, direct_bytes):
        batch = stream.as_batch()
        engine = GraphSketchEngine.for_spec(SPECS[kind])
        half = len(batch) // 2
        engine.ingest_batch(batch.slice(0, half))
        engine.ingest_batch(batch.slice(half, len(batch)))
        assert engine.snapshot() == direct_bytes[kind]


class TestShardedParity:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_legacy_runner_and_local(
        self, kind, strategy, stream, direct_bytes
    ):
        spec = SPECS[kind]
        engine = (GraphSketchEngine.for_spec(spec)
                  .sharded(sites=3, strategy=strategy, seed=3)
                  .ingest(stream))
        legacy = ShardedSketchRunner(
            functools.partial(build_sketch, spec),
            sites=3, strategy=strategy, seed=3,
        ).run(stream)
        assert engine.snapshot() == dump_sketch(legacy.sketch)
        # ...which is itself byte-identical to the single-site pipeline.
        assert engine.snapshot() == direct_bytes[kind]
        assert engine.shipped_bytes == legacy.total_payload_bytes

    def test_process_mode_identical(self, stream, direct_bytes):
        spec = SPECS["spanning_forest"]
        with (GraphSketchEngine.for_spec(spec)
                .sharded(sites=2, seed=3)
                .workers(mode="process", processes=2)) as engine:
            engine.ingest(stream)
            assert engine.snapshot() == direct_bytes["spanning_forest"]


class TestProcessLifecycle:
    """Engine-level pool/segment lifecycle for ``workers("process")``."""

    def test_runner_and_pool_reused_across_ingests(self, stream):
        from repro.distributed import shm

        spec = SPECS["spanning_forest"]
        with (GraphSketchEngine.for_spec(spec)
                .sharded(sites=2, seed=3)
                .workers(mode="process", processes=1,
                         start_method="spawn")) as engine:
            engine.ingest(stream)
            runner = engine._runner_obj
            assert runner is not None and runner._pool is not None
            pool = runner._pool
            engine.ingest(stream)
            assert engine._runner_obj is runner
            assert runner._pool is pool
            assert shm.active_segment_names()
        assert shm.active_segment_names() == []
        # Linearity check on the double ingest: merged state equals a
        # sequential engine fed the stream twice.
        twice = (GraphSketchEngine.for_spec(spec)
                 .sharded(sites=2, seed=3)
                 .ingest(stream).ingest(stream))
        assert engine.snapshot() == twice.snapshot()

    def test_close_keeps_engine_queryable_and_is_idempotent(
        self, stream, direct_bytes
    ):
        spec = SPECS["spanning_forest"]
        engine = (GraphSketchEngine.for_spec(spec)
                  .sharded(sites=2, seed=3)
                  .workers(mode="process", processes=1)
                  .ingest(stream))
        engine.close()
        assert engine._runner_obj is None
        assert engine.snapshot() == direct_bytes["spanning_forest"]
        engine.close()
        # A later ingest transparently rebuilds the pool + segments.
        engine.ingest(stream)
        assert engine._runner_obj is not None
        engine.close()

    def test_close_is_noop_on_local_engine(self, stream, direct_bytes):
        engine = GraphSketchEngine.for_spec(
            SPECS["spanning_forest"]
        ).ingest(stream)
        engine.close()
        assert engine.snapshot() == direct_bytes["spanning_forest"]

    def test_workers_rejects_bad_processes(self):
        engine = GraphSketchEngine.for_spec(
            SPECS["spanning_forest"]
        ).sharded(sites=2)
        with pytest.raises(ValueError, match="processes must be >= 1"):
            engine.workers(mode="process", processes=0)


class TestTemporalParity:
    EPOCHS = 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_timeline_matches_hand_wired_manager(self, kind, stream):
        spec = SPECS[kind]
        engine = (GraphSketchEngine.for_spec(spec)
                  .epochs(count=self.EPOCHS)
                  .ingest(stream))
        legacy = EpochManager.consume(
            functools.partial(build_sketch, spec), stream, epochs=self.EPOCHS
        )
        assert engine.snapshot() == legacy.to_bytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_window_matches_replay(self, kind, stream):
        """The windowed-query materialisation is the replayed sketch."""
        from repro.temporal import materialise_window

        spec = SPECS[kind]
        engine = (GraphSketchEngine.for_spec(spec)
                  .epochs(count=self.EPOCHS)
                  .ingest(stream))
        timeline = engine.timeline
        for t1, t2 in ((0, self.EPOCHS), (1, self.EPOCHS)):
            start = timeline.boundaries[t1 - 1] if t1 else 0
            stop = timeline.boundaries[t2 - 1]
            replay = spec.build().consume_batch(
                stream.as_batch().slice(start, stop)
            )
            window = materialise_window(timeline, t1, t2)
            assert dump_sketch(window) == dump_sketch(replay)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sharded_temporal_matches_legacy(self, kind, stream):
        spec = SPECS[kind]
        engine = (GraphSketchEngine.for_spec(spec)
                  .sharded(sites=2, seed=3)
                  .epochs(count=self.EPOCHS)
                  .ingest(stream))
        legacy = ShardedSketchRunner(
            functools.partial(build_sketch, spec), sites=2, seed=3,
        ).run_epochs(stream, epochs=self.EPOCHS)
        assert engine.snapshot() == legacy.timeline.to_bytes()

    def test_manual_sealing_matches_grid(self, stream):
        """ingest_batch + seal_epoch == the one-shot even grid."""
        spec = SPECS["spanning_forest"]
        grid = (GraphSketchEngine.for_spec(spec)
                .epochs(count=2)
                .ingest(stream))
        manual = GraphSketchEngine.for_spec(spec).epochs()
        batch = stream.as_batch()
        bounds = grid.timeline.boundaries
        start = 0
        for end in bounds:
            manual.ingest_batch(batch.slice(start, end))
            manual.seal_epoch()
            start = end
        assert manual.snapshot() == grid.snapshot()


hypothesis_settings = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestHypothesisParity:
    """Random insert/delete streams and epoch grids (tests/strategies.py)."""

    @pytest.mark.parametrize(
        "kind", ["spanning_forest", "cut_edges", "bipartiteness"]
    )
    @hypothesis_settings
    @given(data=streams_with_epochs(n=N, max_tokens=30, max_epochs=3),
           strategy=st.sampled_from(PARTITION_STRATEGIES))
    def test_all_modes_byte_identical(self, kind, data, strategy):
        tokens, boundaries = data
        stream = DynamicGraphStream(N)
        for u, v, delta in tokens:
            if delta > 0:
                stream.insert(u, v, delta)
            else:
                stream.delete(u, v, -delta)
        spec = SPECS[kind]
        direct = dump_sketch(spec.build().consume_batch(stream.as_batch()))
        local = GraphSketchEngine.for_spec(spec).ingest(stream)
        assert local.snapshot() == direct
        sharded = (GraphSketchEngine.for_spec(spec)
                   .sharded(sites=2, strategy=strategy, seed=3)
                   .ingest(stream))
        assert sharded.snapshot() == direct
        temporal = (GraphSketchEngine.for_spec(spec)
                    .epochs(boundaries=boundaries)
                    .ingest(stream))
        legacy = EpochManager.consume(
            functools.partial(build_sketch, spec), stream,
            boundaries=boundaries,
        )
        assert temporal.snapshot() == legacy.to_bytes()


class TestCapabilityDispatch:
    """Every declared capability dispatches; every other one refuses."""

    @pytest.mark.parametrize("kind", KINDS + sorted(SPANNER_SPECS))
    def test_declared_dispatch_and_undeclared_refusal(self, kind, stream):
        spec = SPECS.get(kind) or SPANNER_SPECS[kind]
        engine = GraphSketchEngine.for_spec(spec).ingest(stream)
        declared = capability_entry(kind).queries
        assert declared, f"{kind} declares no capabilities"
        for capability in CAPABILITIES:
            query = CANONICAL_QUERIES[capability]
            if capability in declared:
                result = engine.query(query)
                assert isinstance(result, QueryResult)
                assert result.kind == kind
                assert result.capability == capability
                assert result.telemetry.seconds >= 0.0
                assert result.telemetry.payload_bytes >= 0
            else:
                with pytest.raises(NotSupportedError, match=capability):
                    engine.query(query)

    def test_windowed_query_reports_window_and_bytes(self, stream):
        engine = (GraphSketchEngine.for_spec(SPECS["spanning_forest"])
                  .epochs(count=3)
                  .ingest(stream))
        result = engine.query(ConnectivityQuery(window=(1, 3)))
        assert result.window == (1, 3)
        assert result.telemetry.payload_bytes > 0
        # default window is the full sealed prefix
        full = engine.query(ConnectivityQuery())
        assert full.window == (0, 3)

    def test_capabilities_match_class_declarations(self):
        for kind in KINDS + sorted(SPANNER_SPECS):
            entry = capability_entry(kind)
            assert entry.queries == frozenset(entry.cls.CAPABILITIES)


class TestEngineContracts:
    def test_unknown_kind_refused(self):
        with pytest.raises(NotSupportedError, match="unknown sketch kind"):
            GraphSketchEngine.for_spec(SketchSpec.of("bogus", N))

    def test_unknown_strategy_refused(self):
        with pytest.raises(NotSupportedError, match="partition strategy"):
            GraphSketchEngine.for_spec(SPECS["spanning_forest"]).sharded(
                strategy="bogus"
            )

    def test_window_needs_temporal_mode(self, stream):
        engine = GraphSketchEngine.for_spec(SPECS["spanning_forest"]).ingest(
            stream
        )
        with pytest.raises(NotSupportedError, match="temporal"):
            engine.query(ConnectivityQuery(window=(0, 1)))

    def test_configuration_frozen_after_ingest(self, stream):
        engine = GraphSketchEngine.for_spec(SPECS["spanning_forest"]).ingest(
            stream
        )
        with pytest.raises(NotSupportedError, match="after ingestion"):
            engine.sharded(sites=2)

    def test_spanners_refuse_epochs_and_snapshot(self, stream):
        spec = SPANNER_SPECS["baswana_sen_spanner"]
        with pytest.raises(NotSupportedError, match="adaptive"):
            GraphSketchEngine.for_spec(spec).epochs(count=2)
        engine = GraphSketchEngine.for_spec(spec).ingest(stream)
        with pytest.raises(NotSupportedError, match="adaptive"):
            engine.snapshot()

    def test_invalid_window_is_value_error(self, stream):
        engine = (GraphSketchEngine.for_spec(SPECS["spanning_forest"])
                  .epochs(count=2)
                  .ingest(stream))
        with pytest.raises(ValueError, match="not a valid epoch range"):
            engine.query(ConnectivityQuery(window=(5, 9)))

    def test_bad_spec_params_refused(self):
        with pytest.raises(ValueError, match="cannot build"):
            SketchSpec.of("spanning_forest", N, bogus_param=1).build()

    def test_snapshot_restore_roundtrip_local(self, stream, direct_bytes):
        engine = GraphSketchEngine.for_spec(SPECS["spanning_forest"]).ingest(
            stream
        )
        restored = GraphSketchEngine.restore(engine.snapshot())
        assert restored.spec.kind == "spanning_forest"
        assert restored.snapshot() == direct_bytes["spanning_forest"]
        before = engine.query(ConnectivityQuery())
        after = restored.query(ConnectivityQuery())
        assert before.components == after.components

    def test_snapshot_restore_roundtrip_temporal(self, stream):
        engine = (GraphSketchEngine.for_spec(SPECS["spanning_forest"])
                  .epochs(count=3)
                  .ingest(stream))
        restored = GraphSketchEngine.restore(engine.snapshot())
        assert restored.deployment == "temporal"
        assert restored.epochs_sealed == 3
        want = engine.query(ConnectivityQuery(window=(1, 3)))
        got = restored.query(ConnectivityQuery(window=(1, 3)))
        assert got.components == want.components

    def test_restore_garbage_refused(self):
        with pytest.raises(ValueError):
            GraphSketchEngine.restore(b"not a snapshot at all")

    def test_query_before_ingest_refused(self):
        engine = GraphSketchEngine.for_spec(SPECS["spanning_forest"])
        with pytest.raises(NotSupportedError, match="no data ingested"):
            engine.query(ConnectivityQuery())

    def test_restored_temporal_engine_refuses_further_ingest(self, stream):
        """New data cannot silently vanish next to a restored timeline."""
        engine = (GraphSketchEngine.for_spec(SPECS["spanning_forest"])
                  .epochs(count=3)
                  .ingest(stream))
        restored = GraphSketchEngine.restore(engine.snapshot())
        with pytest.raises(NotSupportedError, match="already sealed"):
            restored.ingest(stream)
        with pytest.raises(NotSupportedError, match="already sealed"):
            restored.seal_epoch()
        # second ingest on the grid engine is refused the same way
        with pytest.raises(NotSupportedError, match="already"):
            engine.ingest(stream)

    def test_sharded_gridless_epochs_refused(self, stream):
        """Manual sealing is local-only; sharding must not be dropped."""
        engine = (GraphSketchEngine.for_spec(SPECS["spanning_forest"])
                  .sharded(sites=2)
                  .epochs())
        with pytest.raises(NotSupportedError, match="local-only"):
            engine.ingest(stream)
        with pytest.raises(NotSupportedError, match="local-only"):
            engine.seal_epoch()

    def test_failed_ingest_leaves_engine_unstarted(self, stream):
        """A refused ingest must not freeze configuration or unlock
        queries on an empty sketch."""
        engine = GraphSketchEngine.for_spec(SPECS["spanning_forest"])
        wrong_universe = DynamicGraphStream(N + 5)
        wrong_universe.insert(0, N + 1)
        with pytest.raises(ValueError, match="universes differ"):
            engine.ingest(wrong_universe)
        with pytest.raises(NotSupportedError, match="no data ingested"):
            engine.query(ConnectivityQuery())
        engine.sharded(sites=2, seed=3)  # still configurable
        engine.ingest(stream)
        assert engine.query(ConnectivityQuery()).components >= 1

    def test_restore_refuses_mismatched_override_spec(self, stream):
        from repro.errors import SketchCompatibilityError

        engine = GraphSketchEngine.for_spec(SPECS["mst_weight"]).ingest(stream)
        with pytest.raises(SketchCompatibilityError, match="cannot restore"):
            GraphSketchEngine.restore(engine.snapshot(), spec=SPECS["mincut"])

    def test_adaptive_refuses_process_workers(self):
        with pytest.raises(NotSupportedError, match="adaptive"):
            GraphSketchEngine.for_spec(
                SPANNER_SPECS["baswana_sen_spanner"]
            ).workers(mode="process")

    def test_register_capability_refuses_changed_entry(self):
        from repro.api import CapabilityEntry, register_capability
        from repro.core import SpanningForestSketch

        # identical re-registration is idempotent...
        register_capability(CapabilityEntry(
            kind="spanning_forest", cls=SpanningForestSketch,
            queries=frozenset(SpanningForestSketch.CAPABILITIES),
        ))
        # ...but changing any field of an existing entry is refused.
        with pytest.raises(ValueError, match="already registered"):
            register_capability(CapabilityEntry(
                kind="spanning_forest", cls=SpanningForestSketch,
                queries=frozenset({"mincut"}),
            ))


class TestDictQueries:
    """query() accepts the wire dict form and answers identically."""

    def test_dict_equals_typed(self, stream):
        engine = GraphSketchEngine.for_spec(SPECS["mincut"]).ingest(stream)
        typed = engine.query(MinCutQuery())
        wired = engine.query({
            "v": 1, "query": "mincut", "window": None, "args": {},
        })
        assert wired.value == typed.value
        assert wired.stop_level == typed.stop_level

    def test_dict_roundtrip_of_typed_query(self, stream):
        engine = GraphSketchEngine.for_spec(
            SPECS["spanning_forest"]
        ).ingest(stream)
        query = ConnectivityQuery(u=0, v=N - 1)
        assert (
            engine.query(query.to_dict()).same_component
            == engine.query(query).same_component
        )

    def test_malformed_dict_raises_wire_error(self, stream):
        from repro.errors import WireFormatError

        engine = GraphSketchEngine.for_spec(SPECS["mincut"]).ingest(stream)
        with pytest.raises(WireFormatError):
            engine.query({"query": "mincut"})  # no version field

    def test_undeclared_capability_via_dict(self, stream):
        engine = GraphSketchEngine.for_spec(SPECS["mincut"]).ingest(stream)
        with pytest.raises(NotSupportedError, match="mincut"):
            engine.query({
                "v": 1, "query": "sparsifier", "window": None, "args": {},
            })
