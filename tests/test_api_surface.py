"""Snapshot of the public API surface.

``repro.__all__``, ``repro.api.__all__``, ``repro.temporal.__all__``,
``repro.distributed.__all__``, ``repro.sketch.__all__`` and
``repro.kernels.__all__`` are pinned name for name: an
accidental removal, rename, or silent addition fails here before it
reaches a caller.  Growing the API deliberately means updating the
snapshot in the same change — which is the point.  Ingestion has one
entry point per sketch, ``consume_batch``; no registered class may grow
a second one.
"""

from __future__ import annotations

import pytest

import repro
import repro.api
import repro.distributed
import repro.errors
import repro.kernels
import repro.sketch
import repro.temporal

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


EXPECTED_API = frozenset({
    "CAPABILITIES",
    "CapabilityEntry",
    "ConnectivityQuery",
    "ConnectivityResult",
    "CutQuery",
    "CutQueryResult",
    "GraphSketchEngine",
    "KEdgeConnectivityQuery",
    "KEdgeConnectivityResult",
    "MinCutQuery",
    "MinCutQueryResult",
    "PropertiesQuery",
    "PropertiesResult",
    "Query",
    "QueryResult",
    "QueryTelemetry",
    "SketchSpec",
    "SpannerDistanceQuery",
    "SpannerDistanceResult",
    "SparsifierQuery",
    "SparsifierResult",
    "SubgraphCountQuery",
    "SubgraphCountResult",
    "WIRE_VERSION",
    "build_sketch",
    "capability_entry",
    "capability_of",
    "kind_of_sketch",
    "query_from_dict",
    "query_to_dict",
    "register_capability",
    "registered_kinds",
    "result_from_dict",
    "result_to_dict",
})

EXPECTED_SKETCH_CLASSES = frozenset({
    "BaswanaSenSpanner",
    "BipartitenessSketch",
    "CutEdgesSketch",
    "EdgeConnectivitySketch",
    "MinCutSketch",
    "MSTWeightSketch",
    "RecurseConnectSpanner",
    "SimpleSparsification",
    "Sparsification",
    "SpanningForestSketch",
    "SubgraphSketch",
    "WeightedSparsification",
})

EXPECTED_EXCEPTIONS = frozenset({
    "AdaptivityError",
    "EpochStoreError",
    "GraphError",
    "NotSupportedError",
    "RecoveryFailed",
    "ReproError",
    "SamplerFailed",
    "SketchCompatibilityError",
    "SketchFailure",
    "StoreCorruptionError",
    "StreamError",
    "WireFormatError",
})

EXPECTED_STREAM_MODEL = frozenset({
    "DynamicGraphStream",
    "EdgeUpdate",
    "HashSource",
    "StreamBatch",
})

EXPECTED_TEMPORAL_STORE = frozenset({
    "EpochStore",
    "RetentionPolicy",
})

EXPECTED_TEMPORAL = frozenset({
    "EpochCheckpoint",
    "EpochManager",
    "EpochStore",
    "EpochTimeline",
    "RetentionPolicy",
    "SpanEntry",
    "epoch_boundaries",
    "materialise_window",
    "normalize_boundaries",
    "window_payload_bytes",
    "window_tokens",
})

EXPECTED_DISTRIBUTED = frozenset({
    "PARTITION_STRATEGIES",
    "ShardedEpochReport",
    "ShardedRunReport",
    "ShardedSketchRunner",
    "SiteReport",
    "forest_sketch",
    "mincut_sketch",
    "partition_batch",
    "partition_stream",
    "partition_stream_by",
    "shard_assignment",
    "sparsifier_sketch",
})

EXPECTED_SKETCH = frozenset({
    "ArenaBacked",
    "CellBank",
    "L0SamplerBank",
    "SketchArena",
    "SketchCodec",
    "SparseRecoveryBank",
    "bucket_count_for",
    "decode_cells",
    "dump_epoch_manifest",
    "dump_sketch",
    "ensure_arena",
    "is_valid_encoding",
    "load_epoch_manifest",
    "load_sketch",
    "merge_sketch_bytes",
    "pair_position_in_subset",
    "pair_positions_k3",
    "peek_sketch_meta",
    "register_sketch_codec",
    "rows_for_order",
    "serializable_sketch_kinds",
    "sketch_kind_of",
    "squash_matrix",
    "subtract_sketch_bytes",
    "unsquash_value",
})

EXPECTED_KERNELS = frozenset({
    "KERNEL_NAMES",
    "available_backends",
    "backend_name",
    "get",
    "kernel_stats",
    "reset_kernel_stats",
    "use",
})

EXPECTED_TOP_LEVEL = (
    EXPECTED_API
    | EXPECTED_SKETCH_CLASSES
    | EXPECTED_EXCEPTIONS
    | EXPECTED_STREAM_MODEL
    | EXPECTED_TEMPORAL_STORE
    | {"__version__", "error_code_table"}
)

EXPECTED_KINDS = (
    "baswana_sen_spanner",
    "bipartiteness",
    "cut_edges",
    "edge_connectivity",
    "mincut",
    "mst_weight",
    "recurse_connect_spanner",
    "simple_sparsification",
    "spanning_forest",
    "sparsification",
    "subgraph_count",
    "weighted_sparsification",
)

EXPECTED_CAPABILITIES = (
    "connectivity",
    "k-edge-connectivity",
    "mincut",
    "cut-query",
    "sparsifier",
    "spanner-distance",
    "subgraph-count",
    "properties",
)


class TestTopLevelSurface:
    def test_all_matches_snapshot(self):
        assert frozenset(repro.__all__) == EXPECTED_TOP_LEVEL

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ exports missing {name}"

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))


class TestApiSurface:
    def test_all_matches_snapshot(self):
        assert frozenset(repro.api.__all__) == EXPECTED_API

    def test_every_exported_name_resolves(self):
        for name in repro.api.__all__:
            assert hasattr(repro.api, name)


class TestSubpackageSurfaces:
    @pytest.mark.parametrize("module, expected", [
        (repro.temporal, EXPECTED_TEMPORAL),
        (repro.distributed, EXPECTED_DISTRIBUTED),
        (repro.sketch, EXPECTED_SKETCH),
        (repro.kernels, EXPECTED_KERNELS),
    ], ids=["temporal", "distributed", "sketch", "kernels"])
    def test_all_matches_snapshot(self, module, expected):
        assert frozenset(module.__all__) == expected
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__} lacks {name}"


class TestExceptionHierarchy:
    def test_every_public_exception_is_exported(self):
        """No exception class hides in repro.errors unexported."""
        public = {
            name for name, obj in vars(repro.errors).items()
            if isinstance(obj, type)
            and issubclass(obj, Exception)
            and not name.startswith("_")
        }
        assert public == EXPECTED_EXCEPTIONS
        assert public <= set(repro.__all__)

    def test_all_derive_from_repro_error(self):
        for name in EXPECTED_EXCEPTIONS - {"ReproError"}:
            assert issubclass(getattr(repro, name), repro.ReproError)


class TestRegistrySnapshots:
    def test_registered_kinds(self):
        assert repro.registered_kinds() == EXPECTED_KINDS

    def test_capability_vocabulary(self):
        assert repro.CAPABILITIES == EXPECTED_CAPABILITIES

    def test_no_registered_class_has_a_consume_entry_point(self):
        """``consume_batch`` is the one ingest entry point per sketch."""
        for kind in repro.registered_kinds():
            cls = repro.capability_entry(kind).cls
            assert not hasattr(cls, "consume"), f"{cls.__name__}.consume exists"

    def test_every_kind_declares_known_capabilities(self):
        for kind in repro.registered_kinds():
            entry = repro.capability_entry(kind)
            assert entry.queries, f"{kind} declares no capabilities"
            assert entry.queries <= set(EXPECTED_CAPABILITIES)
