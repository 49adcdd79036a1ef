"""repro — graph sketches for dynamic graph streams.

A from-scratch reproduction of

    Kook Jin Ahn, Sudipto Guha, Andrew McGregor.
    *Graph Sketches: Sparsification, Spanners, and Subgraphs.*
    PODS 2012.

The package provides linear sketches of graphs — collections of linear
measurements of the edge-multiplicity vector — supporting single-pass
processing of dynamic graph streams (edge insertions *and* deletions),
mergeable sketches for distributed streams, temporal epoch checkpoints,
and adaptive multi-batch schemes.

**Public API.**  The supported entry point is :mod:`repro.api`,
re-exported here: declare a sketch with :class:`SketchSpec`, deploy it
with the fluent :class:`GraphSketchEngine` builder (local →
``.sharded(sites=K)`` → ``.epochs(...)``, all on the same spec), ingest
with ``ingest``/``ingest_batch``/``seal_epoch``, and ask typed
questions through one ``query()`` dispatch backed by the capability
registry::

    from repro import GraphSketchEngine, SketchSpec, MinCutQuery

    spec = SketchSpec.of("mincut", n=64, seed=7)
    engine = GraphSketchEngine.for_spec(spec).sharded(sites=4).ingest(stream)
    print(engine.query(MinCutQuery()).value)

The sketch classes themselves (:class:`MinCutSketch`,
:class:`SimpleSparsification`, ...) remain importable for direct use
and post-processing; they ingest through one columnar entry point,
``sketch.consume_batch(stream.as_batch())``, the same call the engine
makes (``docs/MIGRATION.md`` maps the removed pre-engine calls onto
it).  Substrates — ℓ₀ samplers, k-sparse recovery,
hashing, the dynamic-stream model, and exact graph algorithms — live
in :mod:`repro.sketch`, :mod:`repro.hashing`, :mod:`repro.streams` and
:mod:`repro.graphs`.
"""

from .api import (
    CAPABILITIES,
    CapabilityEntry,
    ConnectivityQuery,
    ConnectivityResult,
    CutQuery,
    CutQueryResult,
    GraphSketchEngine,
    KEdgeConnectivityQuery,
    KEdgeConnectivityResult,
    MinCutQuery,
    MinCutQueryResult,
    PropertiesQuery,
    PropertiesResult,
    Query,
    QueryResult,
    QueryTelemetry,
    SketchSpec,
    SpannerDistanceQuery,
    SpannerDistanceResult,
    SparsifierQuery,
    SparsifierResult,
    SubgraphCountQuery,
    SubgraphCountResult,
    WIRE_VERSION,
    build_sketch,
    capability_entry,
    capability_of,
    kind_of_sketch,
    query_from_dict,
    query_to_dict,
    register_capability,
    registered_kinds,
    result_from_dict,
    result_to_dict,
)
from .core import (
    BaswanaSenSpanner,
    BipartitenessSketch,
    CutEdgesSketch,
    EdgeConnectivitySketch,
    MinCutSketch,
    MSTWeightSketch,
    RecurseConnectSpanner,
    SimpleSparsification,
    Sparsification,
    SpanningForestSketch,
    SubgraphSketch,
    WeightedSparsification,
)
from .errors import (
    AdaptivityError,
    EpochStoreError,
    GraphError,
    NotSupportedError,
    RecoveryFailed,
    ReproError,
    SamplerFailed,
    SketchCompatibilityError,
    SketchFailure,
    StoreCorruptionError,
    StreamError,
    WireFormatError,
    error_code_table,
)
from .hashing import HashSource
from .streams import DynamicGraphStream, EdgeUpdate, StreamBatch
from .temporal import EpochStore, RetentionPolicy

__version__ = "1.1.0"

__all__ = [
    # -- engine API (repro.api) -----------------------------------------------
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
    # -- sketch classes ---------------------------------------------------------
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
    # -- durable temporal storage -----------------------------------------------
    "EpochStore",
    "RetentionPolicy",
    # -- exception hierarchy ----------------------------------------------------
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
    "error_code_table",
    # -- stream model -----------------------------------------------------------
    "DynamicGraphStream",
    "EdgeUpdate",
    "HashSource",
    "StreamBatch",
    "__version__",
]
