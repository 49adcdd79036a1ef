"""`repro.api` — the one public entry point for graph sketching.

Declare *what* to sketch with a :class:`SketchSpec`, *where* it runs
with the fluent :class:`GraphSketchEngine` builder (local single-pass,
§1.1 multi-site sharding, temporal epoch checkpoints — or sharding and
epochs combined), and *ask* through one typed ``query()`` dispatch
backed by the capability registry.  The engine routes to the library's
existing pipelines, so its answers are byte-identical to the hand-wired
equivalents.  The pre-engine entry points have been removed; their
replacements are listed in ``docs/MIGRATION.md``.
"""

from .capabilities import (
    CapabilityEntry,
    capability_entry,
    kind_of_sketch,
    register_capability,
    registered_kinds,
)
from .engine import GraphSketchEngine
from .queries import (
    CAPABILITIES,
    ConnectivityQuery,
    ConnectivityResult,
    CutQuery,
    CutQueryResult,
    KEdgeConnectivityQuery,
    KEdgeConnectivityResult,
    MinCutQuery,
    MinCutQueryResult,
    PropertiesQuery,
    PropertiesResult,
    Query,
    QueryResult,
    QueryTelemetry,
    SpannerDistanceQuery,
    SpannerDistanceResult,
    SparsifierQuery,
    SparsifierResult,
    SubgraphCountQuery,
    SubgraphCountResult,
    capability_of,
)
from .spec import SketchSpec, build_sketch
from .wire import (
    WIRE_VERSION,
    query_from_dict,
    query_to_dict,
    result_from_dict,
    result_to_dict,
)

__all__ = [
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
]
