"""Capability handlers: route a live sketch through its query surface.

One handler per capability name.  A handler receives the materialised
sketch (live, merged, or a subtracted temporal window — it cannot
tell, which is the point) and the typed query, and returns the result
class plus its payload fields; the engine stamps kind/capability/
window/telemetry on top.  Handlers only ever use the sketch classes'
*existing* post-processing surfaces, so facade answers are the
direct-call answers by construction.
"""

from __future__ import annotations

from typing import Any

from ..core import (
    BipartitenessSketch,
    MSTWeightSketch,
    named_patterns,
)
from ..errors import NotSupportedError
from ..graphs import UnionFind, global_min_cut_value
from .queries import (
    ConnectivityQuery,
    ConnectivityResult,
    CutQuery,
    CutQueryResult,
    KEdgeConnectivityResult,
    MinCutQueryResult,
    PropertiesResult,
    Query,
    QueryResult,
    SparsifierResult,
    SubgraphCountQuery,
    SubgraphCountResult,
)

__all__: list[str] = []


def _components_of(sketch: Any) -> list[set[int]]:
    """Connected components via the sketch's own extraction surface.

    Forest-family sketches extract directly; the k-EDGECONNECT sketch
    answers through its witness (which contains a spanning forest of
    the graph, so component structure is preserved w.h.p.).
    """
    if hasattr(sketch, "connected_components"):
        return sketch.connected_components()
    witness = sketch.witness()
    uf = UnionFind(sketch.n)
    for u, v in witness.edges():
        uf.union(u, v)
    return [set(members) for members in uf.groups().values()]


def _answer_connectivity(sketch: Any, query: Query):
    components = _components_of(sketch)
    same: bool | None = None
    if isinstance(query, ConnectivityQuery) and \
            query.u is not None and query.v is not None:
        same = any(
            query.u in comp and query.v in comp for comp in components
        )
    return ConnectivityResult, {
        "connected": len(components) == 1,
        "components": len(components),
        "forest_edges": sketch.n - len(components),
        "same_component": same,
    }


def _answer_k_edge_connectivity(sketch: Any, query: Query):
    witness = sketch.witness()
    edges = witness.num_edges()
    is_k = bool(edges) and global_min_cut_value(witness) >= sketch.k
    return KEdgeConnectivityResult, {
        "k": sketch.k,
        "witness_edges": edges,
        "is_k_connected": is_k,
    }


def _answer_mincut(sketch: Any, query: Query):
    estimate = sketch.estimate()
    return MinCutQueryResult, {
        "value": estimate.value,
        "stop_level": estimate.stop_level,
    }


def _answer_cut_query(sketch: Any, query: Query):
    assert isinstance(query, CutQuery)
    crossing = sketch.crossing_edges(set(query.side))
    triples = tuple(sorted(
        (u, v, int(mult)) for (u, v), mult in crossing.items()
    ))
    return CutQueryResult, {
        "crossing_edges": triples,
        "cut_value": sum(t[2] for t in triples),
    }


def _answer_sparsifier(sketch: Any, query: Query):
    sparsifier = sketch.sparsifier()
    return SparsifierResult, {
        "edges": sparsifier.num_edges,
        "epsilon": sparsifier.epsilon,
        "sparsifier": sparsifier,
    }


def _answer_subgraph_count(sketch: Any, query: Query):
    assert isinstance(query, SubgraphCountQuery)
    pattern = query.pattern
    if isinstance(pattern, str):
        patterns = named_patterns()
        if pattern not in patterns:
            raise NotSupportedError(
                f"unknown pattern {pattern!r}; built-ins: "
                f"{', '.join(sorted(patterns))}"
            )
        pattern = patterns[pattern]
    estimate = sketch.estimate(pattern)
    return SubgraphCountResult, {
        "pattern": pattern.name,
        "gamma": estimate.gamma,
        "samples_used": estimate.samples_used,
        "samples_failed": estimate.samples_failed,
    }


def _answer_properties(sketch: Any, query: Query):
    values: dict[str, Any] = {}
    if isinstance(sketch, BipartitenessSketch):
        values["bipartite"] = sketch.is_bipartite()
    elif isinstance(sketch, MSTWeightSketch):
        values["mst_weight"] = sketch.estimate()
    elif hasattr(sketch, "connected_components"):
        components = sketch.connected_components()
        values["connected"] = len(components) == 1
        values["components"] = len(components)
    else:  # pragma: no cover - every declaring class is handled above
        raise NotSupportedError(
            f"{type(sketch).__name__} declares 'properties' but no "
            "handler branch exists for it"
        )
    return PropertiesResult, {"values": values}


_HANDLERS = {
    "connectivity": _answer_connectivity,
    "k-edge-connectivity": _answer_k_edge_connectivity,
    "mincut": _answer_mincut,
    "cut-query": _answer_cut_query,
    "sparsifier": _answer_sparsifier,
    "subgraph-count": _answer_subgraph_count,
    "properties": _answer_properties,
}


def _answer_query(
    capability: str, sketch: Any, query: Query
) -> "tuple[type[QueryResult], dict[str, Any]]":
    """Dispatch ``query`` on ``sketch``; returns ``(result_cls, fields)``.

    ``spanner-distance`` is handled by the engine itself (it needs the
    ingested stream, not a linear sketch).
    """
    handler = _HANDLERS.get(capability)
    if handler is None:  # pragma: no cover - closed vocabulary
        raise NotSupportedError(f"no handler for capability {capability!r}")
    return handler(sketch, query)
