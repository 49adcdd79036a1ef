"""Typed queries and results for :class:`~repro.api.GraphSketchEngine`.

One frozen dataclass per query the capability registry knows about,
plus one frozen dataclass per result.  Every result carries a
:class:`QueryTelemetry` — wall-clock seconds and the serialised payload
bytes that had to be loaded to answer (for a temporal window: the
checkpoint blobs; zero when the answer came straight off live sketch
state) — so the paper's space/accuracy trade-offs are first-class in
the API rather than something a caller reconstructs from logs.

Queries map to capability names (the vocabulary the registry sketch
classes declare in their ``CAPABILITIES`` attribute) via
:func:`capability_of`; an engine whose sketch kind does not declare a
query's capability raises :class:`~repro.errors.NotSupportedError`
instead of guessing.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import NotSupportedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.patterns import Pattern
    from ..core.sparsifier import Sparsifier
    from ..graphs import Graph

__all__ = [
    "CAPABILITIES",
    "CAPABILITY_TYPES",
    "ConnectivityQuery",
    "ConnectivityResult",
    "CutQuery",
    "CutQueryResult",
    "KEdgeConnectivityQuery",
    "KEdgeConnectivityResult",
    "MinCutQuery",
    "MinCutQueryResult",
    "PropertiesQuery",
    "PropertiesResult",
    "Query",
    "QueryResult",
    "QueryTelemetry",
    "SpannerDistanceQuery",
    "SpannerDistanceResult",
    "SparsifierQuery",
    "SparsifierResult",
    "SubgraphCountQuery",
    "SubgraphCountResult",
    "capability_of",
]

# -- queries -------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class Query:
    """Base class of every engine query.

    ``window`` addresses an epoch window ``[t1, t2)`` on a temporal
    engine (``None`` means the full sealed prefix); non-temporal
    engines refuse windowed queries.
    """

    window: tuple[int, int] | None = None

    def to_dict(self) -> dict[str, Any]:
        """Wire-stable dict form (schema v1, see :mod:`repro.api.wire`)."""
        from .wire import query_to_dict

        return query_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Query":
        """Decode a wire dict; raises ``WireFormatError`` when malformed.

        Called on a subclass, the decoded query must be of that
        subclass — ``ConnectivityQuery.from_dict`` refuses a mincut
        payload rather than silently returning the wrong type.
        """
        from ..errors import WireFormatError
        from .wire import query_from_dict

        query = query_from_dict(payload)
        if not isinstance(query, cls):
            raise WireFormatError(
                f"payload decodes to {type(query).__name__}, "
                f"not {cls.__name__}"
            )
        return query


@dataclass(frozen=True)
class ConnectivityQuery(Query):
    """Connected components; optionally "are ``u`` and ``v`` connected?"."""

    u: int | None = None
    v: int | None = None


@dataclass(frozen=True)
class KEdgeConnectivityQuery(Query):
    """Is the graph k-edge-connected (k fixed by the sketch)?"""


@dataclass(frozen=True)
class MinCutQuery(Query):
    """(1+ε) global minimum cut estimate (paper Fig. 1)."""


@dataclass(frozen=True)
class CutQuery(Query):
    """List the exact edges crossing ``(side, V - side)``."""

    side: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.side, frozenset):
            object.__setattr__(self, "side", frozenset(self.side))
        if not self.side:
            raise ValueError("CutQuery needs a non-empty node set `side`")


@dataclass(frozen=True)
class SparsifierQuery(Query):
    """Extract the cut sparsifier (paper Figs. 2/3, §3.5)."""


@dataclass(frozen=True)
class SpannerDistanceQuery(Query):
    """Build the spanner; optionally a source→target distance through it."""

    source: int | None = None
    target: int | None = None


@dataclass(frozen=True)
class SubgraphCountQuery(Query):
    """γ_H frequency of an order-k pattern (paper §4).

    ``pattern`` is a :class:`~repro.core.patterns.Pattern` or the name
    of a built-in one (``"triangle"``, ``"path3"``...).
    """

    pattern: str | Pattern = "triangle"


@dataclass(frozen=True)
class PropertiesQuery(Query):
    """The sketch class's canonical scalar properties (bipartiteness,
    MST weight...), keyed by property name."""


# -- results -------------------------------------------------------------------


@dataclass(frozen=True)
class QueryTelemetry:
    """Per-query cost accounting.

    Attributes
    ----------
    seconds:
        Wall-clock time spent answering, dispatch included.
    payload_bytes:
        Serialised sketch bytes loaded to materialise the answer — the
        checkpoint blobs of a temporal window, zero for answers straight
        off live sketch state.
    """

    seconds: float
    payload_bytes: int


@dataclass(frozen=True, kw_only=True)
class QueryResult:
    """Base class of every engine answer.

    Attributes
    ----------
    kind:
        Registry kind of the sketch that answered.
    capability:
        The capability that dispatched.
    window:
        The epoch window the answer describes (``None``: live state /
        the full prefix).
    telemetry:
        Time and payload-byte accounting for this query.
    """

    kind: str
    capability: str
    window: tuple[int, int] | None = None
    telemetry: QueryTelemetry = field(
        default_factory=lambda: QueryTelemetry(0.0, 0)
    )

    def to_dict(self) -> dict[str, Any]:
        """Wire-stable dict form (schema v1, see :mod:`repro.api.wire`)."""
        from .wire import result_to_dict

        return result_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryResult":
        """Decode a wire dict; raises ``WireFormatError`` when malformed."""
        from ..errors import WireFormatError
        from .wire import result_from_dict

        result = result_from_dict(payload)
        if not isinstance(result, cls):
            raise WireFormatError(
                f"payload decodes to {type(result).__name__}, "
                f"not {cls.__name__}"
            )
        return result


@dataclass(frozen=True, kw_only=True)
class ConnectivityResult(QueryResult):
    connected: bool
    components: int
    forest_edges: int
    #: Whether the queried ``(u, v)`` pair shares a component (``None``
    #: when the query named no pair).
    same_component: bool | None = None


@dataclass(frozen=True, kw_only=True)
class KEdgeConnectivityResult(QueryResult):
    k: int
    witness_edges: int
    is_k_connected: bool


@dataclass(frozen=True, kw_only=True)
class MinCutQueryResult(QueryResult):
    value: float
    stop_level: int


@dataclass(frozen=True, kw_only=True)
class CutQueryResult(QueryResult):
    #: ``(u, v, multiplicity)`` triples crossing the cut, sorted.
    crossing_edges: tuple[tuple[int, int, int], ...]
    cut_value: int


@dataclass(frozen=True, kw_only=True)
class SparsifierResult(QueryResult):
    edges: int
    epsilon: float
    #: The full :class:`~repro.core.sparsifier.Sparsifier` (graph,
    #: per-edge levels, provenance) for downstream cut evaluation.
    sparsifier: Sparsifier


@dataclass(frozen=True, kw_only=True)
class SpannerDistanceResult(QueryResult):
    edges: int
    batches: int
    stretch_bound: float
    shipped_bytes: int
    #: BFS distance source→target through the spanner (``None`` when
    #: the query named no pair; ``inf`` when disconnected).
    distance: float | None = None
    #: The spanner :class:`~repro.graphs.Graph` itself.
    spanner: Graph | None = None


@dataclass(frozen=True, kw_only=True)
class SubgraphCountResult(QueryResult):
    pattern: str
    gamma: float
    samples_used: int
    samples_failed: int


@dataclass(frozen=True, kw_only=True)
class PropertiesResult(QueryResult):
    #: Scalar properties keyed by name (``bipartite``, ``mst_weight``...).
    values: Mapping[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]


# -- the capability table ------------------------------------------------------

#: Capability name → its (query class, result class).  The one table
#: behind the capability vocabulary, :func:`capability_of`, and both
#: directions of the wire (:mod:`repro.api.wire`).
CAPABILITY_TYPES: dict[str, tuple[type[Query], type[QueryResult]]] = {
    "connectivity": (ConnectivityQuery, ConnectivityResult),
    "k-edge-connectivity": (KEdgeConnectivityQuery, KEdgeConnectivityResult),
    "mincut": (MinCutQuery, MinCutQueryResult),
    "cut-query": (CutQuery, CutQueryResult),
    "sparsifier": (SparsifierQuery, SparsifierResult),
    "spanner-distance": (SpannerDistanceQuery, SpannerDistanceResult),
    "subgraph-count": (SubgraphCountQuery, SubgraphCountResult),
    "properties": (PropertiesQuery, PropertiesResult),
}

#: The full capability vocabulary a registry sketch class may declare.
CAPABILITIES = tuple(CAPABILITY_TYPES)

_CAPABILITY_OF_QUERY = {
    query: cap for cap, (query, _result) in CAPABILITY_TYPES.items()
}


def capability_of(query: Query) -> str:
    """The capability name a sketch must declare to answer ``query``."""
    cap = _CAPABILITY_OF_QUERY.get(type(query))
    if cap is None:
        raise NotSupportedError(
            f"{type(query).__name__} is not a registered query type; "
            f"known: {', '.join(c.__name__ for c in _CAPABILITY_OF_QUERY)}"
        )
    return cap
