"""Wire schema v1: round-trip-exact dict encoding of queries/results.

Two contracts are pinned here.  First, **round-trip exactness**: for
every query kind and every capability's result,
``from_dict(to_dict(x)) == x`` and re-encoding yields byte-identical
canonical JSON.  Second, **wire stability**: the envelope and per-kind
field names are snapshotted — renaming any of them is a wire break that
must fail a test before it reaches a client.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.api import (
    GraphSketchEngine,
    Query,
    QueryResult,
    QueryTelemetry,
    SketchSpec,
    WIRE_VERSION,
    query_from_dict,
    result_from_dict,
)
from repro.api.wire import blob_from_wire, blob_to_wire
from repro.core import named_patterns
from repro.errors import WireFormatError
from repro.streams import churn_stream, erdos_renyi_graph

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

N = 8

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
    "cut_edges": SketchSpec.of("cut_edges", N, seed=38, k=16),
    "bipartiteness": SketchSpec.of("bipartiteness", N, seed=39),
    "mst_weight": SketchSpec.of("mst_weight", N, seed=40, max_weight=2),
    "baswana_sen_spanner": SketchSpec.of(
        "baswana_sen_spanner", N, seed=41, k=2),
    "recurse_connect_spanner": SketchSpec.of(
        "recurse_connect_spanner", N, seed=42, k=2),
}

CANONICAL_QUERIES = {
    "connectivity": repro.ConnectivityQuery(u=0, v=N - 1),
    "k-edge-connectivity": repro.KEdgeConnectivityQuery(),
    "mincut": repro.MinCutQuery(),
    "cut-query": repro.CutQuery(side=frozenset({0, 1})),
    "sparsifier": repro.SparsifierQuery(),
    "spanner-distance": repro.SpannerDistanceQuery(source=0, target=1),
    "subgraph-count": repro.SubgraphCountQuery("triangle"),
    "properties": repro.PropertiesQuery(),
}

#: Every (kind, capability) pair the registry dispatches.
KIND_CAPABILITY = [
    (kind, cap)
    for kind in sorted(SPECS)
    for cap in sorted(repro.capability_entry(kind).queries)
]


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def roundtrip_query(query: Query) -> None:
    payload = query.to_dict()
    decoded = query_from_dict(payload)
    assert decoded == query
    assert canonical_json(decoded.to_dict()) == canonical_json(payload)


# -- hypothesis strategies -----------------------------------------------------

windows = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
        lambda p: (min(p), max(p) + 1)
    ),
)
nodes = st.one_of(st.none(), st.integers(0, N - 1))


class TestQueryRoundTrip:
    """Property-tested per kind: from_dict(to_dict(q)) == q exactly."""

    @given(u=nodes, v=nodes, window=windows)
    def test_connectivity(self, u, v, window):
        roundtrip_query(repro.ConnectivityQuery(u=u, v=v, window=window))

    @given(window=windows)
    def test_k_edge_connectivity(self, window):
        roundtrip_query(repro.KEdgeConnectivityQuery(window=window))

    @given(window=windows)
    def test_mincut(self, window):
        roundtrip_query(repro.MinCutQuery(window=window))

    @given(
        side=st.frozensets(st.integers(0, N - 1), min_size=1),
        window=windows,
    )
    def test_cut_query(self, side, window):
        roundtrip_query(repro.CutQuery(side=side, window=window))

    @given(window=windows)
    def test_sparsifier(self, window):
        roundtrip_query(repro.SparsifierQuery(window=window))

    @given(source=nodes, target=nodes, window=windows)
    def test_spanner_distance(self, source, target, window):
        roundtrip_query(
            repro.SpannerDistanceQuery(
                source=source, target=target, window=window
            )
        )

    @given(
        pattern=st.sampled_from(sorted(named_patterns())),
        window=windows,
    )
    def test_subgraph_count(self, pattern, window):
        roundtrip_query(repro.SubgraphCountQuery(pattern, window=window))

    @given(window=windows)
    def test_properties(self, window):
        roundtrip_query(repro.PropertiesQuery(window=window))

    def test_pattern_object_encodes_as_its_name(self):
        query = repro.SubgraphCountQuery(named_patterns()["clique4"])
        payload = query.to_dict()
        assert payload["args"]["pattern"] == "clique4"
        assert query_from_dict(payload).pattern == "clique4"

    def test_unnamed_pattern_is_refused(self):
        from repro.core.patterns import Pattern

        bespoke = Pattern("bespoke", 3, frozenset({(0, 1)}))
        with pytest.raises(WireFormatError):
            repro.SubgraphCountQuery(bespoke).to_dict()


class TestResultRoundTrip:
    """Engine answers for every (kind, capability) survive the wire."""

    @pytest.fixture(scope="class")
    def engines(self):
        edges = erdos_renyi_graph(N, 0.5, seed=5)
        stream = churn_stream(N, edges, seed=6)
        built = {
            kind: GraphSketchEngine.for_spec(spec).ingest(stream)
            for kind, spec in SPECS.items()
        }
        yield built
        for engine in built.values():
            engine.close()

    @pytest.mark.parametrize("kind,capability", KIND_CAPABILITY)
    def test_roundtrip_exact(self, kind, capability, engines):
        result = engines[kind].query(CANONICAL_QUERIES[capability])
        payload = result.to_dict()
        decoded = result_from_dict(payload)
        assert decoded == result
        assert canonical_json(decoded.to_dict()) == canonical_json(payload)

    @pytest.mark.parametrize("kind,capability", KIND_CAPABILITY)
    def test_payload_is_strict_json(self, kind, capability, engines):
        # allow_nan=False: the payload must be valid strict JSON even
        # when the result holds non-finite floats (encoded as strings).
        result = engines[kind].query(CANONICAL_QUERIES[capability])
        json.dumps(result.to_dict(), allow_nan=False)

    def test_disconnected_distance_is_infinity_string(self, engines):
        # Querying a pair in a sketch of an (almost surely) connected
        # graph rarely yields inf, so pin the encoding directly.
        result = repro.SpannerDistanceResult(
            kind="baswana_sen_spanner",
            capability="spanner-distance",
            edges=0,
            batches=1,
            stretch_bound=3.0,
            shipped_bytes=0,
            distance=math.inf,
        )
        payload = result.to_dict()
        assert payload["body"]["distance"] == "Infinity"
        json.dumps(payload, allow_nan=False)
        assert result_from_dict(payload).distance == math.inf


class TestWireStability:
    """The envelope and field names are frozen — this is the contract."""

    def test_query_envelope(self):
        payload = repro.ConnectivityQuery(u=0, v=7, window=(0, 2)).to_dict()
        assert payload == {
            "v": 1,
            "query": "connectivity",
            "window": [0, 2],
            "args": {"u": 0, "v": 7},
        }

    def test_result_envelope_keys(self):
        result = repro.MinCutQueryResult(
            kind="mincut", capability="mincut", value=3.0, stop_level=2
        )
        payload = result.to_dict()
        assert set(payload) == {
            "v", "result", "kind", "capability", "window", "telemetry", "body",
        }
        assert payload["v"] == WIRE_VERSION
        assert payload["telemetry"] == {"seconds": 0.0, "payload_bytes": 0}

    @pytest.mark.parametrize("capability,expected_args", [
        ("connectivity", {"u", "v"}),
        ("k-edge-connectivity", set()),
        ("mincut", set()),
        ("cut-query", {"side"}),
        ("sparsifier", set()),
        ("spanner-distance", {"source", "target"}),
        ("subgraph-count", {"pattern"}),
        ("properties", set()),
    ])
    def test_query_args_fields(self, capability, expected_args):
        payload = CANONICAL_QUERIES[capability].to_dict()
        assert payload["query"] == capability
        assert set(payload["args"]) == expected_args

    BODY_FIELDS = {
        "connectivity": {
            "connected", "components", "forest_edges", "same_component",
        },
        "k-edge-connectivity": {"k", "witness_edges", "is_k_connected"},
        "mincut": {"value", "stop_level"},
        "cut-query": {"crossing_edges", "cut_value"},
        "sparsifier": {"edges", "epsilon", "sparsifier"},
        "spanner-distance": {
            "edges", "batches", "stretch_bound", "shipped_bytes",
            "distance", "spanner",
        },
        "subgraph-count": {
            "pattern", "gamma", "samples_used", "samples_failed",
        },
        "properties": {"values"},
    }

    def test_body_field_snapshot_covers_every_capability(self):
        assert set(self.BODY_FIELDS) == set(repro.CAPABILITIES)

    @pytest.mark.parametrize("kind,capability", KIND_CAPABILITY)
    def test_result_body_fields(self, kind, capability):
        spec = SPECS[kind]
        edges = erdos_renyi_graph(N, 0.5, seed=5)
        stream = churn_stream(N, edges, seed=6)
        with GraphSketchEngine.for_spec(spec) as engine:
            engine.ingest(stream)
            payload = engine.query(CANONICAL_QUERIES[capability]).to_dict()
        assert payload["result"] == capability
        assert set(payload["body"]) == self.BODY_FIELDS[capability]


class TestMalformedPayloads:
    """Every malformed payload fails as WIRE_INVALID, never KeyError."""

    def test_non_mapping(self):
        with pytest.raises(WireFormatError):
            query_from_dict([1, 2, 3])

    def test_missing_version(self):
        with pytest.raises(WireFormatError, match="version"):
            query_from_dict({"query": "mincut"})

    def test_future_version(self):
        with pytest.raises(WireFormatError, match="version"):
            query_from_dict({"v": 2, "query": "mincut"})

    def test_unknown_query_kind(self):
        with pytest.raises(WireFormatError, match="unknown query kind"):
            query_from_dict({"v": 1, "query": "page-rank"})

    def test_unknown_result_kind(self):
        with pytest.raises(WireFormatError, match="unknown result kind"):
            result_from_dict({"v": 1, "result": "page-rank"})

    def test_missing_discriminator(self):
        with pytest.raises(WireFormatError, match="query"):
            query_from_dict({"v": 1})

    def test_bool_is_not_an_int(self):
        with pytest.raises(WireFormatError):
            query_from_dict({
                "v": 1, "query": "connectivity", "window": None,
                "args": {"u": True, "v": 1},
            })

    def test_bad_window_shape(self):
        with pytest.raises(WireFormatError, match="window"):
            query_from_dict({
                "v": 1, "query": "mincut", "window": [1], "args": {},
            })

    def test_empty_cut_side(self):
        with pytest.raises(WireFormatError, match="side"):
            query_from_dict({
                "v": 1, "query": "cut-query", "window": None,
                "args": {"side": []},
            })

    def test_missing_result_body(self):
        with pytest.raises(WireFormatError, match="body"):
            result_from_dict({
                "v": 1, "result": "mincut", "kind": "mincut",
                "capability": "mincut", "window": None,
                "telemetry": {"seconds": 0.0, "payload_bytes": 0},
            })

    def test_missing_body_field(self):
        with pytest.raises(WireFormatError, match="stop_level"):
            result_from_dict({
                "v": 1, "result": "mincut", "kind": "mincut",
                "capability": "mincut", "window": None,
                "telemetry": {"seconds": 0.0, "payload_bytes": 0},
                "body": {"value": 3.0},
            })

    def test_errors_carry_the_wire_code(self):
        with pytest.raises(WireFormatError) as excinfo:
            query_from_dict({})
        assert excinfo.value.code == "WIRE_INVALID"

    def test_subclass_from_dict_rejects_wrong_kind(self):
        payload = repro.MinCutQuery().to_dict()
        with pytest.raises(WireFormatError, match="MinCutQuery"):
            repro.ConnectivityQuery.from_dict(payload)
        assert repro.MinCutQuery.from_dict(payload) == repro.MinCutQuery()

    def test_base_class_from_dict_accepts_any_kind(self):
        payload = repro.MinCutQuery().to_dict()
        assert Query.from_dict(payload) == repro.MinCutQuery()

    def test_result_subclass_mismatch(self):
        result = repro.MinCutQueryResult(
            kind="mincut", capability="mincut", value=1.0, stop_level=0
        )
        with pytest.raises(WireFormatError, match="MinCutQueryResult"):
            repro.ConnectivityResult.from_dict(result.to_dict())
        assert QueryResult.from_dict(result.to_dict()) == result


class TestBlobTransport:
    def test_roundtrip(self):
        blob = bytes(range(256))
        assert blob_from_wire(blob_to_wire(blob)) == blob

    def test_snapshot_blob_roundtrip(self):
        edges = erdos_renyi_graph(N, 0.5, seed=5)
        stream = churn_stream(N, edges, seed=6)
        with GraphSketchEngine.for_spec(SPECS["spanning_forest"]) as engine:
            engine.ingest(stream)
            blob = engine.snapshot()
        assert blob_from_wire(blob_to_wire(blob)) == blob

    def test_invalid_base64(self):
        with pytest.raises(WireFormatError, match="base64"):
            blob_from_wire("not/valid base64!!")

    def test_non_string(self):
        with pytest.raises(WireFormatError):
            blob_from_wire(b"bytes already")


class TestTelemetryRoundTrip:
    def test_telemetry_survives(self):
        result = repro.MinCutQueryResult(
            kind="mincut",
            capability="mincut",
            value=2.0,
            stop_level=1,
            telemetry=QueryTelemetry(seconds=0.125, payload_bytes=4096),
        )
        decoded = result_from_dict(result.to_dict())
        assert decoded.telemetry == result.telemetry
