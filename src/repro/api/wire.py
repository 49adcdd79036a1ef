"""Wire-stable dict encoding of queries and results (schema v1).

The engine's typed :class:`~repro.api.Query`/:class:`~repro.api.
QueryResult` dataclasses gain a stable JSON-able form here — the
contract the :mod:`repro.serve` HTTP API speaks and the form
:meth:`GraphSketchEngine.query` accepts directly.  Every payload is an
envelope carrying the schema version (``"v": 1``), a discriminator
(``"query"`` / ``"result"``: the capability name), the epoch
``"window"``, and the kind-specific fields nested under ``"args"``
(queries) or ``"body"`` (results, alongside ``"kind"``,
``"capability"`` and ``"telemetry"``).  The nesting keeps per-kind
field names out of the envelope namespace; all names are **frozen** —
renaming one is a wire break and fails the snapshot test in
``tests/test_wire.py``.

Encoding rules
--------------
Each field's wire form follows from its annotation in
:mod:`repro.api.queries`: ``_FIELD_RULES`` holds one (encode, decode)
pair per annotation, and ``X | None`` makes a field optional (absent or
``null``).  A query or result class therefore gets its ``args`` or
``body`` codec by naming its field types, and a field whose annotation
has no rule fails at import.

* Scalars are canonicalised to plain Python types (numpy scalars via
  ``.item()``) so ``json.dumps`` of the dict is deterministic.
* Non-finite floats — a spanner distance of ``inf`` on a disconnected
  pair — encode as the strings ``"Infinity"``/``"-Infinity"``/``"NaN"``
  (strict JSON has no spelling for them).
* Node sets and edge dicts encode as *sorted* lists, so equal values
  produce byte-identical JSON.
* Structured payloads (the sparsifier, the spanner graph) encode as
  explicit JSON objects; round-trips are exact because graph weights
  survive JSON's shortest-repr floats exactly.
* Opaque sketch state never rides a result — snapshots travel as
  codec-v2 blobs wrapped with :func:`blob_to_wire` (base64).

Malformed payloads raise :class:`~repro.errors.WireFormatError`
(code ``WIRE_INVALID``), never an arbitrary ``KeyError``/``TypeError``;
a decoded value its dataclass refuses (an empty ``CutQuery.side``) is
malformed too.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import math
from collections.abc import Callable, Mapping
from typing import Any

import numpy as np

from ..errors import WireFormatError
from .queries import CAPABILITY_TYPES, Query, QueryResult, QueryTelemetry

__all__ = [
    "WIRE_VERSION",
    "blob_from_wire",
    "blob_to_wire",
    "query_from_dict",
    "query_to_dict",
    "result_from_dict",
    "result_to_dict",
]

#: Current (and only) wire schema version.
WIRE_VERSION = 1


# -- scalar helpers ------------------------------------------------------------


def _fail(msg: str) -> "WireFormatError":
    return WireFormatError(f"wire schema v{WIRE_VERSION}: {msg}")


def _canon(value: Any) -> Any:
    """Canonicalise one scalar to a plain JSON-able Python value."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise _fail(f"cannot encode scalar of type {type(value).__name__}")


_NONFINITE = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}


def _dec_float(value: Any, field: str) -> float:
    if isinstance(value, str) and value in _NONFINITE:
        return _NONFINITE[value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise _fail(f"field {field!r} must be a number, got {value!r}")


def _dec_int(value: Any, field: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _fail(f"field {field!r} must be an integer, got {value!r}")


def _dec_bool(value: Any, field: str) -> bool:
    if isinstance(value, bool):
        return value
    raise _fail(f"field {field!r} must be a boolean, got {value!r}")


def _dec_str(value: Any, field: str) -> str:
    if isinstance(value, str):
        return value
    raise _fail(f"field {field!r} must be a string, got {value!r}")


def _get(payload: Mapping[str, Any], field: str) -> Any:
    if field not in payload:
        raise _fail(f"missing required field {field!r}")
    return payload[field]


def _enc_window(window: "tuple[int, int] | None") -> "list[int] | None":
    return None if window is None else [int(window[0]), int(window[1])]


def _dec_window(value: Any) -> "tuple[int, int] | None":
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise _fail(f"field 'window' must be null or a [t1, t2] pair, got {value!r}")
    return (_dec_int(value[0], "window[0]"), _dec_int(value[1], "window[1]"))


# -- base64 codec-v2 transport -------------------------------------------------


def blob_to_wire(blob: bytes) -> str:
    """Wrap an opaque codec-v2 blob (sketch/manifest bytes) for JSON."""
    return base64.b64encode(blob).decode("ascii")


def blob_from_wire(text: str) -> bytes:
    """Decode a :func:`blob_to_wire` string back to codec-v2 bytes."""
    if not isinstance(text, str):
        raise _fail(f"blob must be a base64 string, got {type(text).__name__}")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as err:
        raise _fail(f"invalid base64 blob: {err}") from None


# -- structured payloads: graphs, sparsifiers, patterns ------------------------


def _enc_graph(graph: Any) -> dict[str, Any]:
    edges = sorted(
        (int(u), int(v), _canon(float(w))) for u, v, w in graph.weighted_edges()
    )
    return {"n": int(graph.n), "edges": [list(e) for e in edges]}


def _dec_graph(value: Any, field: str) -> Any:
    from ..graphs import Graph

    if not isinstance(value, Mapping):
        raise _fail(f"field {field!r} must be a graph object")
    n = _dec_int(_get(value, "n"), f"{field}.n")
    raw = _get(value, "edges")
    if not isinstance(raw, (list, tuple)):
        raise _fail(f"field {field!r}.edges must be a list")
    edges = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise _fail(f"field {field!r}.edges entries must be [u, v, w]")
        edges.append((
            _dec_int(item[0], f"{field}.edges[][0]"),
            _dec_int(item[1], f"{field}.edges[][1]"),
            _dec_float(item[2], f"{field}.edges[][2]"),
        ))
    try:
        return Graph.from_weighted_edges(n, edges)
    except Exception as err:
        raise _fail(f"field {field!r} holds an invalid graph: {err}") from None


def _enc_sparsifier(sparsifier: Any) -> dict[str, Any]:
    levels = sorted(
        (int(u), int(v), int(level))
        for (u, v), level in sparsifier.edge_levels.items()
    )
    return {
        "graph": _enc_graph(sparsifier.graph),
        "epsilon": _canon(float(sparsifier.epsilon)),
        "edge_levels": [list(e) for e in levels],
        "memory_cells": int(sparsifier.memory_cells),
    }


def _dec_sparsifier(value: Any, field: str) -> Any:
    from ..core.sparsifier import Sparsifier

    if not isinstance(value, Mapping):
        raise _fail(f"field {field!r} must be a sparsifier object")
    raw_levels = _get(value, "edge_levels")
    if not isinstance(raw_levels, (list, tuple)):
        raise _fail(f"field {field!r}.edge_levels must be a list")
    edge_levels: dict[tuple[int, int], int] = {}
    for item in raw_levels:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise _fail(f"field {field!r}.edge_levels entries must be [u, v, level]")
        key = (
            _dec_int(item[0], f"{field}.edge_levels[][0]"),
            _dec_int(item[1], f"{field}.edge_levels[][1]"),
        )
        edge_levels[key] = _dec_int(item[2], f"{field}.edge_levels[][2]")
    return Sparsifier(
        graph=_dec_graph(_get(value, "graph"), f"{field}.graph"),
        epsilon=_dec_float(_get(value, "epsilon"), f"{field}.epsilon"),
        edge_levels=edge_levels,
        memory_cells=_dec_int(_get(value, "memory_cells"), f"{field}.memory_cells"),
    )


def _enc_pattern(pattern: Any) -> str:
    if isinstance(pattern, str):
        return pattern
    from ..core import named_patterns

    for name, builtin in named_patterns().items():
        if builtin == pattern:
            return name
    raise _fail(
        "only built-in (named) patterns have a wire form; got "
        f"{getattr(pattern, 'name', pattern)!r}"
    )


# -- numbers, node sets, crossing edges, property values -----------------------


def _enc_float(value: Any) -> Any:
    return _canon(float(value))


def _enc_nodes(nodes: Any) -> list[int]:
    return sorted(int(node) for node in nodes)


def _dec_nodes(value: Any, field: str) -> frozenset[int]:
    if not isinstance(value, (list, tuple)):
        raise _fail(f"field {field!r} must be a list of node ids")
    return frozenset(_dec_int(node, f"{field}[]") for node in value)


def _enc_triples(triples: Any) -> list[list[int]]:
    return [[int(u), int(v), int(mult)] for u, v, mult in triples]


def _dec_triples(value: Any, field: str) -> tuple[tuple[int, int, int], ...]:
    if not isinstance(value, (list, tuple)):
        raise _fail(f"field {field!r} must be a list")
    triples = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise _fail(f"field {field!r} entries must be [u, v, mult]")
        u, v, mult = (_dec_int(x, f"{field}[][{i}]") for i, x in enumerate(item))
        triples.append((u, v, mult))
    return tuple(triples)


def _enc_values(values: Mapping[str, Any]) -> dict[str, Any]:
    return {str(key): _canon(value) for key, value in values.items()}


def _dec_values(value: Any, field: str) -> dict[str, Any]:
    if not isinstance(value, Mapping):
        raise _fail(f"field {field!r} must be a mapping")
    values: dict[str, Any] = {}
    for key, item in value.items():
        name = _dec_str(key, f"{field} key")
        if isinstance(item, str) and item in _NONFINITE:
            item = _NONFINITE[item]
        elif not (item is None or isinstance(item, (bool, int, float, str))):
            raise _fail(f"field '{field}[{name}]' must be a JSON scalar")
        values[name] = item
    return values


# -- field rules ---------------------------------------------------------------

#: One ``(encode, decode)`` rule per field annotation, keyed exactly as
#: :mod:`repro.api.queries` writes it.  ``decode(value, field)`` raises
#: :class:`WireFormatError` naming ``field``.
_FIELD_RULES: dict[str, tuple[Callable[[Any], Any], Callable[[Any, str], Any]]] = {
    "int": (_canon, _dec_int),
    "float": (_enc_float, _dec_float),
    "bool": (_canon, _dec_bool),
    "str": (_canon, _dec_str),
    "frozenset[int]": (_enc_nodes, _dec_nodes),
    "tuple[tuple[int, int, int], ...]": (_enc_triples, _dec_triples),
    "Mapping[str, Any]": (_enc_values, _dec_values),
    "Graph": (_enc_graph, _dec_graph),
    "Sparsifier": (_enc_sparsifier, _dec_sparsifier),
    "str | Pattern": (_enc_pattern, _dec_str),
}

_OPTIONAL = " | None"

#: ``(name, path, encode, decode, optional)`` per wire field of a class;
#: ``path`` (``"args.u"``) names the field in decode errors.
_Fields = tuple[
    tuple[str, str, Callable[[Any], Any], Callable[[Any, str], Any], bool], ...
]


def _fields_of(cls: type, where: str, envelope: type | None = None) -> _Fields:
    """The fields of dataclass ``cls`` nested under ``where``: those its
    ``envelope`` base (whose fields the envelope carries) lacks."""
    skip = {f.name for f in dataclasses.fields(envelope)} if envelope else set()
    fields = []
    for f in dataclasses.fields(cls):
        if f.name in skip:
            continue
        annotation = str(f.type)
        optional = annotation.endswith(_OPTIONAL)
        if optional:
            annotation = annotation[:-len(_OPTIONAL)]
        encode, decode = _FIELD_RULES[annotation]
        fields.append((f.name, f"{where}.{f.name}", encode, decode, optional))
    return tuple(fields)


def _encode(obj: Any, fields: _Fields) -> dict[str, Any]:
    out = {}
    for name, _path, encode, _decode, optional in fields:
        value = getattr(obj, name)
        out[name] = None if optional and value is None else encode(value)
    return out


def _decode(payload: Mapping[str, Any], fields: _Fields) -> dict[str, Any]:
    values = {}
    for name, path, _encode, decode, optional in fields:
        raw = payload.get(name)
        if raw is None and optional:
            values[name] = None
        elif raw is None and name not in payload:
            raise _fail(f"missing required field {path!r}")
        else:
            values[name] = decode(raw, path)
    return values


def _build(cls: type, fields: dict[str, Any]) -> Any:
    """``cls(**fields)``, its own refusals reported as malformed wire."""
    try:
        return cls(**fields)
    except ValueError as err:
        raise _fail(f"invalid {cls.__name__}: {err}") from None


#: Query or result class → (capability, its ``args``/``body`` fields).
_WIRE_FORM: dict[type, tuple[str, _Fields]] = {
    cls: (name, _fields_of(cls, where, base))
    for name, classes in CAPABILITY_TYPES.items()
    for cls, where, base in zip(classes, ("args", "body"), (Query, QueryResult))
}
_TELEMETRY = _fields_of(QueryTelemetry, "telemetry")


def _wire_form(obj: Any, base: type) -> tuple[str, _Fields]:
    entry = _WIRE_FORM.get(type(obj))
    if entry is None or not isinstance(obj, base):
        raise _fail(f"{type(obj).__name__} has no wire form")
    return entry


def _envelope_class(payload: Any, discriminator: str) -> type:
    """Check the envelope; return the class its ``"query"`` or
    ``"result"`` discriminator names."""
    if not isinstance(payload, Mapping):
        raise _fail(
            f"payload must be a mapping, got {type(payload).__name__}"
        )
    version = payload.get("v")
    if version != WIRE_VERSION:
        raise _fail(
            f"unsupported schema version {version!r} (this library speaks "
            f"v{WIRE_VERSION})"
        )
    if discriminator not in payload:
        raise _fail(f"missing discriminator field {discriminator!r}")
    name = _dec_str(payload[discriminator], discriminator)
    classes = CAPABILITY_TYPES.get(name)
    if classes is None:
        raise _fail(
            f"unknown {discriminator} kind {name!r}; known: "
            f"{', '.join(sorted(CAPABILITY_TYPES))}"
        )
    query_cls, result_cls = classes
    return query_cls if discriminator == "query" else result_cls


# -- queries -------------------------------------------------------------------


def query_to_dict(query: Query) -> dict[str, Any]:
    """Encode one typed query as its wire-stable dict."""
    name, fields = _wire_form(query, Query)
    return {
        "v": WIRE_VERSION,
        "query": name,
        "window": _enc_window(query.window),
        "args": _encode(query, fields),
    }


def query_from_dict(payload: "Mapping[str, Any]") -> Query:
    """Decode a wire dict back to the typed query it names."""
    cls = _envelope_class(payload, "query")
    args = payload.get("args", {})
    if not isinstance(args, Mapping):
        raise _fail("field 'args' must be a mapping")
    fields = _decode(args, _WIRE_FORM[cls][1])
    fields["window"] = _dec_window(payload.get("window"))
    return _build(cls, fields)


# -- results -------------------------------------------------------------------


def result_to_dict(result: QueryResult) -> dict[str, Any]:
    """Encode one typed result as its wire-stable dict."""
    name, fields = _wire_form(result, QueryResult)
    return {
        "v": WIRE_VERSION,
        "result": name,
        "kind": str(result.kind),
        "capability": str(result.capability),
        "window": _enc_window(result.window),
        "telemetry": _encode(result.telemetry, _TELEMETRY),
        "body": _encode(result, fields),
    }


def result_from_dict(payload: "Mapping[str, Any]") -> QueryResult:
    """Decode a wire dict back to the typed result it names."""
    cls = _envelope_class(payload, "result")
    raw_telemetry = _get(payload, "telemetry")
    if not isinstance(raw_telemetry, Mapping):
        raise _fail("field 'telemetry' must be a mapping")
    body = _get(payload, "body")
    if not isinstance(body, Mapping):
        raise _fail("field 'body' must be a mapping")
    fields = _decode(body, _WIRE_FORM[cls][1])
    fields.update(
        kind=_dec_str(_get(payload, "kind"), "kind"),
        capability=_dec_str(_get(payload, "capability"), "capability"),
        window=_dec_window(payload.get("window")),
        telemetry=_build(
            QueryTelemetry, _decode(raw_telemetry, _TELEMETRY)
        ),
    )
    return _build(cls, fields)
