"""Tenant registry: client-declared sketch specs bound to live engines.

A *tenant* is one named :class:`~repro.api.SketchSpec` deployed on a
:class:`~repro.api.GraphSketchEngine` the client configured at creation
time — local, ``sharded`` across simulated sites (optionally on the
process worker pool), or ``epochs`` for manually-sealed temporal
windows.  The service's job queue and query path both funnel through
the tenant's ``asyncio.Lock``, so engine state only ever sees one
operation at a time; the blocking engine calls themselves run off the
event loop (``asyncio.to_thread``).

What a tenant may declare follows the engine's own rules: adaptive
spanner builders hold no linear state and take whole-stream ingests, so
they are refused up front; epoch *grids* (``count``/``boundaries``)
need the full stream at once, so a served temporal tenant seals
manually through the ``seal`` endpoint instead; sharding and epochs
don't combine (the engine's manual-temporal mode is local-only).
"""

from __future__ import annotations

import asyncio
import re
from collections.abc import Mapping
from typing import Any

from ..api import GraphSketchEngine, QueryResult, SketchSpec
from ..api.capabilities import capability_entry
from ..errors import NotSupportedError, WireFormatError
from ..streams import DynamicGraphStream, EdgeUpdate, StreamBatch

__all__ = [
    "DuplicateTenant",
    "Tenant",
    "TenantRegistry",
    "UnknownTenant",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class UnknownTenant(LookupError):
    """No tenant with the requested name (HTTP 404)."""


class DuplicateTenant(ValueError):
    """A tenant with this name already exists (HTTP 409)."""


def _fail(msg: str) -> WireFormatError:
    return WireFormatError(f"tenant declaration: {msg}")


def _req_int(payload: Mapping[str, Any], field: str) -> int:
    value = payload.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail(f"field {field!r} must be an integer, got {value!r}")
    return value


def _opt_int(
    payload: Mapping[str, Any], field: str, default: "int | None" = None
) -> "int | None":
    if payload.get(field) is None:
        return default
    return _req_int(payload, field)


def _req_str(payload: Mapping[str, Any], field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str):
        raise _fail(f"field {field!r} must be a string, got {value!r}")
    return value


def _opt_section(
    payload: Mapping[str, Any], field: str
) -> "Mapping[str, Any] | None":
    value = payload.get(field)
    if value is None:
        return None
    if not isinstance(value, Mapping):
        raise _fail(f"section {field!r} must be an object")
    return value


def parse_spec(payload: Mapping[str, Any]) -> SketchSpec:
    """Build a :class:`SketchSpec` from its declaration dict.

    ``n``, ``seed`` (``0`` when absent) and the params pass through as
    declared: building the spec applies the parameter rules
    (:func:`~repro.sketch.arena.check_params`), whose ``ValueError``
    names the refused field (400).
    """
    kind = _req_str(payload, "kind")
    capability_entry(kind)  # unknown kind -> NotSupportedError (422)
    seed = payload.get("seed")
    params = _opt_section(payload, "params") or {}
    return SketchSpec(
        kind, payload.get("n"), 0 if seed is None else seed,
        tuple(params.items()),
    )


def parse_updates(raw: Any) -> "list[EdgeUpdate]":
    """Decode a JSON updates array into validated edge updates.

    Accepts ``[u, v]`` / ``[u, v, delta]`` triples or
    ``{"u":, "v":, "delta":}`` objects; endpoint/delta validation is
    the stream model's own (:class:`~repro.errors.StreamError`).
    """
    if not isinstance(raw, (list, tuple)):
        raise _fail("'updates' must be an array")
    updates: list[EdgeUpdate] = []
    for item in raw:
        updates.append(parse_update(item))
    return updates


def parse_update(item: Any) -> EdgeUpdate:
    """Decode one JSON update — a pair/triple array or an object."""
    if isinstance(item, Mapping):
        u, v = _req_int(item, "u"), _req_int(item, "v")
        delta = _opt_int(item, "delta", 1)
        assert delta is not None
        return EdgeUpdate(u, v, delta)
    if isinstance(item, (list, tuple)) and len(item) in (2, 3):
        fields = {"u": item[0], "v": item[1]}
        if len(item) == 3:
            fields["delta"] = item[2]
        return parse_update(fields)
    raise _fail(
        f"each update must be [u, v], [u, v, delta] or an object, got {item!r}"
    )


def _req_column(payload: Mapping[str, Any], field: str) -> "list[int]":
    values = payload.get(field)
    if not isinstance(values, (list, tuple)):
        raise _fail(f"column {field!r} must be an array of integers")
    for value in values:
        if not isinstance(value, int) or isinstance(value, bool):
            raise _fail(
                f"column {field!r} must contain only integers, got {value!r}"
            )
    return list(values)


def parse_columns(payload: Mapping[str, Any]) -> "list[EdgeUpdate]":
    """Decode columnar ``lo``/``hi``/optional ``delta`` arrays into updates.

    The columnar form carries exactly the row-wise information —
    ``updates[i] == [lo[i], hi[i], delta[i]]`` — so it decodes to the
    identical update list and the two ingest endpoints are
    wire-equivalent (parity pinned by ``tests/test_serve.py``).  An
    omitted ``delta`` column means unit insertions, matching the
    ``[u, v]`` pair form.
    """
    lo = _req_column(payload, "lo")
    hi = _req_column(payload, "hi")
    if len(hi) != len(lo):
        raise _fail(f"column 'hi' length {len(hi)} != 'lo' length {len(lo)}")
    if payload.get("delta") is None:
        delta: "list[int]" = [1] * len(lo)
    else:
        delta = _req_column(payload, "delta")
        if len(delta) != len(lo):
            raise _fail(
                f"column 'delta' length {len(delta)} != 'lo' length {len(lo)}"
            )
    return [EdgeUpdate(u, v, d) for u, v, d in zip(lo, hi, delta)]


class Tenant:
    """One spec + engine + serialisation lock + counters."""

    def __init__(
        self,
        name: str,
        spec: SketchSpec,
        deployment: "dict[str, Any]",
        engine: GraphSketchEngine,
    ) -> None:
        self.name = name
        self.spec = spec
        self.deployment = deployment
        self.engine = engine
        self.sharded = deployment.get("sharded") is not None
        self.temporal = deployment.get("epochs") is not None
        #: Serialises every engine operation (drain, query, snapshot).
        self.lock = asyncio.Lock()
        #: Jobs admitted for this tenant and not yet drained.
        self.pending = 0
        self._idle = asyncio.Condition()
        self.updates_ingested = 0
        self.batches_ingested = 0
        self.batches_deduplicated = 0
        self.epochs_sealed = 0
        self.drain_errors = 0
        self.last_drain_error: "str | None" = None
        self.queries: "dict[str, int]" = {}
        self.query_seconds = 0.0
        self.query_payload_bytes = 0

    # -- drain-side accounting (event loop only) ------------------------------

    def note_admitted(self) -> None:
        self.pending += 1

    async def note_drained(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            async with self._idle:
                self._idle.notify_all()

    async def wait_idle(self) -> None:
        """Block until every admitted job has drained (read-your-writes)."""
        async with self._idle:
            await self._idle.wait_for(lambda: self.pending == 0)

    # -- blocking engine calls (run via asyncio.to_thread, under lock) --------

    def apply_sync(self, updates: "list[EdgeUpdate]") -> None:
        """Ingest one admitted batch through the configured deployment."""
        if self.sharded:
            # Sharded engines partition whole streams; linearity merges
            # the per-ingest reports into the same state one big stream
            # would have produced.
            self.engine.ingest(DynamicGraphStream(self.spec.n, updates))
        else:
            self.engine.ingest_batch(StreamBatch.from_updates(self.spec.n, updates))
        self.updates_ingested += len(updates)
        self.batches_ingested += 1

    def seal_sync(self) -> int:
        """Seal the open epoch; returns the sealed-epoch count."""
        self.engine.seal_epoch()
        self.epochs_sealed = self.engine.epochs_sealed
        return self.epochs_sealed

    def query_sync(self, payload: "Mapping[str, Any]") -> QueryResult:
        result = self.engine.query(payload)
        cap = result.capability
        self.queries[cap] = self.queries.get(cap, 0) + 1
        self.query_seconds += result.telemetry.seconds
        self.query_payload_bytes += result.telemetry.payload_bytes
        return result

    def info(self) -> "dict[str, Any]":
        return {
            "name": self.name,
            "spec": {
                "kind": self.spec.kind,
                "n": self.spec.n,
                "seed": self.spec.seed,
                "params": dict(self.spec.params),
            },
            "deployment": self.deployment,
            "capabilities": sorted(capability_entry(self.spec.kind).queries),
            "pending": self.pending,
            "updates_ingested": self.updates_ingested,
            "batches_ingested": self.batches_ingested,
            "batches_deduplicated": self.batches_deduplicated,
            "epochs_sealed": self.epochs_sealed,
            "drain_errors": self.drain_errors,
            "last_drain_error": self.last_drain_error,
        }


def _parse_deployment(
    raw: "Mapping[str, Any] | None",
) -> "dict[str, Any]":
    """Validate and normalise the deployment declaration."""
    raw = raw or {}
    if not isinstance(raw, Mapping):
        raise _fail("section 'deployment' must be an object")
    unknown = set(raw) - {"sharded", "epochs", "workers"}
    if unknown:
        raise _fail(
            f"unknown deployment sections: {', '.join(sorted(unknown))}"
        )
    deployment: dict[str, Any] = {"sharded": None, "epochs": None, "workers": None}
    sharded = _opt_section(raw, "sharded")
    if sharded is not None:
        deployment["sharded"] = {
            "sites": _opt_int(sharded, "sites", 4),
            "strategy": sharded.get("strategy", "hash-edge"),
            "seed": _opt_int(sharded, "seed", 0),
        }
    epochs = _opt_section(raw, "epochs")
    if epochs is not None:
        if "count" in epochs or "boundaries" in epochs:
            raise NotSupportedError(
                "epoch grids (count/boundaries) need the whole stream at "
                "once; served temporal tenants seal manually through the "
                "seal endpoint — declare \"epochs\": {}"
            )
        deployment["epochs"] = {}
    workers = _opt_section(raw, "workers")
    if workers is not None:
        deployment["workers"] = {
            "mode": workers.get("mode", "sequential"),
            "processes": _opt_int(workers, "processes"),
            "start_method": workers.get("start_method"),
        }
    if deployment["sharded"] is not None and deployment["epochs"] is not None:
        raise NotSupportedError(
            "sharding and manual epochs do not combine on a served tenant; "
            "the engine's incremental temporal mode is local-only"
        )
    return deployment


def _build_engine(
    spec: SketchSpec, deployment: "Mapping[str, Any]"
) -> GraphSketchEngine:
    engine = GraphSketchEngine.for_spec(spec)
    sharded = deployment["sharded"]
    if sharded is not None:
        engine = engine.sharded(
            sites=sharded["sites"],
            strategy=sharded["strategy"],
            seed=sharded["seed"],
        )
    workers = deployment["workers"]
    if workers is not None:
        engine = engine.workers(
            mode=workers["mode"],
            processes=workers["processes"],
            start_method=workers["start_method"],
        )
    if deployment["epochs"] is not None:
        engine = engine.epochs()
    return engine


class TenantRegistry:
    """Name → live tenant, with validated creation and teardown."""

    def __init__(self) -> None:
        self._tenants: "dict[str, Tenant]" = {}

    def create(self, payload: "Mapping[str, Any]") -> Tenant:
        """Validate a declaration, build the engine, register the tenant.

        Raises :class:`WireFormatError` on malformed payloads (400),
        :class:`~repro.errors.NotSupportedError` on undeclarable
        configurations (422), ``ValueError`` on bad spec params (400)
        and :class:`DuplicateTenant` on a name collision (409).
        """
        if not isinstance(payload, Mapping):
            raise _fail("declaration must be an object")
        name = _req_str(payload, "name")
        if not _NAME_RE.match(name):
            raise _fail(
                f"tenant name {name!r} must match {_NAME_RE.pattern}"
            )
        if name in self._tenants:
            raise DuplicateTenant(f"tenant {name!r} already exists")
        spec_section = _opt_section(payload, "spec")
        if spec_section is None:
            raise _fail("missing required section 'spec'")
        spec = parse_spec(spec_section)
        if capability_entry(spec.kind).adaptive:
            raise NotSupportedError(
                f"{spec.kind!r} is an adaptive multi-batch builder with no "
                "linear state; it cannot ingest incrementally and is not "
                "servable"
            )
        spec.build()  # surface bad params now (ValueError -> 400)
        deployment = _parse_deployment(_opt_section(payload, "deployment"))
        engine = _build_engine(spec, deployment)
        tenant = Tenant(name, spec, deployment, engine)
        self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenant(f"no tenant named {name!r}")
        return tenant

    def remove(self, name: str) -> Tenant:
        tenant = self.get(name)
        del self._tenants[name]
        tenant.engine.close()
        return tenant

    def names(self) -> "list[str]":
        return sorted(self._tenants)

    def tenants(self) -> "list[Tenant]":
        return [self._tenants[name] for name in self.names()]

    def close_all(self) -> None:
        for tenant in self._tenants.values():
            tenant.engine.close()
        self._tenants.clear()
