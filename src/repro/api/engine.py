"""`GraphSketchEngine` — one facade over local, sharded, and temporal
sketching.

The AGM paper's pitch is that *one* linear-sketch abstraction serves
every deployment mode; the engine makes that literal.  A declarative
:class:`~repro.api.SketchSpec` names the sketch once, the fluent
builder names the deployment once, and the same ingestion handles and
the same single ``query()`` dispatch work in every combination::

    spec = SketchSpec.of("spanning_forest", n=64, seed=7)

    # local, single-pass
    local = GraphSketchEngine.for_spec(spec).ingest(stream)

    # the §1.1 multi-site deployment (identical answers, by linearity)
    sharded = (GraphSketchEngine.for_spec(spec)
               .sharded(sites=4, strategy="hash-edge")
               .workers(mode="process")
               .ingest(stream))

    # temporal epoch checkpoints + windowed queries by subtraction
    windowed = (GraphSketchEngine.for_spec(spec)
                .epochs(count=6)
                .ingest(stream))
    windowed.query(ConnectivityQuery(window=(2, 5)))

Internally the engine routes to the exact pipelines the library always
had — the columnar batch path, :class:`~repro.distributed.
ShardedSketchRunner`, :class:`~repro.temporal.EpochManager` — so its
results are *byte-identical* to the hand-wired equivalents (pinned by
``tests/test_api_engine.py``) and the facade adds no hot-path work.
``snapshot()``/``restore()`` ride codec v2: a local or sharded engine
snapshots to one ``dump_sketch`` blob, a temporal engine to one epoch
manifest, and ``restore`` rebuilds a queryable engine from either.
"""

from __future__ import annotations

import functools
import os
import time
from collections.abc import Mapping
from types import TracebackType
from typing import Any

from ..distributed.coordinator import EXECUTION_MODES, ShardedSketchRunner
from ..distributed.partition import PARTITION_STRATEGIES, partition_stream
from ..errors import NotSupportedError, SketchCompatibilityError
from ..sketch.serialize import (
    _MANIFEST_KIND,
    dump_sketch,
    load_sketch,
    peek_sketch_meta,
)
from ..streams import DynamicGraphStream, StreamBatch
from ..temporal.epochs import EpochCheckpoint, EpochManager, EpochTimeline
from ..temporal.query import materialise_window, window_payload_bytes
from ..temporal.store import STORE_POINTER_KIND, EpochStore, RetentionPolicy
from .capabilities import CapabilityEntry, capability_entry
from .dispatch import _answer_query
from .queries import (
    Query,
    QueryResult,
    QueryTelemetry,
    SpannerDistanceQuery,
    SpannerDistanceResult,
    capability_of,
)
from .spec import SketchSpec, build_sketch
from .wire import query_from_dict

__all__ = ["GraphSketchEngine"]

_SKETCH_PREFIX = "sketch:"


def _require_spec_kind(spec: SketchSpec | None, blob_kind: str) -> None:
    """Refuse a restore() override spec whose kind contradicts the blob.

    Dispatching (say) mincut handlers on a loaded MST-weight sketch
    would fail deep inside a query with a baffling AttributeError;
    refuse up front instead.
    """
    if spec is not None and spec.kind != blob_kind:
        raise SketchCompatibilityError(
            f"cannot restore: blob holds a {blob_kind!r} sketch but the "
            f"override spec declares {spec.kind!r}"
        )


class GraphSketchEngine:
    """The public entry point: spec in, typed answers out.

    Build with :meth:`for_spec`, optionally configure a deployment with
    the fluent :meth:`sharded` / :meth:`epochs` / :meth:`workers`
    (before the first ingest), feed data through :meth:`ingest` /
    :meth:`ingest_batch` / :meth:`seal_epoch`, and ask questions
    through :meth:`query` — which dispatches on the capability registry
    and refuses (:class:`~repro.errors.NotSupportedError`) queries the
    spec's sketch class does not declare.
    """

    def __init__(self, spec: SketchSpec):
        self.spec = spec
        self._entry: CapabilityEntry = capability_entry(spec.kind)
        # deployment configuration (frozen at first ingest)
        self._sites: int | None = None
        self._strategy: str = "hash-edge"
        self._partition_seed: int = 0
        self._mode: str = "sequential"
        self._processes: int | None = None
        self._start_method: str | None = None
        self._runner_obj: ShardedSketchRunner | None = None
        self._temporal: bool = False
        self._epoch_count: int | None = None
        self._epoch_boundaries: tuple[int, ...] | None = None
        self._store: EpochStore | None = None
        self._store_path: "str | os.PathLike[str] | None" = None
        self._store_retention: RetentionPolicy | None = None
        self._store_horizon: int | None = None
        # runtime state
        self._started = False
        self._sketch: Any = None
        self._manager: EpochManager | None = None
        self._timeline: EpochTimeline | None = None
        self._shards: list[DynamicGraphStream] | None = None
        self._spanner_report: Any = None
        self._last_report: Any = None
        self._shipped_bytes: int = 0

    # -- fluent configuration ---------------------------------------------------

    @classmethod
    def for_spec(cls, spec: SketchSpec) -> "GraphSketchEngine":
        """Start a fluent engine build for one spec."""
        return cls(spec)

    def _require_unstarted(self, what: str) -> None:
        if self._started:
            raise NotSupportedError(
                f"cannot configure {what} after ingestion has started"
            )

    def sharded(
        self,
        sites: int = 4,
        strategy: str = "hash-edge",
        seed: int = 0,
    ) -> "GraphSketchEngine":
        """Deploy across ``sites`` simulated sites (§1.1).

        ``strategy`` picks the deterministic partition; ``seed`` feeds
        the hash-based strategies.  Ingested streams are partitioned,
        each site folds its shard into a result slot, and the
        coordinator checks each site sketch's kind, parameters and seed
        and adds the slots into its own sketch — answers are
        byte-identical to a local run.  Sites run one after another in
        this process unless :meth:`workers` picks ``"process"``; either
        way the path and the byte figure (:attr:`shipped_bytes`) are
        the same.
        """
        self._require_unstarted("sharding")
        if strategy not in PARTITION_STRATEGIES:
            raise NotSupportedError(
                f"unknown partition strategy {strategy!r}; choose from "
                f"{', '.join(PARTITION_STRATEGIES)}"
            )
        if sites < 1:
            raise ValueError(f"need at least one site, got {sites}")
        self._sites = sites
        self._strategy = strategy
        self._partition_seed = seed
        return self

    def epochs(
        self,
        count: int | None = None,
        boundaries: "list[int] | tuple[int, ...] | None" = None,
        store: "EpochStore | str | os.PathLike[str] | None" = None,
        retention: RetentionPolicy | None = None,
        horizon: int | None = None,
    ) -> "GraphSketchEngine":
        """Seal cumulative checkpoints and answer windowed queries.

        Pass ``count`` for an even epoch grid or ``boundaries`` for
        explicit epoch-end token positions (applied by :meth:`ingest`);
        pass neither to seal manually with :meth:`ingest_batch` +
        :meth:`seal_epoch`.  Not available for the adaptive spanner
        builders, which hold no serialisable linear state.

        With ``store=`` (a directory path or an
        :class:`~repro.temporal.EpochStore`) checkpoints are sealed
        *durably*: appended to the on-disk store with dyadic compaction
        instead of accumulating in an in-memory timeline, with
        ``retention`` (a :class:`~repro.temporal.RetentionPolicy`) and
        ``horizon`` forwarded to the store.  Windowed queries then page
        O(log T) span blobs from disk.
        """
        self._require_unstarted("epochs")
        if not self._entry.serialisable:
            raise NotSupportedError(
                f"{self.spec.kind!r} is an adaptive builder; it has no "
                "checkpointable linear state, so temporal mode does not apply"
            )
        if count is not None and boundaries is not None:
            raise ValueError("pass at most one of count= or boundaries=")
        if store is None and (retention is not None or horizon is not None):
            raise ValueError(
                "retention=/horizon= configure the durable store; pass "
                "store= as well"
            )
        self._temporal = True
        self._epoch_count = count
        self._epoch_boundaries = (
            tuple(int(b) for b in boundaries) if boundaries is not None else None
        )
        if isinstance(store, EpochStore):
            self._store = store
        else:
            self._store_path = store
        self._store_retention = retention
        self._store_horizon = horizon
        return self

    def workers(
        self,
        mode: str = "sequential",
        processes: int | None = None,
        start_method: str | None = None,
    ) -> "GraphSketchEngine":
        """Pick the site execution mode (``"sequential"``/``"process"``).

        ``mode="process"`` runs sites on one persistent shared-memory
        worker pool, reused across every ingest on this engine;
        ``processes`` sizes it (default: ``min(sites, CPUs)``) and
        ``start_method`` overrides the platform default
        (``"forkserver"`` on Linux, else ``"spawn"`` — the documented
        portable fallback).  Release
        the pool and its shared segments with :meth:`close` or by using
        the engine as a context manager.
        """
        self._require_unstarted("workers")
        if mode not in EXECUTION_MODES:
            raise NotSupportedError(
                f"unknown execution mode {mode!r}; choose from "
                f"{', '.join(EXECUTION_MODES)}"
            )
        if mode == "process" and self._entry.adaptive:
            raise NotSupportedError(
                f"{self.spec.kind!r} is an adaptive builder; its sharded "
                "build is a coordinator-driven round protocol and does not "
                "run sites in worker processes"
            )
        if processes is not None and processes < 1:
            raise ValueError(
                f"processes must be >= 1, got {processes} (omit it for "
                "the min(sites, cpus) default)"
            )
        self._mode = mode
        self._processes = processes
        self._start_method = start_method
        return self

    def kernel_stats(self) -> list[dict]:
        """Per-kernel call-count/seconds telemetry (process-wide)."""
        from .. import kernels as _kernels

        return _kernels.kernel_stats()

    # -- introspection ----------------------------------------------------------

    @property
    def deployment(self) -> str:
        """``"local"``, ``"sharded"``, ``"temporal"`` or ``"sharded-temporal"``."""
        if self._sites is not None and self._temporal:
            return "sharded-temporal"
        if self._sites is not None:
            return "sharded"
        if self._temporal:
            return "temporal"
        return "local"

    @property
    def capabilities(self) -> frozenset[str]:
        """Queries the spec's sketch class declares."""
        return self._entry.queries

    @property
    def epochs_sealed(self) -> int:
        """Sealed epochs addressable by window queries (0 outside temporal)."""
        source = self._window_source()
        return source.epochs if source is not None else 0

    @property
    def timeline(self) -> EpochTimeline | None:
        """The sealed checkpoint timeline (``None`` outside temporal mode).

        Store-backed engines deliberately hold no in-memory timeline
        (bounded RAM is the point) — use :attr:`store` instead.
        """
        return self._current_timeline()

    @property
    def store(self) -> EpochStore | None:
        """The attached durable epoch store (``None`` unless store-backed)."""
        return self._store

    def window_tokens(self, t1: int, t2: int) -> int:
        """Number of stream tokens the epoch window ``[t1, t2)`` spans."""
        source = self._window_source()
        if source is None:
            raise NotSupportedError("no epochs sealed yet")
        from ..temporal.query import window_tokens

        return window_tokens(source, t1, t2)

    @property
    def shipped_bytes(self) -> int:
        """Bytes the coordinator read from site slots across all ingests.

        Per site and round: 16 per nonzero ``(index, value)`` entry, or
        32 per cell when the slot is dense (see
        :class:`~repro.distributed.SiteReport`); an epoch-grid ingest
        counts each epoch's delta.  Both execution modes report it.  An
        adaptive spanner, which runs its own round protocol instead of
        the sharded runner, counts each site bank it hands over by the
        same rule (:func:`~repro.sketch.arena.slot_bytes`), so every
        kind reports one figure.
        """
        return self._shipped_bytes

    @property
    def last_report(self) -> Any:
        """The most recent sharded run/epoch report (``None`` if local)."""
        return self._last_report

    # -- ingestion --------------------------------------------------------------

    def _factory(self):
        """The picklable identically-seeded sketch factory for this spec."""
        return functools.partial(build_sketch, self.spec)

    def _runner(self) -> ShardedSketchRunner:
        """The configured sharded runner, built once and reused.

        Reuse is what makes repeated process-mode ingests cheap: the
        runner keeps its worker pool and shared segments warm across
        ``ingest()`` calls.  :meth:`close` releases them (and drops the
        runner, so a later ingest transparently builds a fresh one).
        """
        if self._runner_obj is None:
            self._runner_obj = ShardedSketchRunner(
                self._factory(),
                sites=self._sites,
                strategy=self._strategy,
                mode=self._mode,
                seed=self._partition_seed,
                processes=self._processes,
                start_method=self._start_method,
            )
        return self._runner_obj

    def close(self) -> None:
        """Release the sharded runner: its worker pool and shared
        segments in process mode, its warm site sketch and buffers in
        either mode.

        Safe on any engine (a no-op when nothing is sharded) and
        idempotent; the engine stays queryable — only the execution
        resources are torn down, to be lazily rebuilt if needed.
        """
        runner, self._runner_obj = self._runner_obj, None
        if runner is not None:
            runner.close()

    def __enter__(self) -> "GraphSketchEngine":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def _require_manual_temporal(self, what: str) -> None:
        """Manual epoch sealing is local-only and pre-restore-only."""
        if self._timeline is not None:
            raise NotSupportedError(
                f"cannot {what}: this engine's timeline is already sealed "
                "(restored from a snapshot or built along a configured grid)"
            )
        if self._sites is not None:
            raise NotSupportedError(
                f"cannot {what}: manual epoch sealing is local-only; "
                "sharded temporal engines need an epoch grid "
                "(.epochs(count=...) or .epochs(boundaries=...))"
            )

    def ingest(self, stream: DynamicGraphStream) -> "GraphSketchEngine":
        """Consume a whole dynamic graph stream through the configured
        deployment (columnar path everywhere).

        ``_started`` flips only once the ingest succeeded — a failed
        ingest leaves the engine configurable and still refusing
        queries, rather than claiming data it never absorbed.
        """
        if self._entry.adaptive:
            self._ingest_adaptive(stream)
        elif self._temporal and (
            self._epoch_count is not None or self._epoch_boundaries is not None
        ):
            self._ingest_epoch_grid(stream)
        elif self._temporal:
            self._require_manual_temporal("ingest")
            self._ensure_manager().extend(stream.as_batch())
        elif self._sites is not None:
            report = self._runner().run(stream)
            if self._sketch is None:
                self._sketch = report.sketch
            else:
                self._sketch.merge(report.sketch)
            self._last_report = report
            self._shipped_bytes += report.total_payload_bytes
        else:
            self._ensure_sketch().consume_batch(stream.as_batch())
        self._started = True
        return self

    def ingest_batch(self, batch: StreamBatch) -> "GraphSketchEngine":
        """Feed one columnar batch (local and incremental-temporal modes)."""
        if self._entry.adaptive:
            raise NotSupportedError(
                f"{self.spec.kind!r} is an adaptive multi-batch builder; "
                "ingest a whole replayable stream with ingest()"
            )
        if self._sites is not None:
            raise NotSupportedError(
                "sharded engines partition whole streams; use ingest()"
            )
        if self._temporal:
            if self._epoch_count is not None or \
                    self._epoch_boundaries is not None:
                raise NotSupportedError(
                    "this engine seals epochs along a configured grid; "
                    "use ingest() once, or configure .epochs() without a "
                    "grid for manual sealing"
                )
            self._require_manual_temporal("ingest_batch")
            self._ensure_manager().extend(batch)
        else:
            self._ensure_sketch().consume_batch(batch)
        self._started = True
        return self

    def seal_epoch(self) -> EpochCheckpoint:
        """Close the open epoch and checkpoint the cumulative sketch
        (incremental-temporal mode)."""
        if not self._temporal:
            raise NotSupportedError(
                "seal_epoch() needs temporal mode; configure .epochs() first"
            )
        if self._epoch_count is not None or self._epoch_boundaries is not None:
            raise NotSupportedError(
                "this engine seals epochs along its configured grid at "
                "ingest(); manual sealing needs .epochs() without a grid"
            )
        self._require_manual_temporal("seal_epoch")
        checkpoint = self._ensure_manager().seal_epoch()
        self._started = True
        return checkpoint

    def _ingest_adaptive(self, stream: DynamicGraphStream) -> "GraphSketchEngine":
        if self._shards is not None:
            raise NotSupportedError(
                "adaptive spanner engines take one full-stream ingest"
            )
        if self._sites is not None:
            self._shards = list(partition_stream(
                stream, self._sites, self._strategy, self._partition_seed
            ))
        else:
            self._shards = [stream]
        self._spanner_report = None
        return self

    def _ingest_epoch_grid(self, stream: DynamicGraphStream) -> "GraphSketchEngine":
        if self._timeline is not None:
            raise NotSupportedError(
                "the epoch grid has been applied; this engine's timeline "
                "is already sealed"
            )
        boundaries = (
            list(self._epoch_boundaries)
            if self._epoch_boundaries is not None else None
        )
        store = self._ensure_store()
        if self._sites is not None:
            report = self._runner().run_epochs(
                stream, epochs=self._epoch_count, boundaries=boundaries,
                store=store,
            )
            if store is None:
                self._timeline = report.timeline
            self._last_report = report
            self._shipped_bytes += report.total_payload_bytes
        elif store is not None:
            EpochManager.consume(
                self._factory(), stream,
                epochs=self._epoch_count, boundaries=boundaries, store=store,
            )
        else:
            timeline = EpochManager.consume(
                self._factory(), stream,
                epochs=self._epoch_count, boundaries=boundaries,
            )
            assert isinstance(timeline, EpochTimeline)
            self._timeline = timeline
        return self

    def _ensure_sketch(self) -> Any:
        if self._sketch is None:
            self._sketch = self.spec.build()
        return self._sketch

    def _ensure_store(self) -> EpochStore | None:
        """Open/create the configured durable store on first use."""
        if self._store is None and self._store_path is not None:
            self._store = EpochStore(
                self._store_path,
                retention=self._store_retention,
                horizon=self._store_horizon,
            )
            self._store_path = None
        return self._store

    def _ensure_manager(self) -> EpochManager:
        if self._manager is None:
            store = self._ensure_store()
            if store is not None and store.epochs > 0:
                self._manager = EpochManager.resume(self._factory(), store)
            else:
                self._manager = EpochManager(self._factory(), store=store)
        return self._manager

    def _current_timeline(self) -> EpochTimeline | None:
        if self._timeline is not None:
            return self._timeline
        if self._manager is not None and self._manager.store is None and \
                self._manager.sealed_epochs > 0:
            return self._manager.timeline()
        return None

    def _window_source(self) -> "EpochStore | EpochTimeline | None":
        """Whatever windowed queries should read: store first, else timeline."""
        store = self._store
        if store is not None and store.epochs > 0:
            return store
        return self._current_timeline()

    # -- queries ----------------------------------------------------------------

    def query(self, query: "Query | Mapping[str, Any]") -> QueryResult:
        """Answer one typed query through the capability registry.

        ``query`` is a typed :class:`Query` or its wire-stable dict
        form (schema v1, :mod:`repro.api.wire`) — a network caller can
        pass a decoded JSON body straight through; malformed dicts
        raise :class:`~repro.errors.WireFormatError`.

        Dispatch is uniform across deployments: a temporal engine
        materialises the query's epoch window (default: the full sealed
        prefix) by checkpoint subtraction first; local and sharded
        engines answer straight off the live/merged sketch.  The result
        is a frozen dataclass carrying wall-clock and payload-byte
        telemetry.
        """
        if isinstance(query, Mapping):
            query = query_from_dict(query)
        capability = capability_of(query)
        if capability not in self._entry.queries:
            raise NotSupportedError(
                f"sketch kind {self.spec.kind!r} does not declare the "
                f"{capability!r} capability; it declares "
                f"{', '.join(sorted(self._entry.queries)) or 'none'}"
            )
        t0 = time.perf_counter()
        if self._entry.adaptive:
            return self._answer_spanner(query, t0)
        payload_bytes = 0
        window: tuple[int, int] | None = None
        if self._temporal:
            source = self._window_source()
            if source is None:
                raise NotSupportedError(
                    "no epochs sealed yet; ingest a stream or seal_epoch() "
                    "before querying a temporal engine"
                )
            # A store under retention may have evicted a prefix; the
            # default full window starts at its floor.
            t1, t2 = query.window if query.window is not None \
                else (getattr(source, "base", 0), source.epochs)
            sketch = materialise_window(source, t1, t2)
            payload_bytes = window_payload_bytes(source, t1, t2)
            window = (t1, t2)
        else:
            if query.window is not None:
                raise NotSupportedError(
                    "window queries need a temporal engine; configure "
                    ".epochs(...) before ingesting"
                )
            if not self._started:
                raise NotSupportedError(
                    "no data ingested; call ingest()/ingest_batch() before "
                    "querying"
                )
            sketch = self._ensure_sketch()
        result_cls, fields = _answer_query(capability, sketch, query)
        telemetry = QueryTelemetry(time.perf_counter() - t0, payload_bytes)
        return result_cls(
            **fields,
            kind=self.spec.kind,
            capability=capability,
            window=window,
            telemetry=telemetry,
        )

    def _answer_spanner(self, query: Query, t0: float) -> QueryResult:
        if query.window is not None:
            raise NotSupportedError(
                "adaptive spanner builders do not support temporal windows"
            )
        if self._shards is None:
            raise NotSupportedError(
                "no stream ingested; adaptive builders need ingest(stream) "
                "before querying"
            )
        if self._spanner_report is None:
            builder = self.spec.build()
            if len(self._shards) == 1:
                self._spanner_report = builder.build(self._shards[0])
            elif hasattr(builder, "build_sharded"):
                self._spanner_report = builder.build_sharded(self._shards)
            else:
                raise NotSupportedError(
                    f"{self.spec.kind!r} has no sharded build protocol; "
                    "use a local (unsharded) engine"
                )
            self._shipped_bytes += self._spanner_report.shipped_bytes
        report = self._spanner_report
        distance: float | None = None
        if isinstance(query, SpannerDistanceQuery) and \
                query.source is not None and query.target is not None:
            from ..graphs import bfs_distances

            distance = bfs_distances(report.spanner, query.source)[query.target]
        telemetry = QueryTelemetry(
            time.perf_counter() - t0, report.shipped_bytes
        )
        return SpannerDistanceResult(
            edges=report.edges,
            batches=report.batches,
            stretch_bound=report.stretch_bound,
            shipped_bytes=report.shipped_bytes,
            distance=distance,
            spanner=report.spanner,
            kind=self.spec.kind,
            capability="spanner-distance",
            telemetry=telemetry,
        )

    # -- persistence ------------------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialise the engine's state on codec v2.

        Local/sharded engines snapshot to one ``dump_sketch`` blob;
        temporal engines to one epoch-manifest blob.  Either restores —
        with full integrity verification — via :meth:`restore`.
        """
        if self._entry.adaptive:
            raise NotSupportedError(
                "adaptive spanner builders hold no serialisable linear state"
            )
        if self._store is not None and self._store.epochs > 0:
            # Store-backed state lives on disk already; the snapshot is
            # a verified pointer at the catalog, not a copy of it.
            return self._store.pointer_bytes()
        if self._temporal:
            timeline = self._current_timeline()
            if timeline is None:
                raise NotSupportedError("no epochs sealed yet; nothing to snapshot")
            return timeline.to_bytes()
        return dump_sketch(self._ensure_sketch())

    @classmethod
    def restore(
        cls, data: bytes, spec: SketchSpec | None = None
    ) -> "GraphSketchEngine":
        """Rebuild a queryable engine from :meth:`snapshot` bytes.

        Sketch blobs restore a local engine; epoch manifests restore a
        temporal engine (windowed queries work immediately); store
        pointers (:meth:`~repro.temporal.EpochStore.pointer_bytes`)
        reopen the on-disk store and attach it.  ``spec`` optionally
        overrides the spec reconstructed from the blob header (kind, n,
        seed) — e.g. to re-attach constructor params.
        """
        header = peek_sketch_meta(data)
        kind = str(header.get("__kind__", ""))
        if kind == STORE_POINTER_KIND:
            return cls.attach_store(EpochStore.from_pointer(data), spec=spec)
        if kind == _MANIFEST_KIND:
            timeline = EpochTimeline.from_bytes(data)
            sketch_kind = timeline.sketch_kind
            if sketch_kind.startswith(_SKETCH_PREFIX):
                sketch_kind = sketch_kind[len(_SKETCH_PREFIX):]
            _require_spec_kind(spec, sketch_kind)
            first = peek_sketch_meta(timeline.checkpoints[0].payload)
            engine = cls(spec or SketchSpec(
                kind=sketch_kind,
                n=int(first.get("n", timeline.n)),
                seed=int(first.get("seed", 0)),
            ))
            engine._temporal = True
            engine._timeline = timeline
            engine._started = True
            return engine
        if kind.startswith(_SKETCH_PREFIX):
            _require_spec_kind(spec, kind[len(_SKETCH_PREFIX):])
            sketch = load_sketch(data)
            engine = cls(spec or SketchSpec(
                kind=kind[len(_SKETCH_PREFIX):],
                n=int(header.get("n", getattr(sketch, "n", 0))),
                seed=int(header.get("seed", 0)),
            ))
            engine._sketch = sketch
            engine._started = True
            return engine
        raise ValueError(
            f"blob holds a {kind!r}, not an engine snapshot "
            "(sketch blob, epoch manifest, or store pointer)"
        )

    @classmethod
    def attach_store(
        cls,
        store: "EpochStore | str | os.PathLike[str]",
        spec: SketchSpec | None = None,
    ) -> "GraphSketchEngine":
        """Build a queryable temporal engine over an existing store.

        The spec is reconstructed from the store's recorded sketch
        kind, universe, and seed (overridable with ``spec``, checked
        for kind agreement); windowed queries work immediately, and
        further :meth:`ingest_batch` + :meth:`seal_epoch` calls resume
        appending where the store left off.
        """
        if not isinstance(store, EpochStore):
            store = EpochStore.open(store)
        if store.epochs == 0:
            raise NotSupportedError(
                f"store at {store.root!s} is empty; it records no sketch "
                "kind to build an engine from — seal epochs into it first"
            )
        sketch_kind = store.sketch_kind
        if sketch_kind.startswith(_SKETCH_PREFIX):
            sketch_kind = sketch_kind[len(_SKETCH_PREFIX):]
        _require_spec_kind(spec, sketch_kind)
        engine = cls(spec or SketchSpec(
            kind=sketch_kind, n=store.n, seed=store.seed,
        ))
        engine._temporal = True
        engine._store = store
        engine._started = True
        return engine

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphSketchEngine(kind={self.spec.kind!r}, n={self.spec.n}, "
            f"deployment={self.deployment!r})"
        )
