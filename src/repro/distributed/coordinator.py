"""The coordinator side of multi-site sketching.

:class:`ShardedSketchRunner` simulates the Section 1.1 deployment end
to end: partition the stream, let each of ``K`` sites consume its shard
through the columnar path, ship the site state to the coordinator, and
linearly merge there.  Either execution mode produces a byte-identical
coordinator sketch — pinned by ``tests/test_distributed_equivalence.py``.

Execution modes:

* ``"sequential"`` — sites run in-process, one after another.  Each
  site serialises its sketch through codec v2 (the only thing that
  crosses the site → coordinator boundary), so the measured payload is
  exactly what a networked deployment would ship.  Zero setup cost;
  the default for tests and small workloads.
* ``"process"`` — sites run concurrently on a **persistent** worker
  pool over **shared memory** (see :mod:`repro.distributed.shm`).  The
  partitioned stream columns are published once into a shared input
  segment; each worker keeps a warm, identically-seeded sketch whose
  cell banks are re-pointed (:meth:`SketchArena.adopt_external`) at its
  site's slot of a shared result segment, folds its shard in place, and
  returns only a ``(site, tokens, nbytes, seconds)`` handle.  The
  coordinator merges slots through arena views — ``O(nnz)`` for
  lightly-loaded sites — with no serialise/verify/inflate round-trip.

The pool is created lazily on the first process-mode run and reused by
every subsequent ``run()``/``run_epochs()`` on the same runner; the
default start method is ``"forkserver"`` where the platform offers it
(Linux — cheap worker startup once the fork server has warmed, and the
server process is single-threaded so the fork is safe) and ``"spawn"``
everywhere else (identical semantics on every platform, immune to
fork-vs-threaded-BLAS corruption).  Pass ``start_method="spawn"`` to
force the portable behaviour on Linux too.  Call :meth:`ShardedSketchRunner.close` —
or use the runner as a context manager — to terminate the pool and
unlink every shared segment; a ``KeyboardInterrupt`` mid-run tears both
down automatically, and garbage collection is a safety net for the
rest (see :mod:`repro.distributed.shm` for the crash story).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from types import TracebackType
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SketchCompatibilityError, StreamError
from ..sketch.arena import SketchArena, ensure_arena
from ..sketch.serialize import dump_sketch, merge_sketch_bytes
from ..streams import DynamicGraphStream, StreamBatch
from ..temporal.epochs import (
    EpochCheckpoint,
    EpochManager,
    EpochTimeline,
    normalize_boundaries,
)
from .partition import partition_batch, shard_assignment
from .shm import SegmentRegistry, reset_worker_cache, worker_view

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from ..temporal.store import EpochStore

__all__ = [
    "SiteReport",
    "ShardedRunReport",
    "ShardedEpochReport",
    "ShardedSketchRunner",
    "default_start_method",
]

#: Execution modes accepted by :class:`ShardedSketchRunner`.
EXECUTION_MODES = ("sequential", "process")


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_start_method() -> str:
    """The pool start method used when none is requested.

    ``"forkserver"`` where the platform offers it (Linux): workers fork
    from a warmed single-threaded server, so startup is cheap and the
    fork cannot snapshot a threaded (BLAS) parent.  ``"spawn"``
    elsewhere — the portable fallback with identical semantics on every
    platform.
    """
    if "forkserver" in multiprocessing.get_all_start_methods():
        return "forkserver"
    return "spawn"


@dataclass(frozen=True, slots=True)
class SiteReport:
    """What one site did and shipped.

    ``payload_bytes`` is the per-site communication cost, *independent
    of* ``tokens`` (the point of the model).  In sequential mode it is
    the codec-v2 serialised sketch size; in process mode it is the
    bytes the coordinator reads from the site's shared slot — the
    sparse ``(index, value)`` pairs for a lightly-loaded site, the
    dense cell buffer otherwise.
    """

    site: int
    tokens: int
    payload_bytes: int
    seconds: float


@dataclass(frozen=True, slots=True)
class ShardedRunReport:
    """Outcome of one sharded run.

    Attributes
    ----------
    sketch:
        The coordinator's merged sketch — query it exactly as if it had
        consumed the whole stream.
    sites:
        Per-site consumption/communication reports.
    strategy, mode:
        The partition strategy and execution mode used.
    wall_seconds:
        End-to-end wall-clock of the run (partition through merge).
    """

    sketch: object
    sites: list[SiteReport] = field(default_factory=list)
    strategy: str = "hash-edge"
    mode: str = "sequential"
    wall_seconds: float = 0.0

    @property
    def total_payload_bytes(self) -> int:
        """Total bytes shipped from all sites to the coordinator."""
        return sum(s.payload_bytes for s in self.sites)

    @property
    def max_payload_bytes(self) -> int:
        """Largest single-site payload (the per-link bandwidth cost)."""
        return max((s.payload_bytes for s in self.sites), default=0)


@dataclass(frozen=True, slots=True)
class ShardedEpochReport:
    """Outcome of one sharded *temporal* run (sites × epochs).

    Attributes
    ----------
    timeline:
        The coordinator's merged checkpoint timeline — byte-identical
        to the timeline a single site consuming the whole stream would
        have sealed, so every epoch-window query gives the single-site
        answer exactly.
    sites:
        Per-site reports; ``payload_bytes`` totals all of a site's
        epoch shipments (one per epoch).
    """

    timeline: EpochTimeline
    sites: list[SiteReport] = field(default_factory=list)
    strategy: str = "hash-edge"
    mode: str = "sequential"
    wall_seconds: float = 0.0

    @property
    def epochs(self) -> int:
        """Number of sealed epochs."""
        return self.timeline.epochs

    @property
    def total_payload_bytes(self) -> int:
        """Total checkpoint bytes shipped from all sites."""
        return sum(s.payload_bytes for s in self.sites)


# -- sequential-mode site workers ----------------------------------------------


def _consume_shard_epochs(args: tuple) -> tuple[int, list[bytes], int, float]:
    """Site worker for sequential temporal runs: one checkpoint per epoch.

    The site's epoch boundaries arrive pre-translated into shard-local
    positions.
    """
    site, factory, n, lo, hi, delta, ranks, site_bounds = args
    t0 = time.perf_counter()
    manager = EpochManager(factory)
    batch = StreamBatch(n, lo, hi, delta, ranks=ranks)
    start = 0
    payloads: list[bytes] = []
    for end in site_bounds:
        manager.extend(batch.slice(start, int(end)))
        payloads.append(manager.seal_epoch().payload)
        start = int(end)
    return site, payloads, len(batch), time.perf_counter() - t0


def _consume_shard(args: tuple) -> tuple[int, bytes, int, float]:
    """Sequential site worker: build the sketch, consume, serialise."""
    site, factory, n, lo, hi, delta, ranks = args
    t0 = time.perf_counter()
    sketch = factory()
    batch = StreamBatch(n, lo, hi, delta, ranks=ranks)
    if hasattr(sketch, "consume_batch"):
        sketch.consume_batch(batch)
    else:  # pragma: no cover - every shipped sketch has the columnar path
        raise TypeError(
            f"{type(sketch).__name__} has no consume_batch; the sharded "
            "runner requires the columnar ingestion path"
        )
    payload = dump_sketch(sketch)
    return site, payload, len(batch), time.perf_counter() - t0


# -- process-mode site workers (shared memory) ---------------------------------

#: Per-worker warm state installed by :func:`_shm_worker_init`: one
#: identically-seeded sketch whose banks get re-pointed at whichever
#: site slot this worker serves next.  Module-level because pool
#: workers have no other per-process home.
_WORKER: dict = {}


def _shm_worker_init(factory: Callable[[], object]) -> None:
    """Pool initializer: build this worker's warm sketch exactly once.

    Runs in the child process.  The factory is the same one the
    coordinator uses, so bank layout and seeds match by construction;
    consuming onto a zeroed shared slot then yields exactly the site's
    delta sketch (linearity).
    """
    sketch = factory()
    banks = tuple(sketch._cell_banks())
    _WORKER["sketch"] = sketch
    _WORKER["banks"] = banks
    _WORKER["cells"] = sum(b.size for b in banks)


def _reset_worker_state() -> None:
    """Test hook: drop in-process warm state and cached attachments."""
    _WORKER.clear()
    reset_worker_cache()


def _shm_consume_task(task: tuple) -> tuple[int, int, int, float]:
    """Fold one site-shard slice into the site's shared result slot.

    ``task`` is ``(site, n, input_name, col_base, ntok, start, stop,
    result_name, slot)``: map the input segment, view the four shard
    columns ``[start, stop)``, zero the slot, re-point the warm
    sketch's banks at it, consume in place, and publish the slot's
    nonzero index (when sparse enough) so the coordinator can fold in
    ``O(nnz)``.  Returns ``(site, tokens, payload_bytes, seconds)`` —
    the entire inter-process result traffic.
    """
    site, n, in_name, col_base, ntok, start, stop, res_name, slot = task
    t0 = time.perf_counter()
    sketch = _WORKER["sketch"]
    banks = _WORKER["banks"]
    cells = _WORKER["cells"]
    res = worker_view("result", res_name)
    dense = res[slot:slot + 4 * cells]
    head = slot + 4 * cells
    dense[:] = 0
    sketch._arena = SketchArena.adopt_external(banks, dense)
    inp = worker_view("input", in_name)
    lo, hi, delta, ranks = (
        inp[col_base + f * ntok + start:col_base + f * ntok + stop]
        for f in range(4)
    )
    sketch.consume_batch(StreamBatch._from_owned(n, lo, hi, delta, ranks))
    idx = np.flatnonzero(dense)
    if 2 * idx.size <= 4 * cells:
        # Sparse handoff: the coordinator reads nnz (index, value)
        # pairs instead of scanning the whole slot.
        res[head + 1:head + 1 + idx.size] = idx
        res[head] = idx.size
        shipped = 16 * idx.size
    else:
        res[head] = -1
        shipped = 8 * (4 * cells)
    return site, stop - start, int(shipped), time.perf_counter() - t0


class ShardedSketchRunner:
    """Fan a stream out to ``K`` sites and merge their sketches.

    Parameters
    ----------
    factory:
        Zero-argument callable returning a fresh sketch.  Every site
        (and the coordinator) calls it, so it must produce
        *identically-seeded* sketches — linearity demands it.  For
        ``mode="process"`` it must be picklable (module-level
        factories / ``functools.partial`` qualify) and its sketches
        arena-backed (every registry sketch is).
    sites:
        Number of simulated sites ``K >= 1``.
    strategy:
        Partition strategy name (see
        :data:`~repro.distributed.partition.PARTITION_STRATEGIES`).
    mode:
        ``"sequential"`` or ``"process"``.
    seed:
        Seed for the hash-based partition strategies.
    processes:
        Pool size for ``mode="process"``; must be ``>= 1`` when given.
        Default: ``min(sites, available CPUs)`` — K sites on a smaller
        machine share workers instead of oversubscribing it.
    start_method:
        Multiprocessing start method for the pool.  Default:
        ``"forkserver"`` where available (Linux), else ``"spawn"`` —
        the documented portable fallback, selectable explicitly when
        identical start semantics across platforms matter more than
        worker startup cost.

    A runner with ``mode="process"`` holds two kinds of resources once
    it has run: the persistent worker pool and its shared-memory
    segments.  Release them deterministically with :meth:`close` or a
    ``with`` block; a garbage-collected runner is cleaned up by
    finalizers, and a hard coordinator crash by the resource tracker.
    """

    def __init__(
        self,
        factory: Callable[[], object],
        sites: int = 4,
        strategy: str = "hash-edge",
        mode: str = "sequential",
        seed: int = 0,
        processes: int | None = None,
        start_method: str | None = None,
    ):
        if sites < 1:
            raise StreamError(f"need at least one site, got {sites}")
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {mode!r}; "
                f"choose from {', '.join(EXECUTION_MODES)}"
            )
        if processes is not None and processes < 1:
            raise StreamError(
                f"processes must be >= 1, got {processes} (omit it for "
                "the min(sites, cpus) default)"
            )
        if start_method is not None and \
                start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"unknown start method {start_method!r}; choose from "
                f"{', '.join(multiprocessing.get_all_start_methods())}"
            )
        self.factory = factory
        self.sites = sites
        self.strategy = strategy
        self.mode = mode
        self.seed = seed
        self.processes = processes
        self.start_method = start_method
        self._pool: multiprocessing.pool.Pool | None = None
        self._registry: SegmentRegistry | None = None
        self._slot_cells: int | None = None
        self._closed = False

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Terminate the worker pool and unlink every shared segment.

        Idempotent, and safe whatever state a run left behind —
        ``terminate()`` (not a graceful ``close()``) so a wedged or
        crashed worker cannot block shutdown; site state lives in the
        segments, which are unlinked here regardless.  After ``close``
        the runner refuses further process-mode runs.
        """
        self._closed = True
        pool, self._pool = self._pool, None
        registry, self._registry = self._registry, None
        if pool is not None:
            pool.terminate()
            pool.join()
        if registry is not None:
            registry.close()

    def __enter__(self) -> "ShardedSketchRunner":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this ShardedSketchRunner is closed; create a new runner"
            )

    def _use_processes(self) -> bool:
        return self.mode == "process" and self.sites > 1

    def _worker_count(self) -> int:
        """Pool size: explicit ``processes``, else min(sites, CPUs)."""
        if self.processes is not None:
            return self.processes
        return max(1, min(self.sites, _available_cpus()))

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        """The persistent pool, created lazily on first process run."""
        self._require_open()
        if self._pool is None:
            ctx = multiprocessing.get_context(
                self.start_method or default_start_method()
            )
            self._pool = ctx.Pool(
                self._worker_count(),
                initializer=_shm_worker_init,
                initargs=(self.factory,),
            )
        return self._pool

    def _ensure_result(self) -> tuple[str, np.ndarray, int]:
        """The shared result segment: one ``8*cells + 1`` slot per site.

        Each slot is ``[dense cells | header | sparse index]``: the
        site's full 4-field cell buffer, then one header cell (nnz, or
        -1 for "read the dense region"), then room for the nonzero
        index.  Also validates — in the parent, before any pool is
        spawned — that the factory's sketches support the arena path.
        """
        self._require_open()
        if self._slot_cells is None:
            template = self.factory()
            if not hasattr(template, "_cell_banks") or \
                    not hasattr(template, "consume_batch"):
                raise TypeError(
                    f"{type(template).__name__} is not arena-backed; "
                    "mode='process' needs _cell_banks() and consume_batch() "
                    "(every registry sketch class qualifies)"
                )
            self._slot_cells = sum(b.size for b in template._cell_banks())
        if self._registry is None:
            self._registry = SegmentRegistry()
        stride = 8 * self._slot_cells + 1
        view = self._registry.ensure("result", self.sites * stride)
        return self._registry.name("result"), view, self._slot_cells

    def _publish_shards(
        self, shards: Sequence[StreamBatch]
    ) -> tuple[str, list[tuple[int, int]]]:
        """Write the shard columns into the shared input segment.

        Layout: per shard, its four ``int64`` columns back to back
        (``lo | hi | delta | ranks``).  Returns the segment name and a
        ``(base, ntok)`` per shard.  One memcpy of the stream per run;
        workers slice it zero-copy.
        """
        assert self._registry is not None
        total = sum(4 * len(batch) for batch in shards)
        view = self._registry.ensure("input", total)
        bases: list[tuple[int, int]] = []
        off = 0
        for batch in shards:
            ntok = len(batch)
            for f, col in enumerate(
                (batch.lo, batch.hi, batch.delta, batch.ranks)
            ):
                view[off + f * ntok:off + (f + 1) * ntok] = col
            bases.append((off, ntok))
            off += 4 * ntok
        return self._registry.name("input"), bases

    def _map(self, pool: multiprocessing.pool.Pool, tasks: list[tuple]) -> list:
        try:
            return pool.map(_shm_consume_task, tasks)
        except (KeyboardInterrupt, SystemExit):
            # Interrupted mid-fan-out: slots are half-written and
            # workers may be wedged — tear the pool and segments down
            # before re-raising so nothing outlives the run.
            self.close()
            raise

    def _fold_slot(
        self, arena: SketchArena, res: np.ndarray, cells: int, site: int
    ) -> None:
        """Fold one site's result slot into the coordinator arena."""
        stride = 8 * cells + 1
        slot = site * stride
        head = slot + 4 * cells
        nnz = int(res[head])
        if nnz < 0:
            arena._combine_raw(res[slot:head], subtract=False)
        elif nnz > 0:
            idx = res[head + 1:head + 1 + nnz]
            arena._combine_sparse(idx, res[slot:head][idx], subtract=False)

    # -- runs -------------------------------------------------------------------

    def run(
        self, stream: DynamicGraphStream, strategy: str | None = None
    ) -> ShardedRunReport:
        """Partition, consume per site, ship, merge, report.

        ``strategy`` optionally overrides the runner's configured
        partition strategy for this run only — so one warm pool can
        serve runs under every strategy.
        """
        strategy = self.strategy if strategy is None else strategy
        t_start = time.perf_counter()
        shards = partition_batch(
            stream.as_batch(), self.sites, strategy, self.seed
        )
        if self._use_processes():
            return self._run_process(stream.n, shards, strategy, t_start)
        payloads = [
            (s, self.factory, stream.n, shard.lo, shard.hi, shard.delta,
             shard.ranks)
            for s, shard in enumerate(shards)
        ]
        results = [_consume_shard(p) for p in payloads]
        return self._merge_results(results, strategy, self.mode, t_start)

    def run_shards(
        self, shards: Sequence[DynamicGraphStream]
    ) -> ShardedRunReport:
        """Run over pre-partitioned shards (arbitrary external split)."""
        if len(shards) != self.sites:
            raise StreamError(
                f"runner configured for {self.sites} sites, got "
                f"{len(shards)} shards"
            )
        if len({shard.n for shard in shards}) > 1:
            raise StreamError("shards span different node universes")
        t_start = time.perf_counter()
        batches = [shard.as_batch() for shard in shards]
        if self._use_processes():
            return self._run_process(
                shards[0].n, batches, "external", t_start
            )
        payloads = [
            (s, self.factory, shard.n, batch.lo, batch.hi, batch.delta,
             batch.ranks)
            for s, (shard, batch) in enumerate(zip(shards, batches))
        ]
        results = [_consume_shard(p) for p in payloads]
        return self._merge_results(results, "external", self.mode, t_start)

    def _run_process(
        self,
        n: int,
        shards: Sequence[StreamBatch],
        strategy: str,
        t_start: float,
    ) -> ShardedRunReport:
        """One shared-memory fan-out round + O(nnz) coordinator merge."""
        res_name, res_view, cells = self._ensure_result()
        in_name, bases = self._publish_shards(shards)
        pool = self._ensure_pool()
        stride = 8 * cells + 1
        tasks = [
            (site, n, in_name, base, ntok, 0, ntok, res_name, site * stride)
            for site, (base, ntok) in enumerate(bases)
        ]
        results = self._map(pool, tasks)
        coordinator = self.factory()
        arena = ensure_arena(coordinator)
        if arena.cells != cells:
            raise SketchCompatibilityError(
                "factory produced sketches with differing cell counts "
                f"({arena.cells} vs {cells}); sites and coordinator must "
                "be identically parameterised"
            )
        reports: list[SiteReport] = []
        for site, tokens, shipped, seconds in sorted(results):
            self._fold_slot(arena, res_view, cells, site)
            reports.append(SiteReport(site, tokens, shipped, seconds))
        return ShardedRunReport(
            sketch=coordinator,
            sites=reports,
            strategy=strategy,
            mode=self.mode,
            wall_seconds=time.perf_counter() - t_start,
        )

    def run_epochs(
        self,
        stream: DynamicGraphStream,
        epochs: int | None = None,
        boundaries: Sequence[int] | None = None,
        store: "EpochStore | None" = None,
    ) -> ShardedEpochReport:
        """Sharded temporal run: per-site, per-epoch checkpoints.

        The stream is partitioned across sites as in :meth:`run`, but
        every site additionally observes each *global* epoch boundary
        (translated to its shard-local token positions), and the
        coordinator seals one global cumulative checkpoint per epoch.
        The returned timeline supports window queries by subtraction
        that are byte-identical to a single-site timeline of the whole
        stream.  Pass ``epochs`` for an even grid or ``boundaries`` for
        explicit epoch-end token positions.  With ``store=`` every
        sealed checkpoint is *also* appended durably to an
        :class:`~repro.temporal.store.EpochStore` as it is produced —
        in either execution mode — so the stored timeline matches the
        returned one exactly.
        """
        bounds = normalize_boundaries(len(stream), epochs, boundaries)
        t_start = time.perf_counter()
        batch = stream.as_batch()
        assignment = shard_assignment(batch, self.sites, self.strategy, self.seed)
        bounds_arr = np.asarray(bounds, dtype=np.int64)
        shard_batches: list[StreamBatch] = []
        site_bounds: list[np.ndarray] = []
        for s in range(self.sites):
            mask = assignment == s
            positions = np.flatnonzero(mask)
            shard_batches.append(batch.select(mask))
            # Global boundary b → number of this site's tokens before b.
            site_bounds.append(
                np.searchsorted(positions, bounds_arr, side="left")
            )
        if self._use_processes():
            return self._run_process_epochs(
                stream.n, shard_batches, site_bounds, bounds, t_start,
                store=store,
            )
        payloads = [
            (s, self.factory, stream.n, shard.lo, shard.hi, shard.delta,
             shard.ranks, site_bounds[s])
            for s, shard in enumerate(shard_batches)
        ]
        results = [_consume_shard_epochs(p) for p in payloads]
        results.sort(key=lambda r: r[0])
        # Site checkpoints are *cumulative*, so each epoch merges into a
        # fresh coordinator sketch (re-merging into one accumulator
        # would double-count earlier prefixes).  merge_sketch_bytes
        # verifies each payload against the coordinator and folds it
        # straight into the arena — no per-site twin reconstruction.
        checkpoints: list[EpochCheckpoint] = []
        previous_bound = 0
        for t, bound in enumerate(bounds):
            coordinator = self.factory()
            for _site, site_payloads, _tokens, _secs in results:
                merge_sketch_bytes(coordinator, site_payloads[t])
            checkpoints.append(EpochCheckpoint(
                epoch=t + 1,
                tokens=bound - previous_bound,
                cumulative_tokens=bound,
                payload=dump_sketch(coordinator, epoch_meta={
                    "epoch": t + 1,
                    "tokens": bound - previous_bound,
                    "cumulative_tokens": bound,
                }),
            ))
            if store is not None:
                store.append_checkpoint(checkpoints[-1])
            previous_bound = bound
        reports = [
            SiteReport(site, tokens, sum(len(p) for p in site_payloads), secs)
            for site, site_payloads, tokens, secs in results
        ]
        return ShardedEpochReport(
            timeline=EpochTimeline(stream.n, checkpoints),
            sites=reports,
            strategy=self.strategy,
            mode=self.mode,
            wall_seconds=time.perf_counter() - t_start,
        )

    def _run_process_epochs(
        self,
        n: int,
        shards: Sequence[StreamBatch],
        site_bounds: Sequence[np.ndarray],
        bounds: Sequence[int],
        t_start: float,
        store: "EpochStore | None" = None,
    ) -> ShardedEpochReport:
        """Shared-memory temporal run: one pool round per epoch.

        Each round, every site folds only its epoch's *delta* slice
        onto a zeroed slot; the coordinator folds all K deltas into one
        running cumulative sketch and seals it.  By linearity the
        sealed state equals the sequential (cumulative-checkpoint)
        merge exactly — while the sites never serialise anything.
        """
        res_name, res_view, cells = self._ensure_result()
        in_name, bases = self._publish_shards(shards)
        pool = self._ensure_pool()
        stride = 8 * cells + 1
        running = self.factory()
        arena = ensure_arena(running)
        if arena.cells != cells:
            raise SketchCompatibilityError(
                "factory produced sketches with differing cell counts "
                f"({arena.cells} vs {cells}); sites and coordinator must "
                "be identically parameterised"
            )
        tokens = [0] * self.sites
        shipped = [0] * self.sites
        seconds = [0.0] * self.sites
        prev = [0] * self.sites
        checkpoints: list[EpochCheckpoint] = []
        previous_bound = 0
        for t, bound in enumerate(bounds):
            tasks = []
            for s, (base, ntok) in enumerate(bases):
                stop = int(site_bounds[s][t])
                tasks.append(
                    (s, n, in_name, base, ntok, prev[s], stop, res_name,
                     s * stride)
                )
                prev[s] = stop
            for site, round_tokens, round_bytes, secs in sorted(
                self._map(pool, tasks)
            ):
                self._fold_slot(arena, res_view, cells, site)
                tokens[site] += round_tokens
                shipped[site] += round_bytes
                seconds[site] += secs
            checkpoints.append(EpochCheckpoint(
                epoch=t + 1,
                tokens=bound - previous_bound,
                cumulative_tokens=bound,
                payload=dump_sketch(running, epoch_meta={
                    "epoch": t + 1,
                    "tokens": bound - previous_bound,
                    "cumulative_tokens": bound,
                }),
            ))
            if store is not None:
                store.append_checkpoint(checkpoints[-1])
            previous_bound = bound
        reports = [
            SiteReport(s, tokens[s], shipped[s], seconds[s])
            for s in range(self.sites)
        ]
        return ShardedEpochReport(
            timeline=EpochTimeline(n, checkpoints),
            sites=reports,
            strategy=self.strategy,
            mode=self.mode,
            wall_seconds=time.perf_counter() - t_start,
        )

    def _merge_results(
        self,
        results: list[tuple[int, bytes, int, float]],
        strategy: str,
        mode: str,
        t_start: float,
    ) -> ShardedRunReport:
        """Coordinator side: verify each payload and fold it in, report."""
        coordinator = self.factory()
        reports: list[SiteReport] = []
        for site, payload, tokens, seconds in results:
            merge_sketch_bytes(coordinator, payload)
            reports.append(SiteReport(site, tokens, len(payload), seconds))
        return ShardedRunReport(
            sketch=coordinator,
            sites=reports,
            strategy=strategy,
            mode=mode,
            wall_seconds=time.perf_counter() - t_start,
        )
