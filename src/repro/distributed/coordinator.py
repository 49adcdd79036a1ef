"""The coordinator side of multi-site sketching.

:class:`ShardedSketchRunner` simulates the Section 1.1 deployment end
to end: partition the stream, let each of ``K`` sites consume its shard
through the columnar path, ship the site state to the coordinator, and
linearly merge there.

Both execution modes run one path.  Each site keeps a warm,
identically-seeded sketch; per task it re-points that sketch's cell
banks (:meth:`SketchArena.adopt_external`) at its zeroed slot of a
result buffer, folds its shard slice in place, and hands the slot over
as a ``(site, tokens, nbytes, seconds, header)`` report.  The
coordinator checks each site sketch's kind, parameters and seed
(``header``) against its own, refusing a mismatch
(:class:`~repro.errors.SketchCompatibilityError`) before any slot of
the round is folded, then folds the slots into its arena — ``O(nnz)``
for lightly-loaded sites.  ``mode`` only chooses where the site step
runs:

* ``"sequential"`` — in this process, one site after another, over
  plain numpy buffers: no pool and no shared memory, and one slot that
  each site hands over before the next runs.  Zero setup cost; the
  default for tests and small workloads.
* ``"process"`` — concurrently on a **persistent** worker pool over
  **shared memory** (see :mod:`repro.distributed.shm`): the shard
  columns are published once into a shared input segment, and the
  slots live in a shared result segment.

Either mode produces a byte-identical coordinator sketch — pinned by
``tests/test_distributed_equivalence.py`` — and the same per-site byte
figure (:class:`SiteReport`).

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
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from types import TracebackType
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SketchCompatibilityError, StreamError
from ..sketch.arena import SketchArena, ensure_arena, slot_bytes
from ..sketch.serialize import _sketch_header, _verify_header, dump_cells
from ..streams import DynamicGraphStream, StreamBatch
from ..temporal.epochs import EpochCheckpoint, EpochTimeline, normalize_boundaries
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


def check_start_method(start_method: str | None) -> None:
    """Refuse a pool start method this platform does not offer.

    Called where the method is configured (``GraphSketchEngine.workers``
    and the runner), not where the pool first starts, so a bad value
    fails before any batch is accepted.
    """
    if start_method is not None and \
            start_method not in multiprocessing.get_all_start_methods():
        raise ValueError(
            f"unknown start method {start_method!r}; choose from "
            f"{', '.join(multiprocessing.get_all_start_methods())}"
        )


@dataclass(frozen=True, slots=True)
class SiteReport:
    """What one site did and shipped.

    ``payload_bytes`` is the per-site communication cost, *independent
    of* ``tokens`` (the point of the model): the bytes the coordinator
    reads from the site's slot — 16 per nonzero ``(index, value)``
    pair for a lightly-loaded site, 32 per cell for the dense cell
    buffer otherwise.  Both execution modes report this one figure; an
    epoch run sums it over the site's per-epoch deltas.
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
    epochs:
        Number of sealed epochs.
    timeline:
        The coordinator's merged checkpoint timeline — byte-identical
        to the timeline a single site consuming the whole stream would
        have sealed, so every epoch-window query gives the single-site
        answer exactly.  ``None`` for a run that sealed into a store:
        its checkpoints live only there.
    sites:
        Per-site reports; ``payload_bytes`` totals a site's per-epoch
        delta slots (one per epoch).
    """

    epochs: int
    timeline: EpochTimeline | None = None
    sites: list[SiteReport] = field(default_factory=list)
    strategy: str = "hash-edge"
    mode: str = "sequential"
    wall_seconds: float = 0.0

    @property
    def total_payload_bytes(self) -> int:
        """Total per-epoch delta bytes shipped from all sites."""
        return sum(s.payload_bytes for s in self.sites)


# -- the site step ------------------------------------------------------------


class _SiteWorker:
    """A site's warm sketch, refolded onto a zeroed result slot per task.

    Built from the runner's factory once per runner (sequential mode)
    or once per pool worker (process mode), so a steady-state run
    builds no sketch.  Consuming onto a zeroed slot yields exactly the
    task's delta sketch (linearity).
    """

    __slots__ = ("sketch", "banks", "cells")

    def __init__(self, factory: Callable[[], object]):
        sketch = factory()
        if not hasattr(sketch, "_cell_banks") or \
                not hasattr(sketch, "consume_batch"):
            raise TypeError(
                f"{type(sketch).__name__} is not arena-backed; the sharded "
                "runner needs _cell_banks() and consume_batch() (every "
                "registry sketch class qualifies)"
            )
        self.sketch = sketch
        self.banks = tuple(sketch._cell_banks())
        self.cells = sum(b.size for b in self.banks)

    def fold(
        self, inp: np.ndarray, res: np.ndarray, task: tuple
    ) -> tuple[int, int, int, float, dict]:
        """Fold one shard slice into the site's result slot.

        ``task`` is ``(site, n, col_base, ntok, start, stop, slot)``:
        view the four shard columns ``[start, stop)`` in ``inp``, zero
        the slot in ``res``, re-point the banks at it, consume in
        place, and publish the slot's nonzero index (when sparse
        enough) so the coordinator can fold in ``O(nnz)``.  Returns
        ``(site, tokens, payload_bytes, seconds, header)``, ``header``
        being the sketch's kind, parameters and seed for the
        coordinator to check.
        """
        site, n, col_base, ntok, start, stop, slot = task
        t0 = time.perf_counter()
        cells = self.cells
        dense = res[slot:slot + 4 * cells]
        head = slot + 4 * cells
        dense[:] = 0
        self.sketch._arena = SketchArena.adopt_external(self.banks, dense)
        lo, hi, delta, ranks = (
            inp[col_base + f * ntok + start:col_base + f * ntok + stop]
            for f in range(4)
        )
        self.sketch.consume_batch(
            StreamBatch._from_owned(n, lo, hi, delta, ranks)
        )
        idx = np.flatnonzero(dense)
        shipped = slot_bytes(idx.size, cells)
        if shipped == 16 * idx.size:
            # Sparse handoff, the cheaper read (see slot_bytes): the
            # coordinator reads nnz (index, value) pairs instead of
            # scanning the whole slot.
            res[head + 1:head + 1 + idx.size] = idx
            res[head] = idx.size
        else:
            res[head] = -1
        return (site, stop - start, int(shipped), time.perf_counter() - t0,
                _sketch_header(self.sketch))


def _checked(report: tuple, like: object) -> tuple[int, int, int, float]:
    """``report`` without its header, once the header names ``like``'s
    kind, parameters and seed (:class:`SketchCompatibilityError`
    otherwise)."""
    _verify_header(report[-1], like)
    return report[:-1]


# -- process-mode pool workers (shared memory) ---------------------------------

#: Per-worker warm state installed by :func:`_shm_worker_init`.
#: Module-level because pool workers have no other per-process home.
_WORKER: dict = {}


def _shm_worker_init(factory: Callable[[], object]) -> None:
    """Pool initializer: build this worker's warm site sketch once."""
    _WORKER["site"] = _SiteWorker(factory)


def _reset_worker_state() -> None:
    """Test hook: drop in-process warm state and cached attachments."""
    _WORKER.clear()
    reset_worker_cache()


def _shm_consume_task(task: tuple) -> tuple[int, int, int, float, dict]:
    """Pool task ``(input_name, result_name, site_task)``: map the two
    shared segments and run :meth:`_SiteWorker.fold` on them."""
    in_name, res_name, site_task = task
    return _WORKER["site"].fold(
        worker_view("input", in_name), worker_view("result", res_name),
        site_task,
    )


class ShardedSketchRunner:
    """Fan a stream out to ``K`` sites and merge their sketches.

    Parameters
    ----------
    factory:
        Zero-argument callable returning a fresh, arena-backed sketch
        of a registered kind (every registry sketch qualifies).  Every
        site (and the coordinator) calls it, so it must produce
        *identically-seeded* sketches — linearity demands it, and a
        run refuses site sketches whose kind, parameters or seed differ
        from the coordinator's (:class:`~repro.errors.
        SketchCompatibilityError`).  For ``mode="process"`` it must
        also be picklable: ``functools.partial(build_sketch, spec)``
        with a :class:`~repro.api.SketchSpec` qualifies.
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
    segments (a sequential runner holds only memory: its warm site
    sketch and local buffers).  Release them deterministically with
    :meth:`close` or a ``with`` block; a garbage-collected runner is
    cleaned up by finalizers, and a hard coordinator crash by the
    resource tracker.  Runs reuse these resources, so a runner serves
    one run at a time in either mode.
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
        check_start_method(start_method)
        self.factory = factory
        self.sites = sites
        self.strategy = strategy
        self.mode = mode
        self.seed = seed
        self.processes = processes
        self.start_method = start_method
        self._pool: multiprocessing.pool.Pool | None = None
        self._registry: SegmentRegistry | None = None
        self._local: dict[str, np.ndarray] = {}
        self._site: _SiteWorker | None = None
        self._closed = False

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Terminate the worker pool and unlink every shared segment.

        Idempotent, and safe whatever state a run left behind —
        ``terminate()`` (not a graceful ``close()``) so a wedged or
        crashed worker cannot block shutdown; site state lives in the
        segments, which are unlinked here regardless.  The warm site
        sketch and local buffers are dropped too.  After ``close`` the
        runner refuses further runs.
        """
        self._closed = True
        self._local.clear()
        self._site = None
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

    def _site_worker(self) -> _SiteWorker:
        """This runner's warm site sketch, built on first use.

        Sequential mode folds every site through it; in process mode it
        sizes the result slots and validates the factory in the parent,
        before any pool is spawned.
        """
        self._require_open()
        if self._site is None:
            self._site = _SiteWorker(self.factory)
        return self._site

    def _buffer(self, role: str, elements: int) -> np.ndarray:
        """An ``int64`` buffer of ``elements`` cells for ``role``.

        A shared segment in process mode, a plain local array otherwise;
        either is reused across runs and grown by replacement.  Callers
        overwrite the region they use.
        """
        if self._use_processes():
            if self._registry is None:
                self._registry = SegmentRegistry()
            return self._registry.ensure(role, elements)
        local = self._local.get(role)
        if local is None or local.size < elements:
            local = self._local[role] = np.empty(elements, dtype=np.int64)
        return local[:elements]

    def _publish_shards(
        self, shards: Sequence[StreamBatch]
    ) -> list[tuple[int, int]]:
        """Write the shard columns into the ``"input"`` buffer.

        Layout: per shard, its four ``int64`` columns back to back
        (``lo | hi | delta | ranks``).  Returns a ``(base, ntok)`` per
        shard.  One memcpy of the stream per run; sites slice it
        zero-copy.
        """
        view = self._buffer("input", sum(4 * len(batch) for batch in shards))
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
        return bases

    def _map(
        self, tasks: list[tuple], like: object
    ) -> Iterable[tuple[int, int, int, float]]:
        """Run one round's site tasks — a plain loop in sequential mode,
        the pool's map in process mode — and check each site sketch's
        kind, parameters and seed against ``like``.

        Either way a refused site raises before any slot of the round
        is folded: the pool's sites have all run, so all are checked
        first; the loop is lazy, so a site runs only after the
        coordinator has folded the previous site's slot, and its sites
        share one sketch, so the first check refuses them all.
        """
        if not self._use_processes():
            site = self._site_worker()
            inp, res = self._local["input"], self._local["result"]
            return (_checked(site.fold(inp, res, task), like) for task in tasks)
        pool = self._ensure_pool()
        assert self._registry is not None
        names = (self._registry.name("input"), self._registry.name("result"))
        try:
            reports = pool.map(
                _shm_consume_task, [(*names, task) for task in tasks]
            )
            return [_checked(report, like) for report in reports]
        except (KeyboardInterrupt, SystemExit):
            # Interrupted mid-fan-out: slots are half-written and
            # workers may be wedged — tear the pool and segments down
            # before re-raising so nothing outlives the run.
            self.close()
            raise

    def _fold_slot(
        self, arena: SketchArena, res: np.ndarray, slot: int, cells: int
    ) -> None:
        """Fold the result slot at offset ``slot`` into the coordinator
        arena."""
        head = slot + 4 * cells
        nnz = int(res[head])
        if nnz < 0:
            arena._combine_raw(res[slot:head], subtract=False)
        elif nnz > 0:
            idx = res[head + 1:head + 1 + nnz]
            arena._combine_sparse(idx, res[slot:head][idx], subtract=False)

    def _fold_rounds(
        self,
        n: int,
        shards: Sequence[StreamBatch],
        stops: Sequence[Sequence[int]],
        seal: Callable[[int, object], None] | None = None,
    ) -> tuple[object, list[SiteReport]]:
        """The one execution path behind every run.

        Round ``t`` has site ``s`` fold its shard's tokens up to
        shard-local position ``stops[t][s]`` (from where the previous
        round stopped) onto its zeroed slot.  The coordinator checks
        every site sketch's kind, parameters and seed against its own
        (:meth:`_map`) before folding the round's slots into one
        running sketch, and calls ``seal(t, sketch)`` once the round is
        folded.  Each slot holds the site's *delta* for the round, so
        by linearity the running sketch after round ``t`` is the
        sketch of every token up to the round's stops.  A refused site
        raises before any slot of its round is folded, so nothing is
        returned or sealed from that round.

        A slot is ``8 * cells + 1`` cells: ``[dense cells | header |
        sparse index]`` — the site's 4-field cell buffer, one header
        cell (nnz, or -1 for "read the dense region"), then room for
        the nonzero index.  Pool sites run at once and need a slot
        each; the sequential loop hands each slot over before the next
        site runs, so its sites share one.
        """
        cells = self._site_worker().cells
        stride = 8 * cells + 1
        pooled = self._use_processes()
        slot_of = [s * stride if pooled else 0 for s in range(self.sites)]
        bases = self._publish_shards(shards)
        res = self._buffer("result", slot_of[-1] + stride)
        coordinator = self.factory()
        arena = ensure_arena(coordinator)
        if arena.cells != cells:
            raise SketchCompatibilityError(
                "factory produced sketches with differing cell counts "
                f"({arena.cells} vs {cells}); sites and coordinator must "
                "be identically parameterised"
            )
        tokens = [0] * self.sites
        shipped = [0] * self.sites
        seconds = [0.0] * self.sites
        start = [0] * self.sites
        for t, round_stops in enumerate(stops):
            tasks = []
            for s, ((base, ntok), stop) in enumerate(zip(bases, round_stops)):
                tasks.append(
                    (s, n, base, ntok, start[s], int(stop), slot_of[s])
                )
                start[s] = int(stop)
            for s, round_tokens, round_bytes, secs in self._map(
                tasks, coordinator
            ):
                self._fold_slot(arena, res, slot_of[s], cells)
                tokens[s] += round_tokens
                shipped[s] += round_bytes
                seconds[s] += secs
            if seal is not None:
                seal(t, coordinator)
        reports = [
            SiteReport(s, tokens[s], shipped[s], seconds[s])
            for s in range(self.sites)
        ]
        return coordinator, reports

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
        return self._run_once(stream.n, shards, strategy, t_start)

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
        return self._run_once(shards[0].n, batches, "external", t_start)

    def _run_once(
        self,
        n: int,
        shards: Sequence[StreamBatch],
        strategy: str,
        t_start: float,
    ) -> ShardedRunReport:
        """One round over whole shards."""
        sketch, reports = self._fold_rounds(
            n, shards, [[len(batch) for batch in shards]]
        )
        return ShardedRunReport(
            sketch=sketch,
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
        """Sharded temporal run: one round per epoch.

        The stream is partitioned across sites as in :meth:`run`, and
        every *global* epoch boundary is translated to each site's
        shard-local token position.  Each epoch is one round of
        :meth:`_fold_rounds`: sites fold only the epoch's tokens, and
        the coordinator seals its running sketch as the epoch's global
        cumulative checkpoint.  The returned timeline supports window
        queries by subtraction that are byte-identical to a single-site
        timeline of the whole stream.  Pass ``epochs`` for an even grid
        or ``boundaries`` for explicit epoch-end token positions.  With
        ``store=`` every sealed checkpoint is appended durably to an
        :class:`~repro.temporal.store.EpochStore` as it is produced and
        *not* kept in memory — the report then carries no timeline —
        so RAM holds one live sketch plus the store's tail however many
        epochs are sealed.
        """
        bounds = normalize_boundaries(len(stream), epochs, boundaries)
        t_start = time.perf_counter()
        batch = stream.as_batch()
        assignment = shard_assignment(batch, self.sites, self.strategy, self.seed)
        bounds_arr = np.asarray(bounds, dtype=np.int64)
        shards: list[StreamBatch] = []
        site_stops: list[np.ndarray] = []
        for s in range(self.sites):
            mask = assignment == s
            shards.append(batch.select(mask))
            # Global boundary b → number of this site's tokens before b.
            site_stops.append(
                np.searchsorted(np.flatnonzero(mask), bounds_arr, side="left")
            )
        checkpoints: list[EpochCheckpoint] = []

        def seal(t: int, sketch: object) -> None:
            meta = {
                "epoch": t + 1,
                "tokens": bounds[t] - (bounds[t - 1] if t else 0),
                "cumulative_tokens": bounds[t],
            }
            cells, payload = dump_cells(sketch, epoch_meta=meta)
            checkpoint = EpochCheckpoint(**meta, payload=payload)
            if store is not None:
                store.append_checkpoint(checkpoint, cells=cells)
            else:
                checkpoints.append(checkpoint)

        _sketch, reports = self._fold_rounds(
            stream.n, shards, np.column_stack(site_stops), seal
        )
        return ShardedEpochReport(
            epochs=len(bounds),
            timeline=(
                EpochTimeline(stream.n, checkpoints) if store is None else None
            ),
            sites=reports,
            strategy=self.strategy,
            mode=self.mode,
            wall_seconds=time.perf_counter() - t_start,
        )
