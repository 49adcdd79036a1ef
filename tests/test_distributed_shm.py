"""Process-mode lifecycle: segments, pool reuse, and crash cleanup.

The shared-memory rebuild of ``mode="process"`` adds real resources to
the runner — a persistent worker pool and named shared segments — and
with them real failure surfaces.  This suite pins the lifecycle
contract: one pool per runner reused across ``run()``/``run_epochs()``,
no orphaned segment after worker exceptions, ``close()``, context
exit, or a ``KeyboardInterrupt`` mid-fan-out, and loud validation for
broken configurations (``processes=0``, unknown start methods, closed
runners).  It also pins what both modes share because they run one
site step: the refusal of site sketches that differ from the
coordinator's, and one per-site byte figure.  Byte-identity of the
results themselves is pinned by ``tests/test_distributed_equivalence.py``.
"""

from __future__ import annotations

import functools
import itertools
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import SpanningForestSketch
from repro.distributed import (
    ShardedSketchRunner,
    forest_sketch,
    partition_stream,
)
from repro.distributed import coordinator as coordinator_mod
from repro.distributed import shm as shm_mod
from repro.errors import SketchCompatibilityError, StreamError
from repro.hashing import HashSource
from repro.sketch import dump_sketch, ensure_arena
from repro.streams import churn_stream, erdos_renyi_graph
from repro.temporal import EpochStore

N = 12


@pytest.fixture(scope="module")
def stream():
    st = churn_stream(
        N, erdos_renyi_graph(N, 0.4, seed=5), churn_fraction=0.6, seed=6
    )
    assert any(u.delta < 0 for u in st)
    return st


class _ExplodingForestSketch(SpanningForestSketch):
    """A site sketch that dies mid-fold (worker-crash injection)."""

    def consume_batch(self, batch):
        raise RuntimeError("injected site failure")


def _exploding_forest(n: int, seed: int) -> _ExplodingForestSketch:
    return _ExplodingForestSketch(n, HashSource(seed))


def _pid_seeded_forest(n: int) -> SpanningForestSketch:
    """A broken factory: its seed depends on the building process."""
    return SpanningForestSketch(n, HashSource(1000 + os.getpid()))


def _assert_unlinked(names: list[str]) -> None:
    """Every name must be gone from the OS namespace, not just untracked."""
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestSegmentLifecycle:
    def test_pool_and_segments_reused_across_runs(self, stream):
        factory = functools.partial(forest_sketch, N, 31)
        reference = dump_sketch(
            ShardedSketchRunner(factory, sites=3).run(stream).sketch
        )
        with ShardedSketchRunner(factory, sites=3, mode="process") as runner:
            first = runner.run(stream)
            pool = runner._pool
            assert pool is not None
            segments = shm_mod.active_segment_names()
            assert segments, "process run should have created segments"

            second = runner.run(stream)
            assert runner._pool is pool, "pool must persist across runs"
            assert shm_mod.active_segment_names() == segments
            assert dump_sketch(first.sketch) == reference
            assert dump_sketch(second.sketch) == reference

            # run() -> run_epochs() on the same runner: same pool, same
            # segments, and the timeline matches the sequential one.
            epoch_report = runner.run_epochs(stream, epochs=4)
            assert runner._pool is pool
            assert shm_mod.active_segment_names() == segments
        sequential = ShardedSketchRunner(factory, sites=3).run_epochs(
            stream, epochs=4
        )
        assert (
            epoch_report.timeline.to_bytes() == sequential.timeline.to_bytes()
        )
        assert shm_mod.active_segment_names() == []
        _assert_unlinked(segments)

    def test_worker_exception_then_close_leaves_no_segments(self, stream):
        factory = functools.partial(_exploding_forest, N, 7)
        runner = ShardedSketchRunner(factory, sites=2, mode="process")
        with pytest.raises(RuntimeError, match="injected site failure"):
            runner.run(stream)
        leaked = shm_mod.active_segment_names()
        assert leaked, "segments exist until the registry cleans up"
        runner.close()
        assert shm_mod.active_segment_names() == []
        _assert_unlinked(leaked)

    def test_keyboard_interrupt_tears_everything_down(self, stream):
        factory = functools.partial(forest_sketch, N, 13)
        runner = ShardedSketchRunner(factory, sites=2, mode="process")
        runner.run(stream)
        segments = shm_mod.active_segment_names()
        assert segments

        class _InterruptingPool:
            terminated = False
            joined = False

            def map(self, fn, tasks):
                raise KeyboardInterrupt

            def terminate(self):
                self.terminated = True

            def join(self):
                self.joined = True

        real_pool, stub = runner._pool, _InterruptingPool()
        real_pool.terminate()
        real_pool.join()
        runner._pool = stub
        with pytest.raises(KeyboardInterrupt):
            runner.run(stream)
        assert stub.terminated and stub.joined
        assert shm_mod.active_segment_names() == []
        _assert_unlinked(segments)
        # close() tore the runner down; it must refuse further work.
        with pytest.raises(RuntimeError, match="closed"):
            runner.run(stream)

    def test_close_is_idempotent_and_sequential_noop(self, stream):
        factory = functools.partial(forest_sketch, N, 5)
        runner = ShardedSketchRunner(factory, sites=2, mode="sequential")
        runner.run(stream)
        runner.close()
        runner.close()
        assert shm_mod.active_segment_names() == []

    def test_registry_grows_by_generation(self):
        registry = shm_mod.SegmentRegistry()
        try:
            view = registry.ensure("input", 16)
            assert view.size == 16
            name_small = registry.name("input")
            view[:] = 7
            grown = registry.ensure("input", 64)
            name_big = registry.name("input")
            assert name_big != name_small, "growth must bump the name"
            assert grown.size == 64
            assert shm_mod.active_segment_names() == [name_big]
            # An adequate segment is reused, not replaced.
            again = registry.ensure("input", 32)
            assert registry.name("input") == name_big
            assert again.size == 32
        finally:
            registry.close()
        assert shm_mod.active_segment_names() == []


class TestConfigurationValidation:
    def test_zero_processes_rejected(self):
        factory = functools.partial(forest_sketch, N, 1)
        with pytest.raises(StreamError, match="processes must be >= 1"):
            ShardedSketchRunner(factory, mode="process", processes=0)
        with pytest.raises(StreamError, match="processes must be >= 1"):
            ShardedSketchRunner(factory, mode="process", processes=-2)

    def test_unknown_start_method_rejected(self):
        factory = functools.partial(forest_sketch, N, 1)
        with pytest.raises(ValueError, match="unknown start method"):
            ShardedSketchRunner(factory, mode="process", start_method="warp")

    def test_default_worker_count_capped_at_cpus(self):
        factory = functools.partial(forest_sketch, N, 1)
        runner = ShardedSketchRunner(factory, sites=64, mode="process")
        cpus = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1)
        )
        assert runner._worker_count() == min(64, cpus)
        explicit = ShardedSketchRunner(
            factory, sites=4, mode="process", processes=2
        )
        assert explicit._worker_count() == 2

    def test_non_arena_factory_rejected_before_spawn(self, stream):
        runner = ShardedSketchRunner(dict, sites=2, mode="process")
        with pytest.raises(TypeError, match="not arena-backed"):
            runner.run(stream)
        assert runner._pool is None, "validation must precede pool spawn"
        runner.close()
        assert shm_mod.active_segment_names() == []

    def test_cli_rejects_zero_processes(self, capsys):
        from repro.cli import main

        code = main([
            "distribute", "--mode", "process", "--processes", "0",
        ])
        assert code == 2
        assert "--processes must be >= 1" in capsys.readouterr().err


class TestWorkerPathInProcess:
    """Drive the worker functions in this process over real segments.

    Covers the exact code a pool child runs — warm-state init, slot
    adoption, sparse/dense handoff — without spawn cost, and proves the
    fold is byte-identical to sequential merging.
    """

    def test_inline_worker_matches_sequential(self, stream):
        factory = functools.partial(forest_sketch, N, 77)
        reference = dump_sketch(
            ShardedSketchRunner(factory, sites=3).run(stream).sketch
        )

        class _InlinePool:
            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

            def terminate(self):
                return None

            def join(self):
                return None

        runner = ShardedSketchRunner(factory, sites=3, mode="process")
        coordinator_mod._shm_worker_init(factory)
        runner._pool = _InlinePool()
        try:
            report = runner.run(stream)
            assert dump_sketch(report.sketch) == reference
            assert report.mode == "process"
            assert sum(s.tokens for s in report.sites) == len(stream)
            assert all(s.payload_bytes >= 0 for s in report.sites)
            epoch_report = runner.run_epochs(stream, epochs=3)
            sequential = ShardedSketchRunner(factory, sites=3).run_epochs(
                stream, epochs=3
            )
            assert (
                epoch_report.timeline.to_bytes()
                == sequential.timeline.to_bytes()
            )
        finally:
            runner.close()
            coordinator_mod._reset_worker_state()
        assert shm_mod.active_segment_names() == []


class TestSiteSketchCompatibility:
    """Site sketches whose kind, parameters or seed differ from the
    coordinator's are refused in both modes, before any slot is folded."""

    @pytest.fixture
    def folds(self, monkeypatch):
        """Count the slots the coordinator folds."""
        calls: list[int] = []
        fold = ShardedSketchRunner._fold_slot

        def counted(runner, *args):
            calls.append(1)
            fold(runner, *args)

        monkeypatch.setattr(ShardedSketchRunner, "_fold_slot", counted)
        return calls

    def test_sequential_refuses_seed_that_changes_per_call(
        self, stream, tmp_path, folds
    ):
        seeds = itertools.count(500)

        def factory():
            return SpanningForestSketch(N, HashSource(next(seeds)))

        runner = ShardedSketchRunner(factory, sites=2)
        with pytest.raises(SketchCompatibilityError, match="seed"):
            runner.run(stream)
        store = EpochStore(tmp_path / "store")
        with pytest.raises(SketchCompatibilityError, match="seed"):
            runner.run_epochs(stream, epochs=3, store=store)
        assert store.epochs == 0, "no epoch may seal from refused sites"
        assert folds == []

    def test_process_refuses_seed_that_changes_per_process(
        self, stream, folds
    ):
        factory = functools.partial(_pid_seeded_forest, N)
        with ShardedSketchRunner(
            factory, sites=2, mode="process", processes=2
        ) as runner:
            with pytest.raises(SketchCompatibilityError, match="seed"):
                runner.run(stream)
        assert folds == []
        assert shm_mod.active_segment_names() == []


class TestOneByteFigure:
    """Both modes report the bytes the coordinator reads from each slot."""

    def test_payload_bytes_match_across_modes(self, stream):
        factory = functools.partial(forest_sketch, N, 41)
        shards = partition_stream(stream, 3, "round-robin")
        seq = ShardedSketchRunner(factory, sites=3, seed=3)
        seq_reports = [
            seq.run(stream),
            seq.run_shards(shards),
            seq.run_epochs(stream, epochs=4),
        ]
        assert seq._pool is None
        assert shm_mod.active_segment_names() == [], (
            "sequential mode must create no shared-memory segment"
        )
        with ShardedSketchRunner(
            factory, sites=3, seed=3, mode="process"
        ) as proc:
            proc_reports = [
                proc.run(stream),
                proc.run_shards(shards),
                proc.run_epochs(stream, epochs=4),
            ]
        for a, b in zip(seq_reports, proc_reports):
            assert [s.payload_bytes for s in a.sites] == \
                [s.payload_bytes for s in b.sites]
            assert a.total_payload_bytes == b.total_payload_bytes
            assert all(s.payload_bytes > 0 for s in a.sites)

    def test_payload_bytes_are_slot_bytes(self, stream):
        """16 bytes per nonzero entry, or 32 per cell when dense."""
        factory = functools.partial(forest_sketch, N, 43)
        shards = partition_stream(stream, 3, "contiguous")
        report = ShardedSketchRunner(factory, sites=3).run_shards(shards)
        for shard, site in zip(shards, report.sites):
            buffer = ensure_arena(
                factory().consume_batch(shard.as_batch())
            ).buffer
            nnz = int(np.count_nonzero(buffer))
            dense = 2 * nnz > buffer.size
            assert site.payload_bytes == (8 * buffer.size if dense else 16 * nnz)
