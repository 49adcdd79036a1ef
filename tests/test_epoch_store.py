"""Durable `EpochStore` harness: exactness properties + corruption fuzz.

Three contracts, each pinned where it can actually fail:

1. **Exactness** (hypothesis, every serialisable sketch class): any
   epoch window ``[t1, t2)`` answered through a *compacted* store —
   merged dyadic delta spans — is byte-identical to the uncompacted
   in-memory ``EpochTimeline`` answer (cumulative-checkpoint
   subtraction), and retention never evicts an epoch that the declared
   ``min_granularity`` still promises to answer.
2. **Durability** (corruption/crash fuzz): truncated segments, flipped
   bits, catalog entries pointing at missing or wrong-seed files, and a
   simulated crash between segment write and catalog rename all raise
   *typed* errors (:class:`~repro.errors.StoreCorruptionError` /
   :class:`~repro.errors.EpochStoreError`) — never a wrong window
   answer — and leave the store re-openable.  The committed golden
   store under ``tests/fixtures/epoch_store_v1/`` pins the on-disk
   format; if the format changes intentionally, add ``epoch_store_v2``
   and a migration path — do not regenerate v1.
3. **Distribution**: ``run_epochs`` sealing straight into a store on
   the persistent shared-memory pool produces stored state
   byte-identical to sequential mode.
"""

from __future__ import annotations

import functools
import json
import pathlib
import shutil
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EpochStore, GraphSketchEngine, RetentionPolicy, SketchSpec
from repro.api import ConnectivityQuery, build_sketch
from repro.distributed import ShardedSketchRunner
from repro.errors import EpochStoreError, NotSupportedError, StoreCorruptionError
from repro.sketch import dump_sketch, peek_sketch_meta
from repro.streams import DynamicGraphStream, churn_stream, erdos_renyi_graph
from repro.temporal import EpochCheckpoint, EpochManager, materialise_window

from blob_utils import repack_v2
from strategies import streams_with_epochs
from test_temporal_equivalence import (
    CHEAP_CASES,
    HEAVY_CASES,
    N,
    _stream_from,
    _window_pairs,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "epoch_store_v1"

#: Workload the golden store was sealed from (regeneration reference
#: only — see the module docstring: v1 is frozen).
GOLDEN_N = 10
GOLDEN_SEED = 424242
GOLDEN_EPOCHS = 4
GOLDEN_BOUNDARIES = (14, 28, 42, 57)

store_settings = settings(
    max_examples=5, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
heavy_store_settings = settings(
    max_examples=2, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _forest(n: int, seed: int) -> functools.partial:
    """A picklable factory of identically-seeded spanning-forest sketches."""
    return functools.partial(
        build_sketch, SketchSpec.of("spanning_forest", n, seed=seed)
    )


def _skew_cells(header, _payload) -> None:
    """Grow every field's cell count past what the parameters give."""
    header["cells"] = [cells + 1 for cells in header["cells"]]


def _null_n(header, _payload) -> None:
    """Blank the node count a sketch is rebuilt from."""
    header["n"] = None


def _golden_stream() -> DynamicGraphStream:
    return churn_stream(
        GOLDEN_N, erdos_renyi_graph(GOLDEN_N, 0.4, seed=5),
        churn_fraction=0.6, seed=6,
    )


def _copy_golden(tmp_path: pathlib.Path) -> pathlib.Path:
    """A scratch copy of the golden store, safe to tamper with."""
    root = tmp_path / "store"
    shutil.copytree(GOLDEN, root)
    return root


def _rewrite_catalog(root: pathlib.Path, mutate) -> None:
    """Apply ``mutate(doc)`` to the catalog and reseal its self-CRC.

    Models an attacker (or cosmic ray) with enough luck to keep the
    whole-file checksum valid — the per-segment checks must still catch
    the lie.
    """
    path = root / "catalog.json"
    doc = json.loads(path.read_bytes())
    doc.pop("self_crc32", None)
    mutate(doc)
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    doc["self_crc32"] = zlib.crc32(body) & 0xFFFFFFFF
    path.write_bytes(json.dumps(doc, sort_keys=True, indent=1).encode())


class TestWindowExactness:
    """Satellite 1: store windows byte-identical to timeline windows."""

    @pytest.mark.parametrize(
        "name,maker", CHEAP_CASES, ids=[c[0] for c in CHEAP_CASES]
    )
    @store_settings
    @given(data=streams_with_epochs(n=N, max_tokens=30, max_epochs=4))
    def test_compacted_store_matches_timeline(
        self, name, maker, data, tmp_path_factory
    ):
        tokens, boundaries = data
        factory = functools.partial(maker, 6000 + sum(ord(c) for c in name))
        timeline = EpochManager.consume(
            factory, _stream_from(tokens), boundaries=boundaries
        )
        root = tmp_path_factory.mktemp("hyp") / "store"
        store = EpochStore.from_timeline(root, timeline, horizon=0)
        for t1, t2 in _window_pairs(timeline.epochs):
            assert dump_sketch(materialise_window(store, t1, t2)) == \
                dump_sketch(materialise_window(timeline, t1, t2)), \
                f"{name}: store window [{t1},{t2}) differs from timeline"

    @pytest.mark.parametrize(
        "name,maker", HEAVY_CASES, ids=[c[0] for c in HEAVY_CASES]
    )
    @heavy_store_settings
    @given(data=streams_with_epochs(n=N, max_tokens=24, max_epochs=3))
    def test_hierarchy_classes_match(self, name, maker, data, tmp_path_factory):
        tokens, boundaries = data
        factory = functools.partial(maker, 6000 + sum(ord(c) for c in name))
        timeline = EpochManager.consume(
            factory, _stream_from(tokens), boundaries=boundaries
        )
        root = tmp_path_factory.mktemp("hyp") / "store"
        store = EpochStore.from_timeline(root, timeline, horizon=0)
        for t1, t2 in _window_pairs(timeline.epochs):
            assert dump_sketch(materialise_window(store, t1, t2)) == \
                dump_sketch(materialise_window(timeline, t1, t2)), \
                f"{name}: store window [{t1},{t2}) differs from timeline"

    @store_settings
    @given(
        data=streams_with_epochs(n=N, max_tokens=40, max_epochs=4),
        granularity=st.sampled_from([1, 2, 4]),
        horizon=st.integers(0, 2),
    )
    def test_reopened_store_answers_identically(
        self, data, granularity, horizon, tmp_path_factory
    ):
        """Windows survive a close/reopen cycle bit for bit."""
        tokens, boundaries = data
        factory = _forest(N, 321)
        timeline = EpochManager.consume(
            factory, _stream_from(tokens), boundaries=boundaries
        )
        root = tmp_path_factory.mktemp("hyp") / "store"
        EpochStore.from_timeline(
            root, timeline, horizon=horizon,
            retention=RetentionPolicy(min_granularity=granularity),
        )
        reopened = EpochStore.open(root)
        assert reopened.verify() > 0
        for t1, t2 in _window_pairs(timeline.epochs):
            try:
                got = dump_sketch(materialise_window(reopened, t1, t2))
            except EpochStoreError:
                continue  # finer than the granularity policy — legal refusal
            assert got == dump_sketch(materialise_window(timeline, t1, t2))

    @store_settings
    @given(
        data=streams_with_epochs(n=N, max_tokens=48, max_epochs=6),
        granularity=st.sampled_from([2, 4]),
    )
    def test_granularity_never_evicts_promised_windows(
        self, data, granularity, tmp_path_factory
    ):
        """Satellite 1b: every aligned window above base stays answerable.

        ``min_granularity=g`` may forget spans finer than ``g``, but any
        window whose endpoints are multiples of ``g`` (or the timeline
        tail) above the retention floor must still be answered — and
        exactly.
        """
        tokens, boundaries = data
        factory = _forest(N, 77)
        timeline = EpochManager.consume(
            factory, _stream_from(tokens), boundaries=boundaries
        )
        root = tmp_path_factory.mktemp("hyp") / "store"
        store = EpochStore.from_timeline(
            root, timeline,
            retention=RetentionPolicy(min_granularity=granularity),
        )
        epochs = timeline.epochs
        aligned = [t for t in range(0, epochs + 1, granularity)] + [epochs]
        for t1 in sorted(set(aligned)):
            for t2 in sorted(set(aligned)):
                if not store.base <= t1 < t2 <= epochs:
                    continue
                assert dump_sketch(materialise_window(store, t1, t2)) == \
                    dump_sketch(materialise_window(timeline, t1, t2))

    def test_dyadic_plan_is_logarithmic(self, tmp_path):
        """A fully compacted store answers any window in O(log T) spans."""
        import math

        T = 32
        stream = _stream_from(
            [(i % (N - 1), N - 1, 1) for i in range(T * 2)]
        )
        factory = _forest(N, 9)
        timeline = EpochManager.consume(factory, stream, epochs=T)
        store = EpochStore.from_timeline(tmp_path / "s", timeline, horizon=0)
        bound = 2 * int(math.log2(T)) + 2
        for t1 in range(T):
            for t2 in range(t1 + 1, T + 1):
                plan = store.plan_window(t1, t2)
                assert len(plan) <= bound
                covered = []
                for entry in plan:
                    covered.extend(range(entry.start, entry.end))
                assert covered == list(range(t1, t2)), "non-exact cover"

    def test_max_epochs_floor_respects_span_boundaries(self, tmp_path):
        stream = _stream_from([(i % (N - 1), N - 1, 1) for i in range(32)])
        factory = _forest(N, 13)
        timeline = EpochManager.consume(factory, stream, epochs=16)
        store = EpochStore.from_timeline(
            tmp_path / "s", timeline, retention=RetentionPolicy(max_epochs=4)
        )
        assert store.base <= store.epochs - 4
        assert all(e.start >= store.base for e in store.spans())
        with pytest.raises(EpochStoreError, match="retention floor"):
            store.plan_window(0, store.epochs)
        # The newest max_epochs epochs stay exact.
        assert dump_sketch(materialise_window(store, 12, 16)) == \
            dump_sketch(materialise_window(timeline, 12, 16))

    def test_max_bytes_evicts_oldest_first_and_keeps_newest(self, tmp_path):
        stream = _stream_from([(i % (N - 1), N - 1, 1) for i in range(32)])
        factory = _forest(N, 14)
        timeline = EpochManager.consume(factory, stream, epochs=16)
        unbounded = EpochStore.from_timeline(tmp_path / "u", timeline)
        budget = unbounded.total_bytes // 3
        store = EpochStore.from_timeline(
            tmp_path / "s", timeline, retention=RetentionPolicy(max_bytes=budget)
        )
        assert store.base > 0, "a third of the budget must evict something"
        # The newest epoch is never evicted, whatever the budget.
        assert dump_sketch(
            materialise_window(store, store.epochs - 1, store.epochs)
        ) == dump_sketch(
            materialise_window(timeline, store.epochs - 1, store.epochs)
        )

    def test_lru_keeps_resident_bytes_bounded(self, tmp_path):
        stream = _stream_from([(i % (N - 1), N - 1, 1) for i in range(64)])
        factory = _forest(N, 15)
        timeline = EpochManager.consume(factory, stream, epochs=16)
        EpochStore.from_timeline(tmp_path / "s", timeline, horizon=0)
        budget = 48_000
        store = EpochStore.open(tmp_path / "s", cache_bytes=budget)
        for t1, t2 in [(0, 16), (4, 12), (8, 16), (0, 8), (2, 14)]:
            materialise_window(store, t1, t2)
        assert store.resident_bytes <= budget
        assert store.disk_loads > 0
        # A cache hit must not touch the disk again.
        loads = store.disk_loads
        materialise_window(store, 0, 16)
        assert store.disk_loads == loads


class TestResume:
    def test_resume_extends_seamlessly(self, tmp_path):
        """Crash-continuation: windows across the restart stay exact."""
        stream = _stream_from(
            [(i % (N - 1), N - 1, 1 if i % 3 else 1) for i in range(40)]
        )
        factory = _forest(N, 55)
        batch = stream.as_batch()
        bounds = [10, 20, 30, 40]

        root = tmp_path / "s"
        manager = EpochManager(factory, store=EpochStore(root))
        manager.extend(batch.slice(0, 10)).seal_epoch()
        manager.extend(batch.slice(10, 20)).seal_epoch()
        del manager  # "crash"

        resumed = EpochManager.resume(factory, EpochStore.open(root))
        resumed.extend(batch.slice(20, 30)).seal_epoch()
        resumed.extend(batch.slice(30, 40)).seal_epoch()
        store = resumed.store
        assert store.epochs == 4
        assert store.boundaries == (10, 20, 30, 40)

        uninterrupted = EpochManager.consume(factory, stream, boundaries=bounds)
        for t1, t2 in [(0, 4), (1, 3), (0, 2), (2, 4), (1, 4)]:
            assert dump_sketch(materialise_window(store, t1, t2)) == \
                dump_sketch(materialise_window(uninterrupted, t1, t2))

    def test_store_backed_manager_is_bounded(self, tmp_path):
        manager = EpochManager(
            _forest(N, 1),
            store=EpochStore(tmp_path / "s"),
        )
        manager.extend(_stream_from([(0, 1, 1)]).as_batch()).seal_epoch()
        assert manager.sealed_epochs == 1
        with pytest.raises(EpochStoreError, match="store-backed"):
            manager.timeline()

    def test_fresh_manager_refuses_nonempty_store(self, tmp_path):
        store = EpochStore(tmp_path / "s")
        EpochManager(
            _forest(N, 1), store=store
        ).extend(_stream_from([(0, 1, 1)]).as_batch()).seal_epoch()
        with pytest.raises(EpochStoreError, match="resume"):
            EpochManager(_forest(N, 1), store=store)
        with pytest.raises(EpochStoreError, match="empty"):
            EpochManager.resume(
                _forest(N, 1),
                EpochStore(tmp_path / "empty"),
            )

    @pytest.mark.parametrize("spec", [
        SketchSpec.of("spanning_forest", N, seed=2),
        SketchSpec.of("spanning_forest", N, seed=1, rows=3),
        SketchSpec.of("cut_edges", N, seed=1, k=2),
    ], ids=["seed", "rows", "kind"])
    def test_resume_refuses_a_factory_that_does_not_combine(
        self, tmp_path, spec
    ):
        """The head is loaded against the factory's sketch, so a factory
        that would seal other checkpoints is refused like such an append."""
        store = EpochStore(tmp_path / "s")
        EpochManager(
            _forest(N, 1), store=store
        ).extend(_stream_from([(0, 1, 1)]).as_batch()).seal_epoch()
        factory = functools.partial(build_sketch, spec)
        with pytest.raises(EpochStoreError, match="does not combine"):
            EpochManager.resume(factory, store)


class TestAppendContract:
    def test_out_of_order_append_refused(self, tmp_path):
        factory = _forest(N, 2)
        timeline = EpochManager.consume(
            factory, _stream_from([(0, 1, 1), (1, 2, 1)]), epochs=2
        )
        store = EpochStore(tmp_path / "s")
        store.append_checkpoint(timeline.checkpoint(1))
        with pytest.raises(EpochStoreError, match="out-of-order"):
            store.append_checkpoint(timeline.checkpoint(1))

    def test_mismatched_seed_append_refused(self, tmp_path):
        t1 = EpochManager.consume(
            _forest(N, 2),
            _stream_from([(0, 1, 1)]), epochs=1,
        )
        t2 = EpochManager.consume(
            _forest(N, 3),
            _stream_from([(0, 1, 1), (1, 2, 1)]), epochs=2,
        )
        store = EpochStore(tmp_path / "s")
        store.append_checkpoint(t1.checkpoint(1))
        with pytest.raises(EpochStoreError, match="seed"):
            store.append_checkpoint(t2.checkpoint(2))

    def test_garbage_payload_refused(self, tmp_path):
        from repro.temporal import EpochCheckpoint

        store = EpochStore(tmp_path / "s")
        with pytest.raises(EpochStoreError, match="not a sketch blob"):
            store.append_checkpoint(EpochCheckpoint(1, 1, 1, b"junk"))

    def test_open_refuses_missing_and_foreign_directories(self, tmp_path):
        with pytest.raises(EpochStoreError, match="no epoch store"):
            EpochStore.open(tmp_path / "nowhere")
        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "data.txt").write_text("not ours")
        with pytest.raises(EpochStoreError, match="refusing to adopt"):
            EpochStore(foreign)

    def test_retention_policy_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            RetentionPolicy(min_granularity=3)
        with pytest.raises(ValueError, match="max_epochs"):
            RetentionPolicy(max_epochs=0)
        with pytest.raises(ValueError, match="max_bytes"):
            RetentionPolicy(max_bytes=0)


class TestCorruptionFuzz:
    """Satellite 2: tampered on-disk state raises typed errors, never
    wrong answers, and the store stays re-openable."""

    def _live_span(self, store: EpochStore):
        return store.spans()[0]

    def test_truncated_segment(self, tmp_path):
        root = _copy_golden(tmp_path)
        store = EpochStore.open(root)
        entry = self._live_span(store)
        path = root / "segments" / entry.file
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(StoreCorruptionError, match="integrity"):
            materialise_window(store, entry.start, entry.end)
        # Undamaged epochs still answer; the store re-opens.
        assert EpochStore.open(root).epochs == GOLDEN_EPOCHS

    def test_bit_flipped_segment(self, tmp_path):
        root = _copy_golden(tmp_path)
        store = EpochStore.open(root)
        entry = self._live_span(store)
        path = root / "segments" / entry.file
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(StoreCorruptionError, match="CRC|integrity"):
            store.verify()
        assert EpochStore.open(root).epochs == GOLDEN_EPOCHS

    def test_missing_segment(self, tmp_path):
        root = _copy_golden(tmp_path)
        store = EpochStore.open(root)
        entry = self._live_span(store)
        (root / "segments" / entry.file).unlink()
        with pytest.raises(StoreCorruptionError, match="missing"):
            materialise_window(store, entry.start, entry.end)
        assert EpochStore.open(root).epochs == GOLDEN_EPOCHS

    def test_catalog_entry_pointing_at_wrong_span(self, tmp_path):
        """A resealed catalog aiming an entry at another (valid!) segment
        is caught by the blob's own span metadata — swapped files cannot
        silently answer the wrong window."""
        root = _copy_golden(tmp_path)
        store = EpochStore.open(root)
        spans = store.spans()
        a, b = spans[0], spans[1]

        def swap(doc):
            for span in doc["spans"]:
                if span["start"] == a.start and span["end"] == a.end:
                    span["file"] = b.file
                    span["bytes"] = b.nbytes
                    span["crc32"] = b.crc32
        _rewrite_catalog(root, swap)
        tampered = EpochStore.open(root)
        with pytest.raises(StoreCorruptionError, match="misplaced"):
            materialise_window(tampered, a.start, a.end)

    def test_mismatched_seed_segment(self, tmp_path):
        """A segment from an identically-shaped store with another seed
        passes file-level CRC (catalog resealed) but fails the header
        seed check."""
        root = _copy_golden(tmp_path)
        store = EpochStore.open(root)
        entry = self._live_span(store)
        other_timeline = EpochManager.consume(
            _forest(GOLDEN_N, GOLDEN_SEED + 1),
            _golden_stream(), boundaries=list(GOLDEN_BOUNDARIES),
        )
        other_root = tmp_path / "other"
        other = EpochStore.from_timeline(other_root, other_timeline, horizon=0)
        other_entry = next(
            e for e in other.spans()
            if (e.start, e.end) == (entry.start, entry.end)
        )
        shutil.copy(
            other_root / "segments" / other_entry.file,
            root / "segments" / entry.file,
        )

        def reseal(doc):
            for span in doc["spans"]:
                if span["file"] == entry.file:
                    span["bytes"] = other_entry.nbytes
                    span["crc32"] = other_entry.crc32
        _rewrite_catalog(root, reseal)
        tampered = EpochStore.open(root)
        with pytest.raises(StoreCorruptionError, match="seed"):
            materialise_window(tampered, entry.start, entry.end)

    @pytest.mark.parametrize("mutate,match", [
        (_skew_cells, "cell layout"), (_null_n, "cannot build"),
    ], ids=["skew_cells", "null_n"])
    def test_unloadable_compacted_span_is_typed_on_the_engine_path(
        self, tmp_path, mutate, match
    ):
        """A compacted span whose header no longer matches its cell
        layout, or no longer builds a sketch at all, passes the resealed
        segment and catalog CRCs but fails to load — a windowed engine
        query reports store corruption, not a bare codec error."""
        root = _copy_golden(tmp_path)
        entry = next(e for e in EpochStore.open(root).spans() if e.length > 1)
        path = root / "segments" / entry.file
        data = repack_v2(path.read_bytes(), mutate)
        path.write_bytes(data)

        def reseal(doc):
            for span in doc["spans"]:
                if span["file"] == entry.file:
                    span["bytes"] = len(data)
                    span["crc32"] = zlib.crc32(data) & 0xFFFFFFFF
        _rewrite_catalog(root, reseal)
        engine = GraphSketchEngine.attach_store(root)
        with pytest.raises(StoreCorruptionError, match=match):
            engine.query(ConnectivityQuery(window=(entry.start, entry.end)))

    def test_unloadable_head_is_typed(self, tmp_path):
        """A head segment that passes the resealed catalog CRC but fails
        to load is store corruption on both paths that load it: resuming
        the manager and appending the next checkpoint."""
        root = _copy_golden(tmp_path)
        head = json.loads((root / "catalog.json").read_bytes())["head"]
        path = root / "segments" / head["file"]

        def skew_cells(header, _payload):
            header["cells"] = [cells + 1 for cells in header["cells"]]
        data = repack_v2(path.read_bytes(), skew_cells)
        path.write_bytes(data)

        def reseal(doc):
            doc["head"]["bytes"] = len(data)
            doc["head"]["crc32"] = zlib.crc32(data) & 0xFFFFFFFF
        _rewrite_catalog(root, reseal)
        factory = _forest(GOLDEN_N, GOLDEN_SEED)
        with pytest.raises(StoreCorruptionError, match="cell layout"):
            EpochManager.resume(factory, EpochStore.open(root))
        timeline = EpochManager.consume(
            factory, _golden_stream(), boundaries=list(GOLDEN_BOUNDARIES)
        )
        last = timeline.checkpoint(GOLDEN_EPOCHS)
        with pytest.raises(StoreCorruptionError, match="cell layout"):
            EpochStore.open(root).append_checkpoint(EpochCheckpoint(
                GOLDEN_EPOCHS + 1, 0, last.cumulative_tokens, last.payload
            ))

    def test_bit_flipped_catalog(self, tmp_path):
        root = _copy_golden(tmp_path)
        path = root / "catalog.json"
        data = bytearray(path.read_bytes())
        # Alter a digit inside the boundaries list, keeping valid JSON.
        at = data.index(b'"boundaries"')
        while not chr(data[at]).isdigit():
            at += 1
        data[at] = ord("1") if data[at] != ord("1") else ord("2")
        path.write_bytes(bytes(data))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            EpochStore.open(root)

    def test_truncated_catalog(self, tmp_path):
        root = _copy_golden(tmp_path)
        path = root / "catalog.json"
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(StoreCorruptionError, match="JSON"):
            EpochStore.open(root)

    @pytest.mark.parametrize(
        "body", [b"[1, 2, 3]", b"42"], ids=["array", "number"]
    )
    def test_non_object_catalog(self, tmp_path, body):
        """Valid JSON that is not an object is a corrupt catalog."""
        root = _copy_golden(tmp_path)
        (root / "catalog.json").write_bytes(body)
        with pytest.raises(StoreCorruptionError, match="not a JSON object"):
            EpochStore.open(root)

    @pytest.mark.parametrize(
        "retention", [[1, 2, 3], 42], ids=["array", "number"]
    )
    def test_non_object_retention(self, tmp_path, retention):
        """A checksum-consistent catalog with a non-object retention."""
        root = _copy_golden(tmp_path)
        _rewrite_catalog(root, lambda doc: doc.update(retention=retention))
        with pytest.raises(StoreCorruptionError, match="schema validation"):
            EpochStore.open(root)

    def test_newer_catalog_version_refused(self, tmp_path):
        root = _copy_golden(tmp_path)
        _rewrite_catalog(root, lambda doc: doc.update(version=99))
        with pytest.raises(EpochStoreError, match="newer"):
            EpochStore.open(root)

    def test_crash_between_segment_write_and_catalog_rename(self, tmp_path):
        """Orphans from an interrupted append are swept; answers unchanged."""
        root = _copy_golden(tmp_path)
        before = {
            (t1, t2): dump_sketch(
                materialise_window(EpochStore.open(root), t1, t2)
            )
            for t1, t2 in [(0, 4), (1, 3), (2, 4)]
        }
        segments = root / "segments"
        # The residue of an append that died before the catalog rename:
        # a fully-written span, a half-written tmp, a newer head.
        (segments / "span-000004-000005.blob").write_bytes(b"half-written")
        (segments / "head-000005.blob").write_bytes(b"also orphaned")
        (segments / "span-000000-000008.blob.tmp").write_bytes(b"tmp")
        store = EpochStore.open(root)
        assert store.epochs == GOLDEN_EPOCHS, "catalog is the commit point"
        assert not (segments / "span-000004-000005.blob").exists()
        assert not (segments / "head-000005.blob").exists()
        assert not (segments / "span-000000-000008.blob.tmp").exists()
        for (t1, t2), expected in before.items():
            assert dump_sketch(materialise_window(store, t1, t2)) == expected

    def test_foreign_files_survive_the_sweep(self, tmp_path):
        root = _copy_golden(tmp_path)
        keep = root / "segments" / "NOTES.txt"
        keep.write_text("operator breadcrumb")
        EpochStore.open(root)
        assert keep.exists()


def _count_inflates(monkeypatch) -> list[int]:
    """Count ``zlib.decompress`` calls from now on (``calls[0]``)."""
    calls = [0]
    inflate = zlib.decompress

    def counting(*args, **kwargs):
        calls[0] += 1
        return inflate(*args, **kwargs)

    monkeypatch.setattr(zlib, "decompress", counting)
    return calls


class TestInflateOncePerBlob:
    """The store parses only the header of bytes that the catalog CRC
    has verified or that the codec fully reads next, so each blob an
    append or a page-in touches is inflated once, by the codec."""

    def test_append_inflates_checkpoint_and_head_once(self, tmp_path, monkeypatch):
        timeline = EpochManager.consume(
            _forest(GOLDEN_N, 7), _golden_stream(),
            epochs=3,
        )
        root = tmp_path / "s"
        # A wide horizon keeps compaction (which loads spans) out of it.
        EpochStore(root, horizon=8).append_checkpoint(timeline.checkpoint(1))
        store = EpochStore.open(root)  # cold: the head is on disk only
        calls = _count_inflates(monkeypatch)
        store.append_checkpoint(timeline.checkpoint(2))
        assert calls[0] == 2  # load the checkpoint, subtract the head
        store.append_checkpoint(timeline.checkpoint(3))
        assert calls[0] == 4

    def test_cold_window_inflates_each_span_once(self, tmp_path, monkeypatch):
        store = EpochStore.open(_copy_golden(tmp_path))
        spans = len(store.plan_window(0, 3))
        assert spans == 2  # (0, 2] and (2, 3]
        calls = _count_inflates(monkeypatch)
        materialise_window(store, 0, 3)
        assert store.disk_loads == spans
        assert calls[0] == spans


class TestGoldenFixture:
    """Pin the v1 on-disk format against the committed store."""

    def test_opens_with_expected_shape(self):
        store = EpochStore.open(GOLDEN)
        assert store.epochs == GOLDEN_EPOCHS
        assert store.base == 0
        assert store.boundaries == GOLDEN_BOUNDARIES
        assert store.sketch_kind == "sketch:spanning_forest"
        assert store.seed == GOLDEN_SEED
        assert store.n == GOLDEN_N
        assert [(e.start, e.end) for e in store.spans()] == [
            (0, 1), (0, 2), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4),
        ]

    def test_catalog_schema_is_v1(self):
        doc = json.loads((GOLDEN / "catalog.json").read_bytes())
        assert doc["format"] == "repro-epoch-store"
        assert doc["version"] == 1
        assert set(doc) == {
            "format", "version", "sketch_kind", "sketch_seed", "n", "base",
            "epoch_tokens", "boundaries", "horizon", "retention", "head",
            "spans", "self_crc32",
        }
        assert all(
            set(span) == {"start", "end", "file", "bytes", "crc32"}
            for span in doc["spans"]
        )

    def test_every_segment_verifies(self):
        assert EpochStore.open(GOLDEN).verify() == 8  # 7 spans + head

    def test_windows_match_freshly_computed_sketches(self):
        """The frozen bytes still decode to the exact window sketches."""
        store = EpochStore.open(GOLDEN)
        factory = _forest(GOLDEN_N, GOLDEN_SEED)
        batch = _golden_stream().as_batch()
        bounds = (0,) + GOLDEN_BOUNDARIES
        for t1, t2 in [(0, 4), (0, 2), (1, 3), (2, 4), (3, 4)]:
            direct = factory()
            direct.consume_batch(batch.slice(bounds[t1], bounds[t2]))
            assert dump_sketch(materialise_window(store, t1, t2)) == \
                dump_sketch(direct)

    def test_head_carries_seal_metadata(self):
        store = EpochStore.open(GOLDEN)
        meta = peek_sketch_meta(store.head_payload())
        assert meta["epoch"] == {
            "epoch": 4, "tokens": 15, "cumulative_tokens": 57,
        }


class TestEngineIntegration:
    def _stream(self):
        return churn_stream(
            N, erdos_renyi_graph(N, 0.5, seed=21), churn_fraction=0.5, seed=22
        )

    def test_engine_store_mode_matches_in_memory(self, tmp_path):
        spec = SketchSpec.of("spanning_forest", n=N, seed=4)
        stream = self._stream()
        durable = (GraphSketchEngine.for_spec(spec)
                   .epochs(count=6, store=tmp_path / "s")
                   .ingest(stream))
        in_memory = (GraphSketchEngine.for_spec(spec)
                     .epochs(count=6).ingest(stream))
        assert durable.timeline is None and durable.store.epochs == 6
        for window in [(0, 6), (2, 5), (1, 2)]:
            a = durable.query(ConnectivityQuery(window=window))
            b = in_memory.query(ConnectivityQuery(window=window))
            assert (a.connected, a.components) == (b.connected, b.components)

    def test_snapshot_restore_round_trips_store_pointer(self, tmp_path):
        spec = SketchSpec.of("spanning_forest", n=N, seed=4)
        engine = (GraphSketchEngine.for_spec(spec)
                  .epochs(count=4, store=tmp_path / "s")
                  .ingest(self._stream()))
        blob = engine.snapshot()
        assert peek_sketch_meta(blob)["__kind__"] == "epoch-store"
        restored = GraphSketchEngine.restore(blob)
        assert restored.deployment == "temporal"
        assert restored.epochs_sealed == 4
        assert restored.spec.kind == "spanning_forest"
        a = engine.query(ConnectivityQuery(window=(1, 4)))
        b = restored.query(ConnectivityQuery(window=(1, 4)))
        assert (a.connected, a.components) == (b.connected, b.components)

    def test_attach_store_and_retention_guards(self, tmp_path):
        with pytest.raises(ValueError, match="store= as well"):
            GraphSketchEngine.for_spec(
                SketchSpec.of("spanning_forest", n=N, seed=4)
            ).epochs(count=2, retention=RetentionPolicy(max_epochs=4))
        with pytest.raises(NotSupportedError, match="empty"):
            GraphSketchEngine.attach_store(EpochStore(tmp_path / "empty"))
        spec = SketchSpec.of("spanning_forest", n=N, seed=4)
        (GraphSketchEngine.for_spec(spec)
         .epochs(count=3, store=tmp_path / "s").ingest(self._stream()))
        attached = GraphSketchEngine.attach_store(tmp_path / "s")
        assert attached.epochs_sealed == 3
        assert attached.spec.kind == spec.kind
        assert attached.spec.build()._spec() == spec.build()._spec()

    def test_cli_store_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "cli-store")
        assert main([
            "epochs", "--epochs", "4", "--store", root, "--granularity", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "retention floor 0" in out
        assert "store pointer" in out
        assert main([
            "window-query", "--store", root, "--from", "2", "--to", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "dyadic span load" in out
        # Sub-granularity window: typed refusal → exit 2, not a traceback.
        assert main([
            "window-query", "--store", root, "--from", "1", "--to", "2",
        ]) == 2
        assert "finer than the retained granularity" in \
            capsys.readouterr().err
        assert main([
            "epochs", "--epochs", "2", "--granularity", "2",
        ]) == 2  # retention flags without --store

    def test_cli_epochs_refuses_reusing_populated_store(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "cli-store")
        assert main(["epochs", "--epochs", "2", "--store", root]) == 0
        capsys.readouterr()
        assert main(["epochs", "--epochs", "2", "--store", root]) == 2
        assert "resume" in capsys.readouterr().err


class TestProcessModeStore:
    """Satellite 3: shm-pool ``run_epochs`` sealing into a store."""

    def test_process_mode_store_matches_sequential(self, tmp_path):
        factory = _forest(N, 31)
        stream = churn_stream(
            N, erdos_renyi_graph(N, 0.4, seed=5), churn_fraction=0.6, seed=6
        )
        seq_store = EpochStore(tmp_path / "seq")
        seq = ShardedSketchRunner(factory, sites=3, seed=3).run_epochs(
            stream, epochs=4, store=seq_store
        )
        proc_store = EpochStore(tmp_path / "proc")
        with ShardedSketchRunner(
            factory, sites=3, seed=3, mode="process", processes=2
        ) as runner:
            proc = runner.run_epochs(stream, epochs=4, store=proc_store)
        assert proc.timeline is None and seq.timeline is None
        assert proc.epochs == seq.epochs == 4
        assert proc_store.epochs == seq_store.epochs == 4
        assert proc_store.head_payload() == seq_store.head_payload()
        assert [(e.start, e.end, e.crc32) for e in proc_store.spans()] == \
            [(e.start, e.end, e.crc32) for e in seq_store.spans()]
        for t1, t2 in [(0, 4), (1, 3), (2, 4)]:
            assert dump_sketch(materialise_window(proc_store, t1, t2)) == \
                dump_sketch(materialise_window(seq_store, t1, t2))
        # And the durable state matches an in-memory timeline.
        local = EpochManager.consume(factory, stream, epochs=4)
        assert dump_sketch(materialise_window(proc_store, 0, 4)) == \
            dump_sketch(materialise_window(local, 0, 4))
