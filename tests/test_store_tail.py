"""The store's tail: the newest sealed state kept as decoded cells.

An ``EpochStore`` keeps the cells of its head and of the length-1 delta
spans compaction may still take (the *tail*), so appends, compaction
and recent windows fold cells instead of inflating what the process
just wrote.  These tests pin:

* exactness — the segment files and catalog of seeded churn runs hash
  to the figures the byte-only store wrote (horizons 0, 1 and 4, a
  granularity and an epoch-count policy, a reopen mid-run,
  ``from_timeline``, sharded ``run_epochs`` in both modes), and every
  window answers the same bytes from a warm store and a reopened one;
* the bound — after every append the tail holds the head and at most
  ``horizon + 1`` live length-1 spans; its arrays refuse writes; a
  reopened store starts with none and writes the same segments on;
* error parity — a checkpoint that does not fit the store fails the
  same way whether the head is held as cells or read from disk;
* that a sealer-handed append on a warm head inflates nothing,
  ``verify`` reads the head from disk, and a commit fsyncs
  ``segments/`` before the catalog rename and the root after it.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pathlib
import shutil
import zlib

import pytest

from repro import EpochStore, RetentionPolicy, SketchSpec
from repro.api import build_sketch
from repro.distributed import ShardedSketchRunner
from repro.errors import EpochStoreError, StoreCorruptionError
from repro.sketch import dump_sketch
from repro.sketch.serialize import dump_cells
from repro.streams import churn_stream, erdos_renyi_graph
from repro.temporal import (
    EpochCheckpoint,
    EpochManager,
    epoch_boundaries,
    materialise_window,
)

N = 16
SEED = 5
EPOCHS = 24

#: name -> (horizon, retention, how the epochs are sealed).
SCENARIOS = {
    "horizon-0": (0, None, "manager"),
    "horizon-1": (1, None, "manager"),
    "horizon-4": (4, None, "manager"),
    "granularity": (1, RetentionPolicy(min_granularity=4), "manager"),
    "max-epochs": (2, RetentionPolicy(max_epochs=7), "manager"),
    "reopen": (2, None, "reopen"),
    "from-timeline": (1, None, "timeline"),
    "sharded-sequential": (1, None, "sequential"),
    "sharded-process": (1, None, "process"),
}

#: sha256 over the segment files and catalog, then over every window's
#: answer, for each scenario: the figures a store that reads every
#: payload from its bytes produces, which keeping a tail must not change.
PINNED = {
    "from-timeline": (
        "568c7d6172b562b8f728d60fb0880844932b416687e7feb23c52d6c4beebae34",
        "33ea6a96327bffb663a5aea5e005299fb4339e34f6c2373df8219d908367bd10",
    ),
    "granularity": (
        "bf2690b274c7e1d1f846c0e66939d41d888f34c7dd6d2374799551cd046d9866",
        "cbf987e99112f36c53f996188743fb81af73361540059f817b1ed3d2c26cfb08",
    ),
    "horizon-0": (
        "8a2f34394ef566ea8742d4157ef273ecb4b1c03221cfdbd0631da61c96a2e063",
        "33ea6a96327bffb663a5aea5e005299fb4339e34f6c2373df8219d908367bd10",
    ),
    "horizon-1": (
        "568c7d6172b562b8f728d60fb0880844932b416687e7feb23c52d6c4beebae34",
        "33ea6a96327bffb663a5aea5e005299fb4339e34f6c2373df8219d908367bd10",
    ),
    "horizon-4": (
        "7bf04f1305028c9b551b57b818b1bcfabd5bb4c02a225bcae50161b140a9bbbb",
        "33ea6a96327bffb663a5aea5e005299fb4339e34f6c2373df8219d908367bd10",
    ),
    "max-epochs": (
        "39961cbd94b1676fc2dd480b35d571158c5437e33bbc712e32000be04b4f91f3",
        "baa83bc38e62ad033915d0266cbc62af0ebb1dc29bfd880990486ec2ce587c0f",
    ),
    "reopen": (
        "9bb017726b16b5bf9589c86404608bc18de4367486d79a0d1683e198e8df1586",
        "33ea6a96327bffb663a5aea5e005299fb4339e34f6c2373df8219d908367bd10",
    ),
    "sharded-process": (
        "568c7d6172b562b8f728d60fb0880844932b416687e7feb23c52d6c4beebae34",
        "33ea6a96327bffb663a5aea5e005299fb4339e34f6c2373df8219d908367bd10",
    ),
    "sharded-sequential": (
        "568c7d6172b562b8f728d60fb0880844932b416687e7feb23c52d6c4beebae34",
        "33ea6a96327bffb663a5aea5e005299fb4339e34f6c2373df8219d908367bd10",
    ),
}


def _forest(seed: int = SEED) -> functools.partial:
    return functools.partial(
        build_sketch, SketchSpec.of("spanning_forest", N, seed=seed)
    )


def _stream():
    return churn_stream(
        N, erdos_renyi_graph(N, 0.4, seed=31), churn_fraction=0.6, seed=32
    )


def _seal(root: pathlib.Path, name: str, after_append=None) -> EpochStore:
    """Seal the scenario's epochs into a store at ``root``.

    ``after_append(store)`` runs after every seal of the manager
    scenarios.
    """
    horizon, retention, how = SCENARIOS[name]
    factory, stream = _forest(), _stream()
    if how == "timeline":
        timeline = EpochManager.consume(factory, stream, epochs=EPOCHS)
        return EpochStore.from_timeline(
            root, timeline, horizon=horizon, retention=retention
        )
    store = EpochStore(root, horizon=horizon, retention=retention)
    if how in ("sequential", "process"):
        with ShardedSketchRunner(
            factory, sites=3, seed=3, mode=how,
            processes=2 if how == "process" else None,
        ) as runner:
            runner.run_epochs(stream, epochs=EPOCHS, store=store)
        return store
    batch = stream.as_batch()
    manager = EpochManager(factory, store=store)
    start = 0
    for epoch, end in enumerate(epoch_boundaries(len(stream), EPOCHS)):
        if how == "reopen" and epoch == EPOCHS // 2:
            store = EpochStore.open(root)
            manager = EpochManager.resume(factory, store)
        manager.extend(batch.slice(start, end)).seal_epoch()
        start = end
        if after_append is not None:
            after_append(store)
    return store


def _files_digest(root: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for path in [root / "catalog.json", *sorted((root / "segments").iterdir())]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _windows_digest(store: EpochStore) -> str:
    """Every window's dumped sketch, or the error it raises."""
    digest = hashlib.sha256()
    for t1 in range(store.epochs):
        for t2 in range(t1 + 1, store.epochs + 1):
            try:
                answer = dump_sketch(materialise_window(store, t1, t2))
            except EpochStoreError as err:
                answer = f"{type(err).__name__}: {err}".encode()
            digest.update(answer)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_segments_and_windows_match_the_byte_only_store(tmp_path, name):
    root = tmp_path / name
    store = _seal(root, name)
    files = _files_digest(root)
    warm = _windows_digest(store)
    assert _windows_digest(EpochStore.open(root)) == warm
    assert (files, warm) == PINNED[name]


# -- the bound ------------------------------------------------------------------


def _check_tail(store: EpochStore) -> None:
    """The tail holds the head and at most ``horizon + 1`` live length-1
    spans, all at or past the horizon frontier."""
    tail = dict(store._tail)
    assert store._head_cells is not None
    assert len(tail) <= store.horizon + 1
    live = {(e.start, e.end) for e in store.spans()}
    frontier = store.epochs - store.horizon
    for (start, end) in tail:
        assert end - start == 1 and (start, end) in live
        assert end >= frontier
    assert store.tail_bytes == sum(
        c.nbytes for c in [store._head_cells, *tail.values()]
    )


@pytest.mark.parametrize("horizon", [0, 1, 4, 8])
def test_the_tail_stays_within_the_horizon(tmp_path, horizon):
    sizes: list[int] = []

    def check(store):
        _check_tail(store)
        sizes.append(len(store._tail))

    store = EpochStore(tmp_path / "s", horizon=horizon)
    manager = EpochManager(_forest(), store=store)
    stream = _stream()
    batch = stream.as_batch()
    start = 0
    for end in epoch_boundaries(len(stream), EPOCHS):
        manager.extend(batch.slice(start, end)).seal_epoch()
        start = end
        check(store)
    # Past the horizon the tail stops growing with the epoch count.
    assert max(sizes) <= horizon + 1
    assert sizes[-1] >= min(horizon, 1)


@pytest.mark.parametrize("name", ["granularity", "max-epochs"])
def test_evictions_drop_evicted_spans_from_the_tail(tmp_path, name):
    evicted: list[bool] = []

    def check(store):
        _check_tail(store)
        evicted.append(store.base > 0 or any(
            (s, s + 1) not in {(e.start, e.end) for e in store.spans()}
            for s in range(store.base, store.epochs)
        ))

    _seal(tmp_path / name, name, after_append=check)
    assert any(evicted)  # the policy did evict length-1 spans


def test_tail_arrays_refuse_writes(tmp_path):
    store = _seal(tmp_path / "s", "horizon-4")
    held = [store._head_cells, *store._tail.values()]
    assert len(held) > 1
    for cells in held:
        for array in (cells.positions, cells.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        with pytest.raises(TypeError):
            cells.spec["seed"] = 0  # type: ignore[index]


def test_a_reopened_store_starts_empty_and_writes_the_same_segments(tmp_path):
    """Sealing half the epochs, reopening and resuming writes the files
    an uninterrupted run writes, and the reopened store reads its head
    from disk for the first append."""
    whole = tmp_path / "whole"
    _seal(whole, "horizon-1")
    root = tmp_path / "split"
    factory, stream = _forest(), _stream()
    batch = stream.as_batch()
    bounds = epoch_boundaries(len(stream), EPOCHS)
    store = EpochStore(root, horizon=1)
    manager = EpochManager(factory, store=store)
    start = 0
    for epoch, end in enumerate(bounds):
        if epoch == EPOCHS // 2:
            assert store.tail_bytes > 0
            store = EpochStore.open(root)
            assert store.tail_bytes == 0 and not store._tail
            manager = EpochManager.resume(factory, store)
        manager.extend(batch.slice(start, end)).seal_epoch()
        start = end
    assert _files_digest(root) == _files_digest(whole)


# -- error parity -----------------------------------------------------------------


def _bad_checkpoints() -> dict[str, EpochCheckpoint]:
    """Checkpoint 4 of another kind, seed and parameters."""
    stream = _stream()
    specs = {
        "kind": SketchSpec.of("cut_edges", N, seed=SEED, k=4),
        "seed": SketchSpec.of("spanning_forest", N, seed=SEED + 1),
        "params": SketchSpec.of("spanning_forest", N, seed=SEED, buckets=8),
    }
    return {
        name: EpochManager.consume(
            functools.partial(build_sketch, spec), stream, epochs=4
        ).checkpoint(4)
        for name, spec in specs.items()
    }


def test_a_checkpoint_that_does_not_fit_fails_alike_warm_and_cold(tmp_path):
    warm_root = tmp_path / "warm"
    stream = _stream()
    warm = EpochManager.consume(_forest(), stream, epochs=3,
                                store=EpochStore(warm_root, horizon=8))
    assert warm._head_cells is not None
    errors = {}
    for name, checkpoint in _bad_checkpoints().items():
        cold_root = tmp_path / f"cold-{name}"
        shutil.copytree(warm_root, cold_root)
        cold = EpochStore.open(cold_root)
        got = []
        for store in (warm, cold):
            with pytest.raises(EpochStoreError) as info:
                store.append_checkpoint(checkpoint)
            got.append((type(info.value), str(info.value)))
        assert got[0] == got[1], name
        errors[name] = got[0]
    assert "does not match the store's kind" in errors["kind"][1]
    assert "does not match the store's kind" in errors["seed"][1]
    assert errors["params"][0] is EpochStoreError
    assert errors["params"][1].startswith(
        "checkpoint does not combine with the store's head: cannot "
        "subtract serialised sketch: incompatible with the local reference"
    )
    assert "buckets: blob=4 local=8" in errors["params"][1]
    # The failed appends left the warm store appending as before.
    assert warm.epochs == 3
    cold = EpochStore.open(warm_root)
    assert cold.epochs == 3


def test_handed_cells_of_another_sketch_are_refused(tmp_path):
    """Cells handed with a checkpoint must name its payload's sketch."""
    stream = _stream()
    store = EpochManager.consume(_forest(), stream, epochs=3,
                                 store=EpochStore(tmp_path / "s", horizon=8))
    checkpoint = EpochManager.consume(_forest(), stream, epochs=4).checkpoint(4)
    other = build_sketch(SketchSpec.of("spanning_forest", N, seed=SEED, buckets=8))
    cells, _ = dump_cells(other.consume_batch(stream.as_batch()))
    with pytest.raises(EpochStoreError, match="do not match its payload's"):
        store.append_checkpoint(checkpoint, cells=cells)
    assert store.epochs == 3
    store.append_checkpoint(checkpoint)
    assert store.epochs == 4


def test_a_sealer_handed_append_on_a_warm_head_inflates_nothing(
    tmp_path, monkeypatch
):
    """The manager hands the store the scanned cells and the head is
    held decoded, so a seal that compacts no paged span reads no blob."""
    store = EpochStore(tmp_path / "s", horizon=8)
    manager = EpochManager(_forest(), store=store)
    stream = _stream()
    batch = stream.as_batch()
    bounds = epoch_boundaries(len(stream), EPOCHS)
    manager.extend(batch.slice(0, bounds[0])).seal_epoch()
    calls = [0]
    inflate = zlib.decompress

    def counting(*args, **kwargs):
        calls[0] += 1
        return inflate(*args, **kwargs)

    monkeypatch.setattr(zlib, "decompress", counting)
    for start, end in zip(bounds[:5], bounds[1:6]):
        manager.extend(batch.slice(start, end)).seal_epoch()
    assert calls[0] == 0
    assert store.disk_loads == 0


def test_verify_reads_the_head_from_disk(tmp_path):
    """A head flipped on disk under a live store fails ``verify`` in the
    same process, not only after a reopen."""
    root = tmp_path / "s"
    store = EpochManager.consume(_forest(), _stream(), epochs=3,
                                 store=EpochStore(root, horizon=1))
    head = root / "segments" / store._head["file"]
    data = bytearray(head.read_bytes())
    data[len(data) // 2] ^= 0x40
    head.write_bytes(bytes(data))
    with pytest.raises(StoreCorruptionError, match="integrity"):
        store.verify()
    with pytest.raises(StoreCorruptionError, match="integrity"):
        EpochStore.open(root).verify()


# -- durability -------------------------------------------------------------------


def _record_commits(monkeypatch) -> list[tuple[str, object]]:
    """Record ``os.replace`` targets and ``os.fsync`` file identities."""
    events: list[tuple[str, object]] = []
    replace, fsync = os.replace, os.fsync

    def recording_replace(src, dst, *args, **kwargs):
        events.append(("replace", pathlib.Path(dst)))
        return replace(src, dst, *args, **kwargs)

    def recording_fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", (st.st_dev, st.st_ino)))
        return fsync(fd)

    monkeypatch.setattr(os, "replace", recording_replace)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    return events


def _commit_order(events, root: pathlib.Path) -> list[str]:
    """The events as ``segment`` / ``segments-dir`` / ``catalog`` /
    ``root-dir`` labels (file fsyncs dropped)."""
    def ident(path):
        st = os.stat(path)
        return (st.st_dev, st.st_ino)

    dirs = {ident(root / "segments"): "segments-dir", ident(root): "root-dir"}
    labels = []
    for op, what in events:
        if op == "fsync":
            if what in dirs:
                labels.append(dirs[what])
        elif what.name == "catalog.json":
            labels.append("catalog")
        else:
            assert what.parent == root / "segments"
            labels.append("segment")
    return labels


def test_a_commit_fsyncs_segments_before_and_the_root_after_the_catalog(
    tmp_path, monkeypatch
):
    root = tmp_path / "s"
    events = _record_commits(monkeypatch)
    store = EpochStore(root, horizon=0)
    assert _commit_order(events, root) == ["segments-dir", "catalog", "root-dir"]
    stream = _stream()
    batch = stream.as_batch()
    manager = EpochManager(_forest(), store=store)
    start = 0
    for end in epoch_boundaries(len(stream), EPOCHS)[:4]:
        del events[:]
        manager.extend(batch.slice(start, end)).seal_epoch()
        start = end
        order = _commit_order(events, root)
        # Span, head and any parents, then the two directory fsyncs
        # around the one catalog rename.
        assert order[-3:] == ["segments-dir", "catalog", "root-dir"]
        assert set(order[:-3]) == {"segment"} and len(order) >= 5


def test_from_timeline_commits_once_with_both_directory_fsyncs(
    tmp_path, monkeypatch
):
    timeline = EpochManager.consume(_forest(), _stream(), epochs=8)
    root = tmp_path / "s"
    events = _record_commits(monkeypatch)
    EpochStore.from_timeline(root, timeline, horizon=1)
    order = _commit_order(events, root)
    # The empty store's creation, then every segment, then one commit.
    assert order[:3] == ["segments-dir", "catalog", "root-dir"]
    assert order[-3:] == ["segments-dir", "catalog", "root-dir"]
    assert set(order[3:-3]) == {"segment"}
