"""Durable epoch storage — append-only segments, dyadic compaction, paging.

The in-memory :class:`~repro.temporal.epochs.EpochTimeline` holds every
cumulative checkpoint at once, so "temporal forensics" dies at a few
hundred epochs.  :class:`EpochStore` is the durable replacement: sealed
checkpoints land append-only in a directory and the store keeps only a
catalog plus a small LRU of paged segment bytes in memory.

Representation.  The store keeps *delta spans*, not cumulative blobs:
the segment for span ``(a, b]`` is the codec-v2 sketch of exactly the
tokens of epochs ``a+1 .. b``.  Appending checkpoint ``e`` subtracts
the previous cumulative payload (the *head*) from the new one —
linearity makes the difference exactly epoch ``e``'s delta — and seals
it as the length-1 span ``(e-1, e]``.

Dyadic compaction.  Epochs older than a configurable ``horizon`` are
merged bottom-up into aligned power-of-two spans: whenever the two
children ``(k·2^j, k·2^j + 2^(j-1)]`` and ``(k·2^j + 2^(j-1),
(k+1)·2^j]`` exist, their merge *is* the parent span — exactly, by
linearity — so the store holds a segment-tree over the old region.  Any
window ``[t1, t2)`` is then answered by the canonical greedy cover: at
position ``p`` load the largest stored span ``(p, q]`` with ``q <=
t2`` — at most ``2·log2(T)`` spans over a full pyramid (plus at most
``horizon`` length-1 tail spans), instead of the two full-timeline
checkpoint loads of the manifest path.

Retention.  ``min_granularity g`` (a power of two) evicts spans shorter
than ``g`` once their covering ``g``-aligned ancestor exists — old data
stays addressable exactly at granularity ``g`` and coarser, never
approximately.  ``max_epochs`` / ``max_bytes`` evict whole spans from
the old end and advance a ``base`` floor; windows reaching below
``base`` raise :class:`~repro.errors.EpochStoreError` rather than
answering from partial data.

Crash safety.  Every segment is written tmp-then-rename *before* the
catalog (itself tmp-then-rename) references it, so a crash at any point
leaves the previous catalog — and every segment it references — fully
intact; orphaned segments from an interrupted append are swept on the
next open.  The versioned JSON catalog carries a CRC32 per referenced
segment (checked at page-in) and one over its own canonical body, so
flipped bits anywhere surface as :class:`~repro.errors.
StoreCorruptionError`, never as a wrong window answer.
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import (
    EpochStoreError,
    SketchCompatibilityError,
    StoreCorruptionError,
)
from ..sketch.serialize import (
    _pack_raw,
    _read_header,
    _read_raw,
    dump_sketch,
    load_sketch,
    merge_sketch_bytes,
    peek_sketch_meta,
    subtract_sketch_bytes,
)
from .epochs import EpochCheckpoint, EpochTimeline, require_window

__all__ = ["EpochStore", "RetentionPolicy", "SpanEntry"]

#: Catalog ``format`` marker and write version.
STORE_FORMAT = "repro-epoch-store"
STORE_VERSION = 1
#: Header kind of an engine snapshot pointing at a store directory.
STORE_POINTER_KIND = "epoch-store"

_CATALOG_NAME = "catalog.json"
_SEGMENT_DIR = "segments"
_SKETCH_PREFIX = "sketch:"
#: Default LRU budget for paged segment bytes (1 MiB).
DEFAULT_CACHE_BYTES = 1 << 20


@dataclass(frozen=True, slots=True)
class RetentionPolicy:
    """What the store is allowed to forget.

    Attributes
    ----------
    max_epochs:
        Keep at most this many trailing epochs addressable; older spans
        are evicted whole (the floor advances in span-sized steps, so
        slightly more may be retained until a span boundary passes).
    max_bytes:
        Evict oldest spans while total segment bytes exceed this.
    min_granularity:
        Power-of-two span length below which compacted spans are
        evicted once their covering aligned ancestor exists.  Old
        windows stay *exact* at this granularity; finer old windows
        raise :class:`~repro.errors.EpochStoreError`.
    """

    max_epochs: int | None = None
    max_bytes: int | None = None
    min_granularity: int = 1

    def __post_init__(self) -> None:
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {self.max_bytes}")
        g = self.min_granularity
        if g < 1 or (g & (g - 1)) != 0:
            raise ValueError(
                f"min_granularity must be a power of two >= 1, got {g}"
            )

    def to_json(self) -> dict:
        return {
            "max_epochs": self.max_epochs,
            "max_bytes": self.max_bytes,
            "min_granularity": self.min_granularity,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RetentionPolicy":
        if not isinstance(doc, dict):
            raise TypeError(f"retention policy is not a JSON object: {doc!r}")
        return cls(
            max_epochs=doc.get("max_epochs"),
            max_bytes=doc.get("max_bytes"),
            min_granularity=int(doc.get("min_granularity", 1)),
        )


@dataclass(frozen=True, slots=True)
class SpanEntry:
    """One catalog entry: the segment holding delta span ``(start, end]``."""

    start: int
    end: int
    file: str
    nbytes: int
    crc32: int

    @property
    def length(self) -> int:
        return self.end - self.start


def _span_file(start: int, end: int) -> str:
    return f"span-{start:06d}-{end:06d}.blob"


def _head_file(epoch: int) -> str:
    return f"head-{epoch:06d}.blob"


class EpochStore:
    """A durable, compacting, lazily-paged store of sealed epochs.

    Parameters
    ----------
    root:
        Store directory.  Opened if it holds a catalog, created (along
        with missing parents) otherwise; a non-empty directory without
        a catalog is refused rather than adopted.
    retention:
        :class:`RetentionPolicy` applied from now on.  ``None`` keeps
        the persisted policy (or no limits for a new store).
    horizon:
        Epochs younger than this stay as length-1 spans; older epochs
        are compacted into dyadic spans.  ``None`` keeps the persisted
        value (0 — compact eagerly — for a new store).
    cache_bytes:
        LRU budget for paged segment bytes (process-local, not
        persisted).
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        *,
        retention: RetentionPolicy | None = None,
        horizon: int | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ):
        if horizon is not None and horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if cache_bytes < 1:
            raise ValueError(f"cache_bytes must be >= 1, got {cache_bytes}")
        self.root = pathlib.Path(root)
        self.cache_bytes = int(cache_bytes)
        self._segments = self.root / _SEGMENT_DIR
        self._entries: dict[tuple[int, int], SpanEntry] = {}
        self._by_start: dict[int, list[tuple[int, int]]] | None = None
        self._boundaries: list[int] = []
        self._epoch_tokens: list[int] = []
        self._base = 0
        self._kind: str | None = None
        self._seed: int | None = None
        self._n = 0
        self._head: dict | None = None
        self._head_cache: bytes | None = None
        self._cache: OrderedDict[str, bytes] = OrderedDict()
        self._resident = 0
        self.disk_loads = 0
        self._defer_commit = False
        self._deferred_stale: list[str] = []
        self.retention = retention if retention is not None else RetentionPolicy()
        self.horizon = horizon if horizon is not None else 0
        if (self.root / _CATALOG_NAME).exists():
            self._load_catalog()
            # Explicit arguments override the persisted policy.
            if retention is not None:
                self.retention = retention
            if horizon is not None:
                self.horizon = horizon
            self._sweep_orphans()
        else:
            self._create()

    @classmethod
    def open(
        cls,
        root: "str | os.PathLike[str]",
        *,
        retention: RetentionPolicy | None = None,
        horizon: int | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> "EpochStore":
        """Open an existing store; refuse to create one."""
        if not (pathlib.Path(root) / _CATALOG_NAME).exists():
            raise EpochStoreError(f"no epoch store at {root!s} (no catalog)")
        return cls(
            root, retention=retention, horizon=horizon, cache_bytes=cache_bytes
        )

    @classmethod
    def from_timeline(
        cls,
        root: "str | os.PathLike[str]",
        timeline: EpochTimeline,
        *,
        retention: RetentionPolicy | None = None,
        horizon: int | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> "EpochStore":
        """Seal a whole in-memory timeline into a fresh store.

        Bulk import defers the per-append catalog commit (each one
        re-serialises the whole catalog — O(T) per append, O(T^2) for a
        T-epoch import) to a single commit at the end.  Crash safety is
        preserved with the same commit-point argument as
        :meth:`append_checkpoint`: until the final catalog rename the
        store on disk is whatever it was before (here: empty), and a
        reopen sweeps the unreferenced segments.
        """
        store = cls(
            root, retention=retention, horizon=horizon, cache_bytes=cache_bytes
        )
        store._defer_commit = True
        try:
            for checkpoint in timeline.checkpoints:
                store.append_checkpoint(checkpoint)
        finally:
            store._defer_commit = False
        stale, store._deferred_stale = store._deferred_stale, []
        store._commit_catalog()
        store._cache_drop(set(stale))
        for name in stale:
            try:
                (store._segments / name).unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                continue
        return store

    # -- creation / catalog I/O -------------------------------------------------

    def _create(self) -> None:
        if self.root.exists() and any(self.root.iterdir()):
            raise EpochStoreError(
                f"{self.root!s} exists, is not empty, and holds no catalog — "
                "refusing to adopt it as an epoch store"
            )
        self._segments.mkdir(parents=True, exist_ok=True)
        self._commit_catalog()

    def _catalog_doc(self) -> dict:
        spans = [
            {
                "start": e.start, "end": e.end, "file": e.file,
                "bytes": e.nbytes, "crc32": e.crc32,
            }
            for e in sorted(self._entries.values(), key=lambda e: (e.start, e.end))
        ]
        return {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "sketch_kind": self._kind,
            "sketch_seed": self._seed,
            "n": self._n,
            "base": self._base,
            "epoch_tokens": list(self._epoch_tokens),
            "boundaries": list(self._boundaries),
            "horizon": self.horizon,
            "retention": self.retention.to_json(),
            "head": dict(self._head) if self._head is not None else None,
            "spans": spans,
        }

    @staticmethod
    def _canonical(doc: dict) -> bytes:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    def _commit_catalog(self) -> None:
        """Atomically publish the current in-memory state as the catalog.

        Segments referenced by the new catalog are already on disk (each
        tmp-then-renamed), so the rename below is the single commit
        point: before it the old catalog and its segments are intact,
        after it the new state is.
        """
        doc = self._catalog_doc()
        doc["self_crc32"] = zlib.crc32(self._canonical(doc)) & 0xFFFFFFFF
        payload = json.dumps(doc, sort_keys=True, indent=1).encode() + b"\n"
        tmp = self.root / (_CATALOG_NAME + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.root / _CATALOG_NAME)

    def _load_catalog(self) -> None:
        path = self.root / _CATALOG_NAME
        try:
            doc = json.loads(path.read_bytes())
        except (OSError, ValueError) as err:
            raise StoreCorruptionError(
                f"epoch-store catalog {path!s} is unreadable or not valid "
                f"JSON: {err}"
            ) from err
        if not isinstance(doc, dict):
            raise StoreCorruptionError(
                f"{path!s} is not an epoch-store catalog (it parses to a "
                f"{type(doc).__name__}, not a JSON object)"
            )
        if doc.get("format") != STORE_FORMAT:
            raise StoreCorruptionError(
                f"{path!s} is not an epoch-store catalog "
                f"(format={doc.get('format')!r})"
            )
        version = doc.get("version")
        if not isinstance(version, int) or version > STORE_VERSION:
            raise EpochStoreError(
                f"catalog version {version!r} is newer than this library "
                f"supports (<= {STORE_VERSION})"
            )
        recorded = doc.pop("self_crc32", None)
        actual = zlib.crc32(self._canonical(doc)) & 0xFFFFFFFF
        if recorded != actual:
            raise StoreCorruptionError(
                f"catalog checksum mismatch (recorded {recorded!r}, body "
                f"hashes to {actual}) — corrupt or tampered catalog"
            )
        try:
            self._kind = doc["sketch_kind"]
            self._seed = doc["sketch_seed"]
            self._n = int(doc["n"] or 0)
            self._base = int(doc["base"])
            self._epoch_tokens = [int(t) for t in doc["epoch_tokens"]]
            self._boundaries = [int(b) for b in doc["boundaries"]]
            self.horizon = int(doc["horizon"])
            self.retention = RetentionPolicy.from_json(doc["retention"])
            head = doc["head"]
            spans = doc["spans"]
            entries: dict[tuple[int, int], SpanEntry] = {}
            for span in spans:
                entry = SpanEntry(
                    start=int(span["start"]), end=int(span["end"]),
                    file=str(span["file"]), nbytes=int(span["bytes"]),
                    crc32=int(span["crc32"]),
                )
                if not (0 <= entry.start < entry.end) or \
                        os.sep in entry.file or "/" in entry.file:
                    raise ValueError(f"invalid span entry {span!r}")
                if (entry.start, entry.end) in entries:
                    raise ValueError(f"duplicate span {span!r}")
                entries[(entry.start, entry.end)] = entry
        except (KeyError, TypeError, ValueError) as err:
            raise StoreCorruptionError(
                f"catalog {path!s} fails schema validation: {err}"
            ) from err
        if head is not None and not (
            isinstance(head, dict)
            and isinstance(head.get("epoch"), int)
            and isinstance(head.get("file"), str)
        ):
            raise StoreCorruptionError(f"catalog head entry invalid: {head!r}")
        epochs = len(self._boundaries)
        if len(self._epoch_tokens) != epochs or \
                (epochs > 0) != (head is not None):
            raise StoreCorruptionError(
                "catalog epoch bookkeeping inconsistent "
                f"({len(self._epoch_tokens)} token counts, {epochs} "
                f"boundaries, head={'set' if head else 'absent'})"
            )
        for start, end in entries:
            if end > epochs or start < 0:
                raise StoreCorruptionError(
                    f"catalog span ({start}, {end}] reaches outside the "
                    f"{epochs} recorded epochs"
                )
        self._entries = entries
        self._head = head
        self._by_start = None

    def _sweep_orphans(self) -> None:
        """Delete store-named segment files the catalog does not reference.

        Orphans are the benign residue of an append interrupted between
        segment write and catalog rename; sweeping them (best-effort,
        only files matching our naming scheme) keeps re-opened stores
        from accreting garbage.  Foreign files are left alone.
        """
        if not self._segments.is_dir():
            raise StoreCorruptionError(
                f"epoch store {self.root!s} lost its segment directory"
            )
        live = {e.file for e in self._entries.values()}
        if self._head is not None:
            live.add(self._head["file"])
        for path in sorted(self._segments.iterdir()):
            name = path.name
            ours = (
                (name.startswith(("span-", "head-")) and name.endswith(".blob"))
                or name.endswith(".tmp")
            )
            if ours and name not in live:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - best-effort sweep
                    continue

    def _write_segment(self, name: str, payload: bytes) -> None:
        tmp = self._segments / (name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._segments / name)

    # -- introspection ----------------------------------------------------------

    @property
    def epochs(self) -> int:
        """Number of epochs ever sealed (including evicted ones)."""
        return len(self._boundaries)

    @property
    def base(self) -> int:
        """Retention floor: epochs ``<= base`` have been evicted."""
        return self._base

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Cumulative token position at the end of each epoch."""
        return tuple(self._boundaries)

    @property
    def sketch_kind(self) -> str:
        """Blob-header kind of the stored sketch (``sketch:...``)."""
        if self._kind is None:
            raise EpochStoreError("store is empty; no sketch kind recorded yet")
        return self._kind

    @property
    def seed(self) -> int:
        """Master seed of the stored sketch."""
        if self._seed is None:
            raise EpochStoreError("store is empty; no seed recorded yet")
        return int(self._seed)

    @property
    def n(self) -> int:
        """Node universe of the stored sketch."""
        return self._n

    @property
    def span_count(self) -> int:
        """Number of live span segments."""
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """On-disk bytes of all live segments (spans + head)."""
        total = sum(e.nbytes for e in self._entries.values())
        if self._head is not None:
            total += int(self._head["bytes"])
        return total

    @property
    def resident_bytes(self) -> int:
        """Paged segment bytes currently held by the LRU cache."""
        return self._resident

    def spans(self) -> tuple[SpanEntry, ...]:
        """Live span entries, ordered by (start, end)."""
        return tuple(
            sorted(self._entries.values(), key=lambda e: (e.start, e.end))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EpochStore(root={str(self.root)!r}, epochs={self.epochs}, "
            f"base={self._base}, spans={len(self._entries)}, "
            f"bytes={self.total_bytes})"
        )

    # -- paging -----------------------------------------------------------------

    def _cache_put(self, name: str, data: bytes) -> None:
        self._cache[name] = data
        self._cache.move_to_end(name)
        self._resident += len(data)
        # Trim the least-recently-used entries past the budget, always
        # keeping the entry just inserted.
        while self._resident > self.cache_bytes and len(self._cache) > 1:
            _evicted, blob = self._cache.popitem(last=False)
            self._resident -= len(blob)

    def _cache_drop(self, names: "set[str]") -> None:
        for name in names:
            blob = self._cache.pop(name, None)
            if blob is not None:
                self._resident -= len(blob)

    def _read_segment(self, name: str, nbytes: int, crc: int) -> bytes:
        path = self._segments / name
        try:
            data = path.read_bytes()
        except OSError as err:
            raise StoreCorruptionError(
                f"segment {name} is missing or unreadable: {err}"
            ) from err
        if len(data) != nbytes or zlib.crc32(data) & 0xFFFFFFFF != crc:
            raise StoreCorruptionError(
                f"segment {name} fails its catalog integrity check "
                f"({len(data)} bytes vs {nbytes} recorded; CRC mismatch "
                "or truncation) — corrupt or tampered segment"
            )
        self.disk_loads += 1
        return data

    def _segment_header(self, name: str, data: bytes, full: bool = False) -> dict:
        """The header of a catalog-verified segment, refused unless it
        names the store's kind and seed.

        The catalog CRC already covers the segment, and the codec checks
        the payload when it loads it, so only the header is parsed;
        ``full`` (for :meth:`verify`) also checks the payload's own
        length, CRC and encoding.
        """
        try:
            header = peek_sketch_meta(data) if full else _read_header(data)[0]
        except ValueError as err:
            raise StoreCorruptionError(
                f"segment {name} is not a parseable sketch blob: {err}"
            ) from err
        if header.get("__kind__") != self._kind or \
                header.get("seed") != self._seed:
            raise StoreCorruptionError(
                f"segment {name} holds kind={header.get('__kind__')!r} "
                f"seed={header.get('seed')!r}, catalog promises "
                f"kind={self._kind!r} seed={self._seed!r} — wrong or "
                "swapped segment"
            )
        return header

    def _page(self, entry: SpanEntry) -> bytes:
        """The verified payload bytes of one span segment (LRU-cached)."""
        cached = self._cache.get(entry.file)
        if cached is not None:
            self._cache.move_to_end(entry.file)
            return cached
        data = self._read_segment(entry.file, entry.nbytes, entry.crc32)
        header = self._segment_header(entry.file, data)
        span = header.get("epoch", {}).get("span") \
            if isinstance(header.get("epoch"), dict) else None
        if span != [entry.start, entry.end]:
            raise StoreCorruptionError(
                f"segment {entry.file} records span {span!r}, catalog "
                f"promises ({entry.start}, {entry.end}] — misplaced segment"
            )
        self._cache_put(entry.file, data)
        return data

    def head_payload(self) -> bytes:
        """The cumulative checkpoint payload at the latest epoch."""
        if self._head is None:
            raise EpochStoreError("store is empty; no head checkpoint yet")
        if self._head_cache is not None:
            return self._head_cache
        name = str(self._head["file"])
        data = self._read_segment(
            name, int(self._head["bytes"]), int(self._head["crc32"])
        )
        header = self._segment_header(name, data)
        epoch_meta = header.get("epoch")
        recorded = epoch_meta.get("epoch") if isinstance(epoch_meta, dict) \
            else None
        if recorded != self._head["epoch"]:
            raise StoreCorruptionError(
                f"head segment {name} records epoch {recorded!r}, catalog "
                f"promises {self._head['epoch']} — misplaced segment"
            )
        self._head_cache = data
        return data

    def verify(self) -> int:
        """Read and integrity-check every live segment; return the count.

        Raises :class:`~repro.errors.StoreCorruptionError` on the first
        bad segment.  Bypasses the LRU so a full scan cannot evict a
        hot working set.
        """
        checked = 0
        for entry in self.spans():
            data = self._read_segment(entry.file, entry.nbytes, entry.crc32)
            self._segment_header(entry.file, data, full=True)
            checked += 1
        if self._head is not None:
            self._segment_header(
                str(self._head["file"]), self.head_payload(), full=True
            )
            checked += 1
        return checked

    # -- appending --------------------------------------------------------------

    def append_checkpoint(self, checkpoint: EpochCheckpoint) -> SpanEntry:
        """Seal one cumulative checkpoint into the store.

        Checkpoints must arrive in order (``epoch == epochs + 1``) and
        carry the same sketch kind and seed as every earlier one.  The
        stored segment is the epoch's *delta* (new cumulative minus the
        previous head, exact by linearity); compaction and retention
        run before the catalog commits, so the store is never published
        in an intermediate state.
        """
        if checkpoint.epoch != self.epochs + 1:
            raise EpochStoreError(
                f"checkpoint carries epoch {checkpoint.epoch}, store "
                f"expects {self.epochs + 1} — out-of-order append"
            )
        try:
            # load_sketch below reads the whole payload; here only the
            # header is needed.
            header = _read_header(checkpoint.payload)[0]
        except ValueError as err:
            raise EpochStoreError(
                f"checkpoint payload is not a sketch blob: {err}"
            ) from err
        kind = header.get("__kind__")
        if not isinstance(kind, str) or not kind.startswith(_SKETCH_PREFIX):
            raise EpochStoreError(
                f"checkpoint payload holds a {kind!r}, not a serialised sketch"
            )
        if self._kind is None:
            self._kind = kind
            self._seed = header.get("seed")
            self._n = int(header.get("n", 0) or 0)
        elif kind != self._kind or header.get("seed") != self._seed:
            raise EpochStoreError(
                f"checkpoint kind={kind!r} seed={header.get('seed')!r} does "
                f"not match the store's kind={self._kind!r} "
                f"seed={self._seed!r}"
            )
        epoch = checkpoint.epoch
        try:
            sketch = load_sketch(checkpoint.payload)
        except ValueError as err:
            raise EpochStoreError(
                f"checkpoint payload failed to load: {err}"
            ) from err
        if epoch > 1:
            try:
                subtract_sketch_bytes(sketch, self.head_payload())
            except SketchCompatibilityError as err:
                raise EpochStoreError(
                    f"checkpoint does not combine with the store's head: {err}"
                ) from err
            except ValueError as err:
                raise StoreCorruptionError(
                    f"head segment {self._head['file']} failed to load: {err}"
                ) from err
        delta = dump_sketch(sketch, epoch_meta={"span": [epoch - 1, epoch]})
        span_name = _span_file(epoch - 1, epoch)
        self._write_segment(span_name, delta)
        stale: list[str] = []
        if self._head is not None:
            stale.append(str(self._head["file"]))
        head_name = _head_file(epoch)
        self._write_segment(head_name, checkpoint.payload)
        created = SpanEntry(
            start=epoch - 1, end=epoch, file=span_name,
            nbytes=len(delta), crc32=zlib.crc32(delta) & 0xFFFFFFFF,
        )
        self._entries[(epoch - 1, epoch)] = created
        self._by_start = None
        self._boundaries.append(checkpoint.cumulative_tokens)
        self._epoch_tokens.append(checkpoint.tokens)
        self._head = {
            "epoch": epoch, "file": head_name,
            "bytes": len(checkpoint.payload),
            "crc32": zlib.crc32(checkpoint.payload) & 0xFFFFFFFF,
        }
        self._head_cache = checkpoint.payload
        stale += self._compact()
        stale += self._enforce_retention()
        if self._defer_commit:
            # Bulk import (from_timeline): segment names are never
            # reused, so stale files can all be dropped after the one
            # final commit.
            self._deferred_stale += stale
        else:
            self._commit_catalog()
            self._cache_drop(set(stale))
            for name in stale:
                try:
                    (self._segments / name).unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    continue
        # The entry may already have been compacted away (granularity
        # eviction folds fresh length-1 spans into their ancestor as
        # soon as it exists), so return the created entry itself.
        return created

    # -- compaction & retention -------------------------------------------------

    def _compact(self) -> "list[str]":
        """Build dyadic parent spans over the pre-horizon region.

        Bottom-up: a parent ``(a, a+2L]`` is written whenever both
        aligned children of length ``L`` exist, the parent lies fully
        before the horizon frontier, and it starts at or above the
        retention floor.  Then, under a ``min_granularity`` policy,
        spans shorter than the granularity whose covering aligned
        ancestor now exists are scheduled for deletion.  Returns the
        segment file names to delete after the catalog commits.
        """
        frontier = self.epochs - self.horizon
        length = 2
        while length <= frontier - self._base:
            half = length // 2
            start = -(-self._base // length) * length  # first aligned >= base
            while start + length <= frontier:
                key = (start, start + length)
                if key not in self._entries and \
                        (start, start + half) in self._entries and \
                        (start + half, start + length) in self._entries:
                    self._write_parent(start, start + length, half)
                start += length
            length *= 2
        stale: list[str] = []
        g = self.retention.min_granularity
        if g > 1:
            for key in sorted(self._entries):
                s, e = key
                if e - s >= g:
                    continue
                anchor = (s // g) * g
                if (anchor, anchor + g) in self._entries:
                    stale.append(self._entries.pop(key).file)
            if stale:
                self._by_start = None
        return stale

    def _write_parent(self, start: int, end: int, half: int) -> None:
        left = self._entries[(start, start + half)]
        right = self._entries[(start + half, end)]
        try:
            sketch = load_sketch(self._page(left))
            merge_sketch_bytes(sketch, self._page(right))
        except ValueError as err:
            raise StoreCorruptionError(
                f"cannot compact spans ({start}, {start + half}] + "
                f"({start + half}, {end}]: {err}"
            ) from err
        payload = dump_sketch(sketch, epoch_meta={"span": [start, end]})
        name = _span_file(start, end)
        self._write_segment(name, payload)
        self._entries[(start, end)] = SpanEntry(
            start=start, end=end, file=name, nbytes=len(payload),
            crc32=zlib.crc32(payload) & 0xFFFFFFFF,
        )
        self._by_start = None

    def _spans_at(self, start: int) -> "list[tuple[int, int]]":
        """Live spans starting at ``start``, widest first."""
        if self._by_start is None:
            by_start: dict[int, list[tuple[int, int]]] = {}
            for key in self._entries:
                by_start.setdefault(key[0], []).append(key)
            for lst in by_start.values():
                lst.sort(key=lambda k: -k[1])
            self._by_start = by_start
        return self._by_start.get(start, [])

    def _evict_through(self, new_base: int) -> "list[str]":
        """Drop every span reaching below ``new_base``; advance the floor."""
        stale = [
            self._entries.pop(key).file
            for key in sorted(self._entries)
            if key[0] < new_base
        ]
        self._base = new_base
        self._by_start = None
        return stale

    def _enforce_retention(self) -> "list[str]":
        stale: list[str] = []
        policy = self.retention
        if policy.max_epochs is not None:
            target = self.epochs - policy.max_epochs
            while self._base < target:
                # Largest span at the floor that lies wholly inside the
                # must-evict region; stop (retaining extra) when only a
                # span crossing the target remains.
                fit = [e for _s, e in self._spans_at(self._base) if e <= target]
                if not fit:
                    break
                stale += self._evict_through(fit[0])
        if policy.max_bytes is not None:
            while self.total_bytes > policy.max_bytes:
                # Smallest span at the floor (minimal loss per step);
                # never evict through the newest epoch.
                ends = [e for _s, e in self._spans_at(self._base) if e < self.epochs]
                if not ends:
                    break
                stale += self._evict_through(ends[-1])
        return stale

    # -- windows ----------------------------------------------------------------

    def plan_window(self, t1: int, t2: int) -> "list[SpanEntry]":
        """The greedy dyadic cover of ``[t1, t2)`` from live spans.

        At most ``2·log2(T) + horizon`` entries when the window is
        addressable; raises :class:`~repro.errors.EpochStoreError` when
        it reaches below the retention floor or falls between retained
        spans (finer than ``min_granularity`` in the compacted region).
        """
        require_window(self.epochs, t1, t2)
        if t1 < self._base:
            raise EpochStoreError(
                f"window [{t1}, {t2}) reaches below the retention floor "
                f"{self._base}: epochs <= {self._base} have been evicted"
            )
        plan: list[SpanEntry] = []
        position = t1
        while position < t2:
            chosen: tuple[int, int] | None = None
            for key in self._spans_at(position):
                if key[1] <= t2:
                    chosen = key
                    break
            if chosen is None:
                raise EpochStoreError(
                    f"no stored span starts at epoch {position} within "
                    f"[{t1}, {t2}): the window is finer than the retained "
                    f"granularity (min_granularity="
                    f"{self.retention.min_granularity})"
                )
            plan.append(self._entries[chosen])
            position = chosen[1]
        return plan

    def window_payloads(self, t1: int, t2: int) -> "tuple[list[bytes], list[bytes]]":
        """Payloads to merge / subtract for ``[t1, t2)`` (store: merge-only)."""
        return [self._page(entry) for entry in self.plan_window(t1, t2)], []

    def window_payload_bytes(self, t1: int, t2: int) -> int:
        """Segment bytes a window materialisation pages for ``[t1, t2)``."""
        return sum(entry.nbytes for entry in self.plan_window(t1, t2))

    # -- engine snapshot pointer ------------------------------------------------

    def pointer_bytes(self) -> bytes:
        """A codec-v2 snapshot blob pointing at this store's catalog."""
        meta = {
            "root": str(self.root.resolve()),
            "epochs": self.epochs,
            "base": self._base,
            "sketch_kind": self._kind,
            "sketch_seed": self._seed,
            "n": self._n,
        }
        return _pack_raw(STORE_POINTER_KIND, meta, b"")

    @classmethod
    def from_pointer(
        cls,
        data: bytes,
        *,
        root: "str | os.PathLike[str] | None" = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> "EpochStore":
        """Reopen the store a :meth:`pointer_bytes` snapshot names.

        ``root`` overrides the recorded directory (for stores that
        moved).  The reopened catalog must agree with the snapshot on
        sketch kind and seed; it may hold *more* epochs than the
        snapshot did (the store kept running).
        """
        header, _payload = _read_raw(data)
        if header.get("__kind__") != STORE_POINTER_KIND:
            raise ValueError(
                f"blob holds a {header.get('__kind__')!r}, expected "
                f"{STORE_POINTER_KIND!r}"
            )
        store = cls.open(root or str(header.get("root")),
                         cache_bytes=cache_bytes)
        if store.epochs and (
            store.sketch_kind != header.get("sketch_kind")
            or store.seed != header.get("sketch_seed")
        ):
            raise EpochStoreError(
                f"store at {store.root!s} holds kind="
                f"{store.sketch_kind!r} seed={store.seed}, snapshot "
                f"promises kind={header.get('sketch_kind')!r} "
                f"seed={header.get('sketch_seed')!r}"
            )
        if store.epochs < int(header.get("epochs", 0) or 0):
            raise EpochStoreError(
                f"store at {store.root!s} holds {store.epochs} epochs, "
                f"snapshot promises at least {header.get('epochs')}"
            )
        return store
