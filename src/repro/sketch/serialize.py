"""Sketch serialisation — shipping sketches between sites.

The distributed-stream story (Section 1.1) requires sketches to travel:
each site summarises its sub-stream locally and sends the *sketch* —
not the stream — to a coordinator, which merges by addition.  This
module provides a compact, dependency-free binary format around a
**generic sketch registry**: every high-level sketch class (spanning
forest, k-EDGECONNECT, MINCUT, the sparsifiers, the subgraph-count
sketch, ...) registers a :class:`SketchCodec` naming its kind and
class; the class itself lists its parameters (``_params()``, beside
its ``_cell_banks()``).  :func:`dump_sketch` then works for any
registered object and :func:`load_sketch` reconstructs it — verifying
parameters, seed, and cell-array shapes before accepting the payload.

A sketch is built from (class, parameters, seed) in one way only,
:func:`_construct` — ``cls(source=HashSource(seed), **params)``, every
failure reported as :class:`ValueError`.  :meth:`~repro.api.SketchSpec.
build` calls it with a spec's parameters.  The codec calls it with the
header fields that are constructor keywords (looked up once per class)
and refuses the blob unless the rebuilt ``_params()`` and seed equal
the header's, which covers the values a constructor derives, such as a
hierarchy's ``k``.

**Codec v2** is the one format this module reads and writes.  It
exploits the contiguous :class:`~repro.sketch.arena.SketchArena`: a
blob is a fixed ``RSKB2\\n`` prefix, a strict-JSON header, and a
level-1-deflated cell payload, with a CRC32 so flipped bits are
caught.  The payload has one of two encodings.  ``zlib`` is the whole
arena buffer as int64 (``buffer.tobytes()``).  ``packed-zlib`` is
written whenever at most one entry in eight is nonzero: the nonzero
positions as gaps at the narrowest of u16/u32/u64 that holds the
largest gap, the counter values as int32 when they all fit (int64
otherwise), and the fingerprint values as uint32 — about 6 bytes a
nonzero instead of 16.  Blobs written before ``packed-zlib`` existed
hold ``sparse-zlib`` (int64 positions, then int64 values); they still
load, but nothing writes them any more.  Epoch manifests are the same
shape with the concatenated checkpoint blobs as a raw payload.  Bytes
without the prefix — codec v1 ``npz`` blobs included — are refused
with :class:`ValueError`; ``docs/MIGRATION.md`` says how to re-dump
them.

Only identically-parameterised, identically-seeded sketches merge, so
the format stores the constructor parameters and seeds alongside the
cell arrays; ``load_sketch(data, like=...)`` additionally refuses blobs
whose parameters or seed differ from a local reference sketch, raising
:class:`~repro.errors.SketchCompatibilityError` — the rule of
:meth:`~repro.sketch.arena.ArenaBacked.merge`, so a blob combines
exactly when the sketch it holds would.  For coordinator-style
hot paths, :func:`merge_sketch_bytes` / :func:`subtract_sketch_bytes`
fold a verified payload straight into a live sketch's arena without
materialising a twin sketch first.
"""

from __future__ import annotations

import functools
import inspect
import json
import struct
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ReproError, SketchCompatibilityError
from ..hashing import MERSENNE31, HashSource
from .arena import check_params, ensure_arena

__all__ = [
    "SketchCodec",
    "register_sketch_codec",
    "serializable_sketch_kinds",
    "sketch_codec",
    "sketch_kind_of",
    "dump_sketch",
    "load_sketch",
    "merge_sketch_bytes",
    "subtract_sketch_bytes",
    "peek_sketch_meta",
    "dump_epoch_manifest",
    "load_epoch_manifest",
]

_MAGIC_V2 = "repro-sketch-v2"
_MANIFEST_KIND = "epoch-manifest"
#: Leading bytes of every blob (sketches and manifests alike).
_V2_PREFIX = b"RSKB2\n"
_V2_HEAD = struct.Struct("<I")
#: Payload encodings stored level-1-deflated (``raw`` is stored as is).
_DEFLATED = frozenset({"zlib", "sparse-zlib", "packed-zlib"})
#: Byte widths a ``packed-zlib`` payload may store its position gaps
#: (unsigned) and its counter values (signed) in; fingerprints are u32.
_GAP_WIDTHS = (2, 4, 8)
_COUNT_WIDTHS = (4, 8)
_INT32 = np.iinfo(np.int32)


# -- codec v2: raw header + payload containers ---------------------------------


def _is_int(value: object) -> bool:
    """Whether a JSON header value is an integer (``bool`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _pack_raw(
    kind: str, meta: dict, payload: bytes, encoding: str = "raw"
) -> bytes:
    """Assemble a v2 blob: magic, JSON header, payload bytes.

    The ``zlib`` and ``packed-zlib`` encodings deflate the payload at
    level 1 — sketch cells are mostly zeros, so this keeps
    shipped/persisted sizes small at little CPU cost.  Manifest payloads
    stay ``"raw"``: they are concatenations of already-encoded
    checkpoint blobs.  The header is strict JSON: a ``NaN`` or infinite
    parameter raises :class:`ValueError` instead of writing a token no
    JSON reader accepts.
    """
    stored = zlib.compress(payload, 1) if encoding in _DEFLATED else payload
    header = dict(meta)
    header["__magic__"] = _MAGIC_V2
    header["__kind__"] = kind
    header["encoding"] = encoding
    header["payload_bytes"] = len(stored)
    header["crc32"] = zlib.crc32(stored) & 0xFFFFFFFF
    head = json.dumps(header, allow_nan=False).encode("utf-8")
    return b"".join((_V2_PREFIX, _V2_HEAD.pack(len(head)), head, stored))


def _read_header(data: bytes) -> tuple[dict, int]:
    """Parse a blob's prefix and JSON header: ``(header, payload offset)``.

    Bytes that lack the ``RSKB2\\n`` prefix, an undecodable header and a
    bad magic raise :class:`ValueError`.  The payload is neither
    length-checked, CRC-checked nor inflated — :func:`_read_raw` does
    that; this alone serves callers whose bytes an outer checksum has
    already verified, or that fully read them next.
    """
    base = len(_V2_PREFIX)
    if data[:base] != _V2_PREFIX:
        raise ValueError(
            "not a repro sketch blob (no codec v2 prefix: corrupt, foreign, "
            "or codec v1 npz bytes)"
        )
    try:
        (head_len,) = _V2_HEAD.unpack_from(data, base)
        head_end = base + _V2_HEAD.size + head_len
        if head_end > len(data):
            raise ValueError("header extends past the blob")
        header = json.loads(data[base + _V2_HEAD.size:head_end].decode("utf-8"))
    except (ValueError, struct.error) as err:  # unicode/json derive ValueError
        raise ValueError(
            "not a repro sketch blob (corrupt or foreign bytes)"
        ) from err
    if not isinstance(header, dict) or header.get("__magic__") != _MAGIC_V2:
        magic = header.get("__magic__") if isinstance(header, dict) else None
        raise ValueError(f"not a repro sketch blob (bad magic {magic!r})")
    return header, head_end


def _read_raw(data: bytes) -> tuple[dict, bytes]:
    """Parse a blob into (header, payload) with corruption checks.

    The one reader: on top of :func:`_read_header`, the declared
    payload length and a CRC32 make truncation, padding, and bit flips
    anywhere in the blob all raise :class:`ValueError`.
    """
    header, head_end = _read_header(data)
    payload = data[head_end:]
    declared = header.get("payload_bytes")
    if declared != len(payload):
        raise ValueError(
            f"blob payload truncated or padded: header promises "
            f"{declared} bytes, blob holds {len(payload)}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != header.get("crc32"):
        raise ValueError(
            "blob payload checksum mismatch — corrupt or tampered bytes"
        )
    encoding = header.get("encoding", "raw")
    if encoding in _DEFLATED:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as err:
            raise ValueError(
                "blob payload fails to inflate — corrupt or tampered bytes"
            ) from err
    elif encoding != "raw":
        raise ValueError(f"blob payload has unknown encoding {encoding!r}")
    return header, payload


def _validated_cell_buffer(payload: bytes, cells: int) -> np.ndarray:
    """Interpret a dense v2 sketch payload as a field-major arena buffer.

    Verifies the byte length against the expected ``4 * cells`` int64
    cells and that the fingerprint half stays inside ``GF(2^31 - 1)``.
    """
    if len(payload) != 4 * cells * 8:
        raise ValueError(
            f"blob cell buffer mis-sized: expected {4 * cells * 8} bytes "
            f"for {cells} cells, got {len(payload)} — corrupt or tampered "
            "blob"
        )
    raw = np.frombuffer(payload, dtype="<i8").astype(np.int64, copy=False)
    fps = raw[2 * cells:]
    if fps.size and (int(fps.min()) < 0 or int(fps.max()) >= MERSENNE31):
        raise ValueError(
            "blob fingerprint cells have values outside GF(2^31 - 1) — "
            "corrupt or tampered blob"
        )
    return raw


def _validated_sparse_cells(
    header: dict, payload: bytes, cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Interpret a ``sparse-zlib`` payload as ``(positions, values)``.

    The encoding written before ``packed-zlib``, read so that older
    blobs, manifests and stores still load.  The payload is ``nnz``
    strictly-increasing int64 buffer positions followed by ``nnz``
    int64 values; ordering gives uniqueness (so scatters are
    well-defined) for free, and fingerprint-half values must already be
    reduced mod ``2^31 - 1``.
    """
    nnz = header.get("nnz")
    if not isinstance(nnz, int) or nnz < 0 or len(payload) != 16 * nnz:
        raise ValueError(
            f"blob sparse cell payload mis-sized: nnz={nnz!r} implies "
            f"{16 * nnz if isinstance(nnz, int) else '?'} bytes, got "
            f"{len(payload)} — corrupt or tampered blob"
        )
    raw = np.frombuffer(payload, dtype="<i8").astype(np.int64, copy=False)
    idx, values = raw[:nnz], raw[nnz:]
    if nnz:
        if int(idx[0]) < 0 or int(idx[-1]) >= 4 * cells:
            raise ValueError(
                "blob sparse cell positions outside the buffer — corrupt "
                "or tampered blob"
            )
        if not bool((np.diff(idx) > 0).all()):
            raise ValueError(
                "blob sparse cell positions not strictly increasing — "
                "corrupt or tampered blob"
            )
        fp_values = values[idx >= 2 * cells]
        if fp_values.size and (
            int(fp_values.min()) < 0 or int(fp_values.max()) >= MERSENNE31
        ):
            raise ValueError(
                "blob fingerprint cells have values outside GF(2^31 - 1) "
                "— corrupt or tampered blob"
            )
    return idx, values


def _pack_sparse(
    positions: np.ndarray, values: np.ndarray, cells: int
) -> tuple[dict, bytes]:
    """Encode the nonzero entries of a ``4 * cells`` buffer as ``packed-zlib``.

    ``positions`` are strictly increasing int64 buffer positions and
    ``values`` the int64 entries there.  Returns the header fields (``nnz``
    and ``widths``) and the payload before deflation: the gaps between
    successive positions (the first counted from 0) at the narrowest of
    u16/u32/u64 that holds the largest, then the counter values
    (positions below ``2 * cells``) as int32 when all fit and int64
    otherwise, then the fingerprint values as uint32.  A fingerprint
    outside ``[0, 2^31 - 1)`` raises :class:`ValueError` instead of
    being truncated.
    """
    split = int(np.searchsorted(positions, 2 * cells))
    counts, fps = values[:split], values[split:]
    if fps.size and (int(fps.min()) < 0 or int(fps.max()) >= MERSENNE31):
        raise ValueError(
            "cannot pack fingerprint values outside GF(2^31 - 1)"
        )
    gaps = np.diff(positions, prepend=0)
    top = int(gaps.max()) if gaps.size else 0
    gap_width = next(w for w in _GAP_WIDTHS if top < 1 << (8 * w))
    narrow = not counts.size or (
        int(counts.min()) >= _INT32.min and int(counts.max()) <= _INT32.max
    )
    count_width = 4 if narrow else 8
    payload = b"".join((
        gaps.astype(f"<u{gap_width}", copy=False).tobytes(),
        counts.astype(f"<i{count_width}", copy=False).tobytes(),
        fps.astype("<u4", copy=False).tobytes(),
    ))
    fields = {"nnz": int(positions.size), "widths": [gap_width, count_width]}
    return fields, payload


def _unpack_sparse(
    header: Mapping[str, Any], payload: bytes, cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a ``packed-zlib`` payload into int64 ``(positions, values)``.

    The inverse of :func:`_pack_sparse`, reading ``nnz`` and ``widths``
    from ``header``.  Refuses with :class:`ValueError` a width outside
    its set, a non-integer ``nnz``, a payload of any other length than
    the fields imply, a zero gap after the first, gaps whose unsigned
    sum wraps or reaches ``4 * cells``, and a fingerprint outside
    ``GF(2^31 - 1)``.
    """
    nnz, widths = header.get("nnz"), header.get("widths")
    if (
        not isinstance(widths, list) or len(widths) != 2
        or not all(map(_is_int, widths))
        or widths[0] not in _GAP_WIDTHS or widths[1] not in _COUNT_WIDTHS
    ):
        raise ValueError(
            f"blob packed cell widths {widths!r} are not a gap width in "
            f"{_GAP_WIDTHS} and a count width in {_COUNT_WIDTHS} — corrupt "
            "or tampered blob"
        )
    gap_width, count_width = widths
    if not _is_int(nnz) or nnz < 0 or len(payload) < nnz * gap_width:
        raise ValueError(
            f"blob sparse cell payload mis-sized: nnz={nnz!r} for "
            f"{len(payload)} bytes — corrupt or tampered blob"
        )
    gaps = np.frombuffer(payload, dtype=f"<u{gap_width}", count=nnz)
    # Every gap after the first is at least 1, so the unsigned running
    # sum rises strictly unless a gap is zero or the sum wraps.
    positions = np.cumsum(gaps, dtype=np.uint64)
    if nnz > 1 and not bool((positions[1:] > positions[:-1]).all()):
        raise ValueError(
            "blob sparse cell positions not strictly increasing (a zero "
            "gap, or gaps that wrap) — corrupt or tampered blob"
        )
    if nnz and int(positions[-1]) >= 4 * cells:
        raise ValueError(
            "blob sparse cell positions outside the buffer — corrupt or "
            "tampered blob"
        )
    positions = positions.view(np.int64)
    split = int(np.searchsorted(positions, 2 * cells))
    offset = nnz * gap_width + split * count_width
    if len(payload) != offset + 4 * (nnz - split):
        raise ValueError(
            f"blob sparse cell payload mis-sized: nnz={nnz} with widths "
            f"{widths} implies {offset + 4 * (nnz - split)} bytes, got "
            f"{len(payload)} — corrupt or tampered blob"
        )
    counts = np.frombuffer(
        payload, dtype=f"<i{count_width}", count=split,
        offset=nnz * gap_width,
    )
    fps = np.frombuffer(payload, dtype="<u4", offset=offset)
    if fps.size and int(fps.max()) >= MERSENNE31:
        raise ValueError(
            "blob fingerprint cells have values outside GF(2^31 - 1) — "
            "corrupt or tampered blob"
        )
    return positions, np.concatenate((counts, fps), dtype=np.int64)


# -- generic sketch registry ---------------------------------------------------

_SKETCH_KIND_PREFIX = "sketch:"


@dataclass(frozen=True)
class SketchCodec:
    """How to (de)serialise one sketch class.

    Attributes
    ----------
    kind:
        Stable format name stored in the blob header.
    cls:
        The :class:`~repro.sketch.arena.ArenaBacked` sketch class this
        codec handles (matched exactly, not by subclass, so a subclass
        must register its own codec).  Its ``_params()`` are the
        header's parameter fields, its ``_cell_banks()`` order is the
        payload order, and its constructor rebuilds the empty twin
        (:func:`_construct`): every ``_params()`` key is a constructor
        keyword or a value the constructor derives, which the codec
        checks against the header.
    """

    kind: str
    cls: type


@functools.cache
def _keywords(cls: type) -> frozenset[str]:
    """``cls``'s constructor keywords other than ``source``.

    Looked up once per class: ``inspect.signature`` costs tens of
    microseconds a call, which every load would otherwise pay.
    """
    return frozenset(inspect.signature(cls).parameters) - {"source"}


def _constructor_params(cls: type, fields: Mapping[str, Any]) -> dict[str, Any]:
    """The keyword rule: those ``fields`` (a blob header, a ``_params()``)
    that are constructor keywords of ``cls``."""
    keywords = _keywords(cls)
    return {name: value for name, value in fields.items() if name in keywords}


def _construct(cls: type, seed: Any, params: Mapping[str, Any]) -> Any:
    """Build a fresh sketch: ``cls(source=HashSource(seed), **params)``.

    The one way (class, parameters, seed) becomes a sketch.  A seed
    outside ``[0, 2^64)`` or not a Python ``int``, unknown or missing
    keywords, a value its parameter rule refuses
    (:func:`~repro.sketch.arena.check_params`, the constructor's first
    call) and a kind's own refusals are all reported as
    :class:`ValueError`.
    """
    check_params(seed=seed)
    try:
        return cls(source=HashSource(seed), **params)
    except (TypeError, ValueError, ReproError) as err:
        raise ValueError(
            f"cannot build a {cls.__name__} from parameters "
            f"{dict(params)!r} and seed {seed!r}: {err}"
        ) from err


_CODECS_BY_KIND: dict[str, SketchCodec] = {}
_CODECS_BY_CLASS: dict[type, SketchCodec] = {}


def register_sketch_codec(codec: SketchCodec) -> None:
    """Register a codec (idempotent for identical re-registration)."""
    existing = _CODECS_BY_KIND.get(codec.kind)
    if existing is not None and existing.cls is not codec.cls:
        raise ValueError(
            f"sketch kind {codec.kind!r} already registered for "
            f"{existing.cls.__name__}"
        )
    _CODECS_BY_KIND[codec.kind] = codec
    _CODECS_BY_CLASS[codec.cls] = codec


def _ensure_codecs_loaded() -> None:
    """Import the modules that register codecs for the core sketches.

    Deferred so that :mod:`repro.sketch` stays importable on its own;
    :mod:`repro.core.codecs` imports this module in turn.
    """
    from ..core import codecs  # noqa: F401  (import-for-side-effect)


def serializable_sketch_kinds() -> tuple[str, ...]:
    """Registered kind names (sorted)."""
    _ensure_codecs_loaded()
    return tuple(sorted(_CODECS_BY_KIND))


def sketch_codec(kind: str) -> SketchCodec:
    """The registered codec for ``kind`` (raises ``KeyError`` if none).

    Public so tooling — the registry-completeness checker in
    :mod:`repro.analysis` in particular — can cross-check the codec
    registry against the capability registry without reaching into
    module privates.
    """
    _ensure_codecs_loaded()
    if kind not in _CODECS_BY_KIND:
        raise KeyError(
            f"no codec registered for sketch kind {kind!r}; "
            f"known kinds: {', '.join(sorted(_CODECS_BY_KIND))}"
        )
    return _CODECS_BY_KIND[kind]


def sketch_kind_of(sketch: Any) -> str:
    """The registered kind name of ``sketch`` (raises ``TypeError`` if none)."""
    return _codec_for(sketch).kind


def _codec_for(sketch: Any) -> SketchCodec:
    """The codec registered for ``sketch``'s exact class."""
    _ensure_codecs_loaded()
    codec = _CODECS_BY_CLASS.get(type(sketch))
    if codec is None:
        raise TypeError(
            f"{type(sketch).__name__} has no registered sketch codec; "
            f"known kinds: {', '.join(sorted(_CODECS_BY_KIND))}"
        )
    return codec


def _codec_of_header(header: dict) -> SketchCodec:
    """The codec a blob header's ``__kind__`` names."""
    _ensure_codecs_loaded()
    kind = header.get("__kind__", "")
    if not isinstance(kind, str) or not kind.startswith(_SKETCH_KIND_PREFIX):
        raise ValueError(
            f"blob holds a {kind!r}, not a registry-serialised sketch"
        )
    codec = _CODECS_BY_KIND.get(kind[len(_SKETCH_KIND_PREFIX):])
    if codec is None:
        raise ValueError(f"unknown sketch kind {kind!r}")
    return codec


def dump_sketch(
    sketch: Any,
    seed: int | None = None,
    epoch_meta: dict | None = None,
) -> bytes:
    """Serialise any registered sketch object to bytes.

    The blob carries the constructor parameters, the master seed, and
    the concatenated cell arrays of every constituent bank — everything
    a coordinator needs to rebuild an identically-seeded twin and merge
    it (:func:`load_sketch`).  ``seed`` overrides the recorded
    ``source_seed`` for sketches built from non-seeded sources.

    ``epoch_meta`` attaches temporal-checkpoint metadata (epoch id,
    token counts...) under the reserved ``"epoch"`` header key; it is
    carried verbatim, surfaced by :func:`peek_sketch_meta`, and ignored
    by the parameter/seed verification of :func:`load_sketch` — two
    checkpoints of the same sketch at different epochs stay mergeable.
    """
    codec = _codec_for(sketch)
    if seed is None:
        seed = sketch.source_seed
    if seed is None:
        raise ValueError(
            f"{type(sketch).__name__} has no recorded seed; pass one explicitly"
        )
    meta = sketch._params()
    meta["seed"] = int(seed)
    meta["cells"] = [int(b.size) for b in sketch._cell_banks()]
    if epoch_meta is not None:
        meta["epoch"] = dict(epoch_meta)
    # The field-major arena buffer is the payload, with zero gather
    # work.  A lightly-loaded sketch (a site shard, an early epoch)
    # ships its nonzero entries packed instead — smaller bytes *and* an
    # O(nnz) fold at the coordinator.  (``buffer != 0`` scans an int64
    # arena faster than ``flatnonzero`` on the int64 values.)
    buffer = ensure_arena(sketch).buffer
    idx = np.flatnonzero(buffer != 0)
    kind = _SKETCH_KIND_PREFIX + codec.kind
    if 2 * idx.size <= buffer.size // 4:
        fields, payload = _pack_sparse(idx, buffer[idx], buffer.size // 4)
        meta.update(fields)
        return _pack_raw(kind, meta, payload, encoding="packed-zlib")
    payload = buffer.astype("<i8", copy=False).tobytes()
    return _pack_raw(kind, meta, payload, encoding="zlib")


def load_sketch(data: bytes, like: Any | None = None) -> Any:
    """Reconstruct a sketch serialised by :func:`dump_sketch`.

    The stored parameters rebuild a fresh identically-seeded sketch and
    the cell payload is copied into its arena in one assignment, after
    verifying that the bank layout implied by the parameters matches
    the payload exactly (mismatched or tampered parameters refuse to
    load).

    Parameters
    ----------
    like:
        Optional reference sketch.  When given, the blob must describe
        the *same* sketch type, parameters, and seed; any difference
        raises :class:`~repro.errors.SketchCompatibilityError` naming
        the offending fields.  Use this before merging a received
        sketch into a local one.
    """
    return _load(data, like)[0]


def _load(
    data: bytes, like: Any | None = None, into: Any | None = None
) -> tuple[Any, np.ndarray | None]:
    """:func:`load_sketch`, also returning the positions it wrote.

    ``into`` is an all-zero sketch of the spec the header names (a
    :class:`~repro.sketch.twin.WarmTwin`'s), loaded in place of a fresh
    one.  The positions are those of a sparse payload, or ``None`` when
    the payload was dense (see :func:`merge_sketch_bytes`).
    """
    sketch, idx, values = _read_cells(data, like, "load", into=into)
    buffer = ensure_arena(sketch).buffer
    if idx is None:
        buffer[:] = values
    else:
        # The buffer is all zeros, so the payload's cells are assigned.
        buffer[idx] = values
    return sketch, idx


def merge_sketch_bytes(sketch: Any, data: bytes) -> np.ndarray | None:
    """Fold a serialised sketch directly into ``sketch`` (coordinator path).

    Equivalent to ``sketch.merge(load_sketch(data, like=sketch))`` but
    skips materialising the twin: after the same parameter/seed/layout/
    fingerprint verification, the payload is added straight into the
    live sketch's arena — two vector ops total.

    Returns the arena buffer positions the payload named (strictly
    increasing int64) when it was sparse, or ``None`` when it was the
    dense buffer.  Every other position of the arena is left as it was,
    so a caller that folded into an all-zero sketch restores it by
    zeroing exactly those positions (all of them after a dense one).
    """
    return _combine_sketch_bytes(sketch, data, subtract=False)


def subtract_sketch_bytes(sketch: Any, data: bytes) -> np.ndarray | None:
    """Subtract a serialised sketch from ``sketch`` (temporal-window path).

    The subtraction twin of :func:`merge_sketch_bytes` — materialising
    an epoch window becomes one checkpoint load plus one in-arena
    subtraction of the earlier checkpoint's bytes.  Returns the
    positions the payload named, or ``None`` for a dense payload, as
    :func:`merge_sketch_bytes` does.
    """
    return _combine_sketch_bytes(sketch, data, subtract=True)


def _combine_sketch_bytes(
    sketch: Any, data: bytes, subtract: bool
) -> np.ndarray | None:
    _codec_for(sketch)
    op = "subtract" if subtract else "merge"
    _, idx, values = _read_cells(data, sketch, op, into=sketch)
    arena = ensure_arena(sketch)
    if idx is None:
        arena._combine_raw(values, subtract=subtract)
    else:
        arena._combine_sparse(idx, values, subtract=subtract)
    return idx


def _read_cells(
    data: bytes, like: Any | None, op: str, into: Any | None = None
) -> tuple[Any, np.ndarray | None, np.ndarray]:
    """Read, verify and lay out the cells of a sketch blob.

    The one path behind :func:`load_sketch` and the byte combines: read
    the blob, refuse it unless it names ``like``'s kind, parameters and
    seed (when ``like`` is given), and check its cell layout against
    ``into`` — the sketch the cells go into, or a fresh twin built from
    the header when ``None``.  Returns ``(into, idx, values)``: ``idx``
    holds the validated positions of a sparse payload, or is ``None``
    when ``values`` is the whole dense cell buffer.
    """
    header, payload = _read_raw(data)
    codec = _codec_of_header(header)
    if like is not None:
        _verify_like(codec, header, like, op=op)
    if into is None:
        into = _twin_of_header(header)
    cells = header.get("cells")
    if cells != [int(b.size) for b in into._cell_banks()]:
        raise ValueError(
            f"blob cell layout {cells} does not match the layout its "
            "parameters give — corrupt or tampered blob"
        )
    total = int(sum(cells))
    encoding = header.get("encoding")
    if encoding == "packed-zlib":
        idx, values = _unpack_sparse(header, payload, total)
    elif encoding == "sparse-zlib":
        idx, values = _validated_sparse_cells(header, payload, total)
    else:
        return into, None, _validated_cell_buffer(payload, total)
    return into, idx, values


def _twin_of_header(header: dict) -> Any:
    """The fresh, empty sketch a blob header describes.

    The header fields that are constructor keywords go through
    :func:`_construct`, and the header is refused (:class:`ValueError`)
    unless the rebuilt sketch's ``_params()`` and seed equal its own.
    """
    cls = _codec_of_header(header).cls
    sketch = _construct(
        cls, header.get("seed"), _constructor_params(cls, header)
    )
    mismatched = sketch._mismatches(header)
    if mismatched:
        raise ValueError(
            "blob header does not match the sketch its parameters build — "
            "corrupt or tampered blob: " + "; ".join(
                f"{field}: stored={theirs!r} rebuilt={ours!r}"
                for field, ours, theirs in mismatched
            )
        )
    return sketch


def peek_sketch_meta(data: bytes) -> dict:
    """The blob's header (kind, parameters, seed) without reconstructing."""
    return _read_raw(data)[0]


def _sketch_header(sketch: Any) -> dict:
    """The kind, constructor parameters and seed of ``sketch``.

    The fields of a :func:`dump_sketch` header that :func:`_verify_like`
    compares, with no cell payload: small and picklable, so a site can
    send it in place of its sketch.
    """
    header = sketch._spec()
    header["__kind__"] = _SKETCH_KIND_PREFIX + _codec_for(sketch).kind
    return header


def _verify_header(header: dict, like: Any, op: str = "merge") -> None:
    """Refuse ``header`` unless it names ``like``'s kind, parameters and seed."""
    _verify_like(_codec_of_header(header), header, like, op=op)


def _verify_like(
    codec: SketchCodec, header: dict, like: Any, op: str = "load"
) -> None:
    """Refuse ``header`` unless ``like`` would combine with its sketch.

    The rule of :meth:`~repro.sketch.arena.ArenaBacked.merge`: the same
    class, and every field of ``like._spec()`` (parameters and seed)
    equal in the header; the caller then checks the cell layout.
    """
    if type(like) is not codec.cls:
        raise SketchCompatibilityError(
            f"cannot {op}: blob holds a {codec.kind!r} sketch but the "
            f"reference is {type(like).__name__}"
        )
    mismatched = like._mismatches(header)
    if mismatched:
        raise SketchCompatibilityError(
            f"cannot {op} serialised sketch: incompatible with the local "
            "reference — " + "; ".join(
                f"{field}: blob={theirs!r} local={ours!r}"
                for field, ours, theirs in mismatched
            )
        )


# -- epoch manifests -----------------------------------------------------------


def dump_epoch_manifest(
    payloads: "list[bytes]",
    epoch_ids: "list[int] | None" = None,
    meta: dict | None = None,
) -> bytes:
    """Bundle per-epoch checkpoint payloads into one manifest blob.

    ``payloads`` are :func:`dump_sketch` blobs — cumulative prefix
    checkpoints, one per sealed epoch, all of the same sketch kind and
    seed (verified here, so a mixed bundle fails at *dump* time).
    ``epoch_ids`` defaults to ``1..E`` and must equal exactly that —
    the 1-based consecutive grid :class:`~repro.temporal.epochs.
    EpochTimeline` restores — which :func:`load_epoch_manifest`
    re-checks on the way back in.  ``meta`` carries caller metadata
    (epoch boundaries, token counts...) and must be JSON-serialisable.
    """
    if not payloads:
        raise ValueError("an epoch manifest needs at least one checkpoint")
    if epoch_ids is None:
        epoch_ids = list(range(1, len(payloads) + 1))
    epoch_ids = [int(e) for e in epoch_ids]
    if epoch_ids != list(range(1, len(payloads) + 1)):
        raise ValueError(
            f"epoch ids {epoch_ids} must be 1..{len(payloads)} in order, "
            f"one per payload"
        )
    kinds: set[object] = set()
    seeds: set[object] = set()
    for payload in payloads:
        header = peek_sketch_meta(payload)
        kinds.add(header.get("__kind__"))
        seeds.add(header.get("seed"))
    if len(kinds) != 1 or len(seeds) != 1:
        raise SketchCompatibilityError(
            f"manifest checkpoints must share one sketch kind and seed, "
            f"got kinds={sorted(map(str, kinds))} seeds={sorted(map(str, seeds))}"
        )
    header = dict(meta or {})
    header["sketch_kind"] = kinds.pop()
    header["sketch_seed"] = seeds.pop()
    header["epoch_ids"] = epoch_ids
    header["lengths"] = [len(p) for p in payloads]
    # Zero-copy bundling: the manifest payload *is* the checkpoint
    # blobs back to back (each already carrying its own CRC).
    return _pack_raw(_MANIFEST_KIND, header, b"".join(payloads))


def load_epoch_manifest(data: bytes) -> tuple[dict, "list[bytes]"]:
    """Parse a manifest back into ``(header, checkpoint payloads)``.

    Refuses — with :class:`ValueError` / :class:`~repro.errors.
    SketchCompatibilityError`, never a silently wrong result — blobs
    that are not manifests, manifests whose concatenated payload bytes
    do not match the recorded lengths (truncation/padding), epoch ids
    that are not consecutive and increasing, and checkpoints whose
    sketch kind or seed disagrees with the manifest header.  Bytes that
    are not codec v2 — the manifest itself or any checkpoint in it —
    are refused the same way.
    """
    header, raw = _read_raw(data)
    if header.get("__kind__") != _MANIFEST_KIND:
        raise ValueError(
            f"blob holds a {header.get('__kind__')!r}, "
            f"expected {_MANIFEST_KIND!r}"
        )
    epoch_ids = header.get("epoch_ids")
    lengths = header.get("lengths")
    if not isinstance(epoch_ids, list) or not isinstance(lengths, list):
        raise ValueError("epoch manifest header lacks epoch_ids/lengths")
    if not all(map(_is_int, epoch_ids + lengths)):
        raise ValueError(
            "epoch manifest header holds non-integer epoch ids or payload "
            f"lengths: {epoch_ids!r} / {lengths!r}"
        )
    if len(epoch_ids) != len(lengths) or not epoch_ids:
        raise ValueError(
            f"epoch manifest header inconsistent: {len(epoch_ids)} epoch "
            f"ids vs {len(lengths)} payload lengths"
        )
    if epoch_ids != list(range(1, len(epoch_ids) + 1)):
        raise ValueError(
            f"epoch ids {epoch_ids} are not the consecutive grid "
            f"1..{len(epoch_ids)} — out-of-order, duplicated, or offset "
            "checkpoints"
        )
    if sum(lengths) != len(raw):
        raise ValueError(
            f"epoch manifest payloads truncated or padded: header promises "
            f"{sum(lengths)} bytes, blob holds {len(raw)}"
        )
    payloads: list[bytes] = []
    offset = 0
    for length in lengths:
        if length <= 0:
            raise ValueError(f"epoch manifest payload length {length} invalid")
        payloads.append(raw[offset:offset + length])
        offset += length
    for i, payload in enumerate(payloads):
        chk_header = peek_sketch_meta(payload)
        if chk_header.get("__kind__") != header.get("sketch_kind"):
            raise ValueError(
                f"checkpoint {epoch_ids[i]} holds a "
                f"{chk_header.get('__kind__')!r} sketch, manifest promises "
                f"{header.get('sketch_kind')!r}"
            )
        if chk_header.get("seed") != header.get("sketch_seed"):
            raise SketchCompatibilityError(
                f"checkpoint {epoch_ids[i]} was built with seed "
                f"{chk_header.get('seed')!r}, manifest promises "
                f"{header.get('sketch_seed')!r}"
            )
    return header, payloads
