"""Fuzz/corruption tests for ``load_sketch``, the epoch manifest and
the window reader.

The storage contract: corrupted, truncated, tampered, or mismatched
bytes must raise ``SketchCompatibilityError``/``ValueError`` — a load
either returns a verified-compatible sketch or refuses; it never
returns a silently wrong one.  ``materialise_window`` keeps that
contract for timeline windows and types it for store windows: verified
store segments that fail to load or combine raise
``StoreCorruptionError``.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import zlib

import pytest
from blob_utils import edit_packed, pack_v1_sketch, repack_v2, unpack_v2
from test_epoch_store import _rewrite_catalog

from repro.api import GraphSketchEngine, SketchSpec, build_sketch
from repro.core import SpanningForestSketch
from repro.errors import SketchCompatibilityError, StoreCorruptionError
from repro.hashing import MERSENNE31, HashSource
from repro.sketch import (
    dump_epoch_manifest,
    dump_sketch,
    load_epoch_manifest,
    load_sketch,
    merge_sketch_bytes,
    subtract_sketch_bytes,
)
from repro.streams import churn_stream, erdos_renyi_graph
from repro.temporal import (
    EpochManager,
    EpochStore,
    EpochTimeline,
    materialise_window,
)

N = 10
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def stream():
    return churn_stream(N, erdos_renyi_graph(N, 0.45, seed=21), seed=22)


@pytest.fixture(scope="module")
def blob(stream) -> bytes:
    return dump_sketch(SpanningForestSketch(N, HashSource(31)).consume_batch(stream.as_batch()))


@pytest.fixture(scope="module")
def packed_blob(stream) -> bytes:
    """A lightly-loaded forest: a ``packed-zlib`` blob."""
    data = dump_sketch(
        SpanningForestSketch(N, HashSource(31))
        .consume_batch(stream.as_batch().slice(0, 8))
    )
    assert unpack_v2(data)[0]["encoding"] == "packed-zlib"
    return data


@pytest.fixture(scope="module")
def timeline(stream) -> EpochTimeline:
    return EpochManager.consume(
        functools.partial(
            build_sketch, SketchSpec.of("spanning_forest", N, seed=31)
        ),
        stream, epochs=3,
    )


def _repack(blob: bytes, mutate) -> bytes:
    """Unpack a v2 blob, apply ``mutate(header, payload)``, reseal."""
    return repack_v2(blob, mutate)


def _skew_cells(header, _payload) -> None:
    """Grow every field's cell count past what the parameters give."""
    header["cells"] = [cells + 1 for cells in header["cells"]]


def _v2_manifest_of_v1_checkpoints() -> bytes:
    """Codec v1 checkpoint blobs wrapped unchanged in a v2 manifest.

    The shape ``GraphSketchEngine.restore(v1_manifest).snapshot()``
    wrote while the v1 reader still existed.
    """
    data = (FIXTURES / "forest_epochs_v2.manifest").read_bytes()
    v1 = [pack_v1_sketch(p) for p in load_epoch_manifest(data)[1]]

    def wrap(header, payload):
        header["lengths"] = [len(b) for b in v1]
        payload[:] = b"".join(v1)

    return repack_v2(data, wrap)


def _resealed_manifest(field: str, value) -> bytes:
    """The v2 forest fixture manifest (3 epochs) with header ``field``
    set to ``value`` and its CRC resealed: it passes every byte-level
    check, so only the header's own validation can refuse it."""
    def mutate(header, _payload):
        header[field] = value

    return repack_v2(
        (FIXTURES / "forest_epochs_v2.manifest").read_bytes(), mutate
    )


def _manifest_with_checkpoint_field(field: str, value) -> bytes:
    """The v2 forest fixture manifest with header ``field`` of its first
    checkpoint set to ``value``; the checkpoint and the manifest are
    both resealed, so only a check of the checkpoint's parameters can
    refuse it."""
    data = (FIXTURES / "forest_epochs_v2.manifest").read_bytes()
    payloads = load_epoch_manifest(data)[1]

    def set_field(header, _payload):
        header[field] = value

    payloads[0] = repack_v2(payloads[0], set_field)

    def wrap(header, payload):
        header["lengths"] = [len(p) for p in payloads]
        payload[:] = b"".join(payloads)

    return repack_v2(data, wrap)


#: Bytes no manifest reader accepts, by name (built lazily).
MANIFEST_GARBAGE = {
    "zeros": lambda: b"\x00" * 100,
    "almost-a-zip": lambda: b"PK\x03\x04 almost a zip",
    "forest-v1-fixture": lambda: (
        FIXTURES / "forest_epochs_v1.manifest"
    ).read_bytes(),
    "mincut-v1-fixture": lambda: (
        FIXTURES / "mincut_epochs_v1.manifest"
    ).read_bytes(),
    "v1-checkpoints-in-v2": _v2_manifest_of_v1_checkpoints,
}

#: CRC-consistent manifest headers with a non-integer field, by name:
#: ``(field, value)``.  Every reader reads ``lengths``; the timeline
#: readers also read ``n``, ``epoch_tokens`` and ``boundaries``.
NON_INTEGER_FIELDS = {
    "string-length": ("lengths", ["a", 1, 2]),
    "float-lengths": ("lengths", [1.0, 2.0, 3.0]),
    "epoch_tokens-null": ("epoch_tokens", [None, 1, 2]),
    "epoch_tokens-list": ("epoch_tokens", [[1], 1, 2]),
    "epoch_tokens-object": ("epoch_tokens", [{"a": 1}, 1, 2]),
    "boundaries-null": ("boundaries", [None, 2, 3]),
    "boundaries-list": ("boundaries", [[1], 2, 3]),
    "boundaries-object": ("boundaries", [{"a": 1}, 2, 3]),
    "n-null": ("n", None),
    "n-list": ("n", [1]),
    "n-object": ("n", {"a": 1}),
}

#: Every reader of manifest bytes, as ``data -> result``.
MANIFEST_READERS = {
    "load_epoch_manifest": load_epoch_manifest,
    "EpochTimeline.from_bytes": EpochTimeline.from_bytes,
    "GraphSketchEngine.restore": GraphSketchEngine.restore,
}

#: ``(reader, build, message pattern)`` per refusal, id'd by name-reader.
GARBAGE_CASES = [
    pytest.param(reader, build, "not a repro sketch blob",
                 id=f"{name}-{reader}")
    for name, build in MANIFEST_GARBAGE.items()
    for reader in MANIFEST_READERS
] + [
    pytest.param(reader, functools.partial(_resealed_manifest, field, value),
                 "non-integer", id=f"{name}-{reader}")
    for name, (field, value) in NON_INTEGER_FIELDS.items()
    for reader in MANIFEST_READERS
    if field == "lengths" or reader != "load_epoch_manifest"
] + [
    # The manifest readers check a checkpoint's kind and seed; only the
    # engine builds its spec from the rest of the header.
    pytest.param("GraphSketchEngine.restore",
                 functools.partial(_manifest_with_checkpoint_field, "n", None),
                 "cannot build",
                 id="checkpoint-n-null-GraphSketchEngine.restore"),
]

#: A field removed from a header instead of set (``UNBUILDABLE_HEADERS``).
_DROP = object()

#: CRC-consistent sketch headers whose constructor fields do not build
#: the sketch they describe: ``(kind, field, value)``.
UNBUILDABLE_HEADERS = [
    pytest.param("spanning_forest", "n", None, id="forest-n-null"),
    pytest.param("spanning_forest", "n", 10.0, id="forest-n-float"),
    pytest.param("spanning_forest", "rows", "2", id="forest-rows-string"),
    pytest.param("spanning_forest", "seed", None, id="forest-seed-null"),
    pytest.param("spanning_forest", "seed", "31", id="forest-seed-string"),
    pytest.param("spanning_forest", "rounds", _DROP, id="forest-no-rounds"),
    pytest.param("mincut", "epsilon", None, id="mincut-epsilon-null"),
    pytest.param("mincut", "levels", _DROP, id="mincut-no-levels"),
]


def _set_header(field: str, value):
    """A ``mutate(header, payload)`` that sets (or, for ``_DROP``,
    removes) one header field, computing a callable ``value`` from the
    header."""
    def mutate(header, _payload):
        if value is _DROP:
            del header[field]
        else:
            header[field] = value(header) if callable(value) else value
    return mutate


def _repeat_a_position(gaps, _counts, _fps, _size):
    """A zero second gap: the second position repeats the first (the
    third keeps its place)."""
    gaps[2] += gaps[1]
    gaps[1] = 0


def _first_gap_2_63(gaps, _counts, _fps, _size):
    gaps[0] = 1 << 63


def _last_position_at_end(gaps, _counts, _fps, size):
    """Move the last position to ``4 * cells``, one past the buffer."""
    gaps[-1] += size - int(gaps.sum())


def _wrap_gaps(gaps, _counts, _fps, _size):
    """Every gap stays >= 1 and every position but the second in place,
    but the unsigned running sum wraps past 2^64 on the way."""
    gaps[2] += gaps[1] + 1
    gaps[1] = (1 << 64) - 1


def _fingerprint_p(_gaps, _counts, fps, _size):
    fps[0] = MERSENNE31


def _drop_last_byte(_header, payload):
    del payload[-1]


def _add_a_byte(_header, payload):
    payload.append(0)


#: One defect each of a ``packed-zlib`` blob, resealed so that only the
#: payload decoder can refuse it: ``(mutate, message pattern)``.
PACKED_DEFECTS = {
    "gap-width-3": (
        _set_header("widths", lambda h: [3, h["widths"][1]]), "not a gap width",
    ),
    "count-width-2": (
        _set_header("widths", lambda h: [h["widths"][0], 2]), "not a gap width",
    ),
    "widths-missing": (_set_header("widths", _DROP), "not a gap width"),
    "nnz-missing": (_set_header("nnz", _DROP), "mis-sized"),
    "nnz-float": (_set_header("nnz", lambda h: float(h["nnz"])), "mis-sized"),
    "payload-byte-short": (_drop_last_byte, "mis-sized"),
    "payload-byte-long": (_add_a_byte, "mis-sized"),
    "duplicate-position": (
        edit_packed(_repeat_a_position), "strictly increasing",
    ),
    "first-gap-2^63": (
        edit_packed(_first_gap_2_63, gap_width=8), "outside the buffer",
    ),
    "position-at-4-cells": (
        edit_packed(_last_position_at_end), "outside the buffer",
    ),
    "gaps-wrap": (
        edit_packed(_wrap_gaps, gap_width=8), "strictly increasing",
    ),
    "fingerprint-p": (edit_packed(_fingerprint_p), "outside GF"),
}

#: Every reader of sketch bytes, as ``data -> result``.
SKETCH_READERS = {
    "load_sketch": load_sketch,
    "merge_sketch_bytes": lambda data: merge_sketch_bytes(
        SpanningForestSketch(N, HashSource(31)), data
    ),
    "subtract_sketch_bytes": lambda data: subtract_sketch_bytes(
        SpanningForestSketch(N, HashSource(31)), data
    ),
}


class TestLoadSketchFuzz:
    @pytest.mark.parametrize("reader", sorted(SKETCH_READERS))
    @pytest.mark.parametrize("defect", list(PACKED_DEFECTS))
    def test_packed_payload_defect_refused(self, packed_blob, defect, reader):
        mutate, match = PACKED_DEFECTS[defect]
        with pytest.raises(ValueError, match=match):
            SKETCH_READERS[reader](repack_v2(packed_blob, mutate))

    @pytest.mark.parametrize("defect", list(PACKED_DEFECTS))
    def test_packed_segment_defect_is_store_corruption(
        self, timeline, tmp_path, defect
    ):
        """The same defects in a store segment (segment and catalog
        CRCs resealed) are store corruption on the window path."""
        root = tmp_path / "store"
        store = EpochStore.from_timeline(root, timeline)
        entry = next(
            e for e in store.plan_window(0, timeline.epochs)
            if unpack_v2((root / "segments" / e.file).read_bytes())[0][
                "encoding"] == "packed-zlib"
        )
        path = root / "segments" / entry.file
        mutate, match = PACKED_DEFECTS[defect]
        data = repack_v2(path.read_bytes(), mutate)
        path.write_bytes(data)

        def reseal(doc):
            for span in doc["spans"]:
                if span["file"] == entry.file:
                    span["bytes"] = len(data)
                    span["crc32"] = zlib.crc32(data) & 0xFFFFFFFF
        _rewrite_catalog(root, reseal)
        with pytest.raises(StoreCorruptionError, match=match):
            materialise_window(EpochStore.open(root), 0, timeline.epochs)

    @pytest.mark.parametrize("keep", [1, 10, 57, 200])
    def test_truncated_payload_rejected(self, blob, keep):
        with pytest.raises(ValueError):
            load_sketch(blob[:keep])

    def test_every_prefix_of_small_blob_rejected(self):
        small = dump_sketch(SpanningForestSketch(2, HashSource(1), rounds=1))
        for keep in range(0, len(small), max(1, len(small) // 50)):
            with pytest.raises(ValueError):
                load_sketch(small[:keep])

    @pytest.mark.parametrize("cut", [8, 80, 1])
    def test_mis_sized_cell_buffer_rejected(self, blob, cut):
        """A resealed (valid-CRC) blob with missing cell bytes refuses."""
        def shrink(_header, payload):
            del payload[-cut:]

        with pytest.raises(ValueError, match="mis-sized"):
            load_sketch(_repack(blob, shrink))

    def test_flipped_delta_bytes_rejected_or_detected(self, blob):
        """Bit flips anywhere in the blob break the payload CRC32."""
        corrupted = bytearray(blob)
        corrupted[len(corrupted) // 3] ^= 0x40
        with pytest.raises(ValueError):
            load_sketch(bytes(corrupted))

    def test_mismatched_seed_against_reference_rejected(self, blob, stream):
        other = SpanningForestSketch(N, HashSource(32)).consume_batch(stream.as_batch())
        with pytest.raises(SketchCompatibilityError, match="seed"):
            load_sketch(blob, like=other)

    @pytest.mark.parametrize("kind,field,value", UNBUILDABLE_HEADERS)
    def test_unbuildable_header_is_a_value_error(self, kind, field, value):
        """Whatever the constructor makes of a header's values, a blob
        whose fields do not rebuild its sketch refuses with ValueError."""
        def mutate(header, _payload):
            if value is _DROP:
                del header[field]
            else:
                header[field] = value

        blob = dump_sketch(SketchSpec.of(kind, N, seed=31).build())
        with pytest.raises(ValueError):
            load_sketch(repack_v2(blob, mutate))

    @pytest.mark.parametrize("kind", ["mincut", "simple_sparsification"])
    def test_negative_levels_refused(self, kind):
        """A hierarchy with no level has no ``_params()`` to check a
        header against: spec and header alike refuse ``levels=-1``."""
        def mutate(header, _payload):
            header["levels"] = -1

        with pytest.raises(ValueError, match="levels must be >= 0"):
            SketchSpec.of(kind, N, seed=31, levels=-1).build()
        blob = dump_sketch(SketchSpec.of(kind, N, seed=31).build())
        with pytest.raises(ValueError, match="levels must be >= 0"):
            load_sketch(repack_v2(blob, mutate))

    def test_oversized_cells_meta_rejected(self, blob):
        def grow(header, _arrays):
            header["cells"] = [header["cells"][0] * 2]

        with pytest.raises(ValueError, match="cell layout"):
            load_sketch(_repack(blob, grow))


class TestManifestCorruption:
    def test_round_trip_is_clean(self, timeline):
        header, payloads = load_epoch_manifest(timeline.to_bytes())
        assert header["epoch_ids"] == [1, 2, 3]
        assert payloads == [c.payload for c in timeline.checkpoints]

    @pytest.mark.parametrize("keep_fraction", [0.1, 0.5, 0.9])
    def test_truncated_manifest_rejected(self, timeline, keep_fraction):
        data = timeline.to_bytes()
        with pytest.raises(ValueError):
            EpochTimeline.from_bytes(data[: int(len(data) * keep_fraction)])

    def test_truncated_inner_payloads_rejected(self, timeline):
        """Header promises more payload bytes than the blob holds."""
        def drop_tail(_header, payload):
            del payload[-20:]

        with pytest.raises(ValueError, match="truncated or padded"):
            load_epoch_manifest(_repack(timeline.to_bytes(), drop_tail))

    def test_out_of_order_epoch_ids_rejected(self, timeline):
        def swap(header, _arrays):
            header["epoch_ids"] = [2, 1, 3]

        with pytest.raises(ValueError, match="consecutive"):
            load_epoch_manifest(_repack(timeline.to_bytes(), swap))

    def test_duplicated_epoch_ids_rejected(self, timeline):
        def dup(header, _arrays):
            header["epoch_ids"] = [1, 1, 2]

        with pytest.raises(ValueError, match="consecutive"):
            load_epoch_manifest(_repack(timeline.to_bytes(), dup))

    def test_offset_epoch_ids_rejected_at_dump_and_load(self, timeline):
        """dump and load agree: only the 1-based grid is a valid manifest."""
        payloads = [c.payload for c in timeline.checkpoints]
        with pytest.raises(ValueError, match="1\\.\\.3"):
            dump_epoch_manifest(payloads, epoch_ids=[3, 4, 5])

        def shift(header, _arrays):
            header["epoch_ids"] = [2, 3, 4]

        with pytest.raises(ValueError, match="consecutive"):
            load_epoch_manifest(_repack(timeline.to_bytes(), shift))

    def test_mismatched_seed_inside_manifest_rejected(self, stream):
        """A checkpoint sealed under a different seed cannot hide."""
        a = dump_sketch(SpanningForestSketch(N, HashSource(41)).consume_batch(stream.as_batch()))
        b = dump_sketch(SpanningForestSketch(N, HashSource(42)).consume_batch(stream.as_batch()))
        with pytest.raises(SketchCompatibilityError, match="seed"):
            dump_epoch_manifest([a, b])
        # ... and a manifest whose header lies about the seed refuses on load.
        good = dump_epoch_manifest([a])

        def lie(header, _arrays):
            header["sketch_seed"] = 42

        with pytest.raises(SketchCompatibilityError, match="seed"):
            load_epoch_manifest(_repack(good, lie))

    def test_mixed_sketch_kinds_rejected(self, stream):
        from repro.core import CutEdgesSketch

        forest = dump_sketch(
            SpanningForestSketch(N, HashSource(41)).consume_batch(stream.as_batch())
        )
        cut = dump_sketch(
            CutEdgesSketch(N, k=4, source=HashSource(41)).consume_batch(stream.as_batch())
        )
        with pytest.raises(SketchCompatibilityError, match="kind"):
            dump_epoch_manifest([forest, cut])

    def test_sketch_blob_is_not_a_manifest(self, blob):
        with pytest.raises(ValueError, match="expected 'epoch-manifest'"):
            load_epoch_manifest(blob)

    def test_manifest_is_not_a_sketch_blob(self, timeline):
        with pytest.raises(ValueError, match="not a registry-serialised"):
            load_sketch(timeline.to_bytes())

    @pytest.mark.parametrize("reader,build,match", GARBAGE_CASES)
    def test_garbage_bytes_rejected(self, reader, build, match):
        """Foreign bytes, codec v1 manifests or checkpoints, and
        CRC-consistent headers with non-integer fields refuse."""
        with pytest.raises(ValueError, match=match):
            MANIFEST_READERS[reader](build())

    def test_negative_payload_length_rejected(self, timeline):
        def poison(header, _arrays):
            header["lengths"] = [
                -header["lengths"][0],
                header["lengths"][1],
                header["lengths"][2] + 2 * header["lengths"][0],
            ]

        with pytest.raises(ValueError):
            load_epoch_manifest(_repack(timeline.to_bytes(), poison))

    def test_manager_rejects_bad_boundaries(self, stream):
        factory = functools.partial(
            build_sketch, SketchSpec.of("spanning_forest", N, seed=31)
        )
        with pytest.raises(ValueError, match="exactly one"):
            EpochManager.consume(factory, stream)
        with pytest.raises(ValueError, match="exactly one"):
            EpochManager.consume(factory, stream, epochs=2, boundaries=[1])
        with pytest.raises(ValueError, match="non-decreasing"):
            EpochManager.consume(factory, stream, boundaries=[5, 3, len(stream)])
        with pytest.raises(ValueError, match="final boundary"):
            EpochManager.consume(factory, stream, boundaries=[3])
        with pytest.raises(ValueError, match="at least one epoch"):
            EpochManager.consume(factory, stream, epochs=0)


class TestWindowReaderErrors:
    """One window reader, one bounds check, typed store corruption."""

    @pytest.mark.parametrize("t1,t2", [(-1, 2), (2, 2), (3, 1), (0, 4)])
    def test_invalid_window_is_the_same_value_error_for_both_sources(
        self, timeline, tmp_path, t1, t2
    ):
        store = EpochStore.from_timeline(tmp_path / "store", timeline)
        message = (
            f"window [{t1}, {t2}) is not a valid epoch range within [0, 3]"
        )
        for source in (timeline, store):
            with pytest.raises(ValueError) as excinfo:
                materialise_window(source, t1, t2)
            assert str(excinfo.value) == message
            assert not isinstance(excinfo.value, StoreCorruptionError)

    def test_store_merge_failure_is_store_corruption(self, timeline, tmp_path):
        """The span merged onto the first one fails to combine after its
        segment and catalog CRCs were resealed."""
        root = tmp_path / "store"
        store = EpochStore.from_timeline(root, timeline)
        plan = store.plan_window(0, 3)
        assert len(plan) > 1
        entry = plan[-1]
        path = root / "segments" / entry.file
        data = _repack(path.read_bytes(), _skew_cells)
        path.write_bytes(data)

        def reseal(doc):
            for span in doc["spans"]:
                if span["file"] == entry.file:
                    span["bytes"] = len(data)
                    span["crc32"] = zlib.crc32(data) & 0xFFFFFFFF
        _rewrite_catalog(root, reseal)
        with pytest.raises(StoreCorruptionError, match="cell layout"):
            materialise_window(EpochStore.open(root), 0, 3)

    @pytest.mark.parametrize(
        "t1,t2", [(1, 2), (2, 3)], ids=["load", "subtract"]
    )
    def test_timeline_window_keeps_the_codec_value_error(
        self, timeline, t1, t2
    ):
        """Checkpoint 2 is loaded for ``[1, 2)`` and subtracted for
        ``[2, 3)``; either way a timeline reports the codec's error."""
        checkpoints = list(timeline.checkpoints)
        checkpoints[1] = dataclasses.replace(
            checkpoints[1], payload=_repack(checkpoints[1].payload, _skew_cells)
        )
        tampered = EpochTimeline(timeline.n, checkpoints)
        with pytest.raises(ValueError, match="cell layout") as excinfo:
            materialise_window(tampered, t1, t2)
        assert not isinstance(excinfo.value, StoreCorruptionError)
