"""Helpers for taking codec blobs apart in tamper/corruption tests.

Codec v2 blobs — the one format the library reads and writes, and the
frozen golden format of ``tests/fixtures/*_v2.manifest`` — are ``magic
+ u32 header length + JSON header + payload``; these helpers unpack
them, let a test mutate header and payload, and reseal the length/CRC
bookkeeping so the *semantic* integrity checks of the loaders are
exercised rather than the checksum.  They read every payload encoding
(dense ``zlib``, int64 ``sparse-zlib`` and ``packed-zlib``) with their
own decoder, not the library's, and re-encode a blob as dense
(``densify_sketch_v2``) or as ``sparse-zlib``
(``sparse_zlib_sketch_v2``).  ``pack_v1_sketch`` builds a retired npz
(codec v1) sketch blob from live data: refusal input that every reader
must reject.
"""

from __future__ import annotations

import io
import json
import struct
import zlib

import numpy as np

V2_PREFIX = b"RSKB2\n"
_HEAD = struct.Struct("<I")
#: Payload encodings stored deflated.
_DEFLATED = ("zlib", "sparse-zlib", "packed-zlib")


def unpack_v2(blob: bytes) -> tuple[dict, bytearray]:
    """Split a v2 blob into (header dict, mutable *decoded* payload)."""
    assert blob[:len(V2_PREFIX)] == V2_PREFIX, "not a v2 blob"
    (hlen,) = _HEAD.unpack_from(blob, len(V2_PREFIX))
    start = len(V2_PREFIX) + _HEAD.size
    header = json.loads(blob[start:start + hlen].decode("utf-8"))
    payload = blob[start + hlen:]
    if header.get("encoding") in _DEFLATED:
        payload = zlib.decompress(payload)
    return header, bytearray(payload)


def pack_v2(header: dict, payload: bytes, reseal: bool = True) -> bytes:
    """Reassemble a v2 blob; ``reseal`` refreshes length + CRC."""
    header = dict(header)
    payload = bytes(payload)
    if header.get("encoding") in _DEFLATED:
        payload = zlib.compress(payload, 1)
    if reseal:
        header["payload_bytes"] = len(payload)
        header["crc32"] = zlib.crc32(payload) & 0xFFFFFFFF
    head = json.dumps(header).encode("utf-8")
    return V2_PREFIX + _HEAD.pack(len(head)) + head + payload


def repack_v2(blob: bytes, mutate) -> bytes:
    """Unpack, apply ``mutate(header, payload)``, reseal, reassemble."""
    header, payload = unpack_v2(blob)
    mutate(header, payload)
    return pack_v2(header, payload)


def packed_fields(
    header: dict, payload: bytes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A ``packed-zlib`` payload's position gaps (uint64), counter values
    and fingerprint values (int64), as writable arrays.

    The payload is ``nnz`` gaps (the first counted from position 0) at
    ``widths[0]`` bytes unsigned, the values at positions below
    ``2 * cells`` at ``widths[1]`` bytes signed, and the rest as u32.
    """
    nnz = header["nnz"]
    gap_width, count_width = header["widths"]
    total = int(sum(header["cells"]))
    payload = bytes(payload)
    gaps = np.frombuffer(payload, dtype=f"<u{gap_width}", count=nnz)
    split = int(np.count_nonzero(np.cumsum(gaps) < 2 * total))
    start = nnz * gap_width
    counts = np.frombuffer(
        payload, dtype=f"<i{count_width}", count=split, offset=start
    )
    fps = np.frombuffer(payload, dtype="<u4", offset=start + split * count_width)
    return (
        gaps.astype(np.uint64), counts.astype(np.int64), fps.astype(np.int64)
    )


def packed_payload(gaps, counts, fps, widths) -> bytes:
    """Encode ``packed_fields`` arrays at ``widths`` (no range checks)."""
    gap_width, count_width = widths
    return b"".join((
        np.asarray(gaps, dtype=np.uint64).astype(f"<u{gap_width}").tobytes(),
        np.asarray(counts).astype(f"<i{count_width}").tobytes(),
        np.asarray(fps).astype("<u4").tobytes(),
    ))


def edit_packed(edit, gap_width: int | None = None):
    """A ``repack_v2`` mutation for a ``packed-zlib`` blob: decode its
    gaps, counts and fingerprints, apply ``edit(gaps, counts, fps,
    size)`` (``size`` is the buffer length, ``4 * cells``), and encode
    them again, the gaps at ``gap_width`` bytes when given."""
    def mutate(header, payload):
        gaps, counts, fps = packed_fields(header, payload)
        edit(gaps, counts, fps, 4 * int(sum(header["cells"])))
        if gap_width is not None:
            header["widths"] = [gap_width, header["widths"][1]]
        payload[:] = packed_payload(gaps, counts, fps, header["widths"])
    return mutate


def sketch_buffer_v2(blob: bytes) -> tuple[dict, np.ndarray]:
    """A v2 sketch blob's header and dense field-major cell buffer."""
    header, payload = unpack_v2(blob)
    total = int(sum(header["cells"]))
    if header.get("encoding") == "packed-zlib":
        gaps, counts, fps = packed_fields(header, payload)
        dense = np.zeros(4 * total, dtype=np.int64)
        dense[np.cumsum(gaps).astype(np.int64)] = np.concatenate((counts, fps))
        return header, dense
    raw = np.frombuffer(bytes(payload), dtype="<i8").astype(np.int64)
    if header.get("encoding") == "sparse-zlib":
        nnz = header["nnz"]
        dense = np.zeros(4 * total, dtype=np.int64)
        dense[raw[:nnz]] = raw[nnz:]
        return header, dense
    return header, raw


def sketch_fields_v2(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """A v2 sketch blob's header and its four per-field cell arrays."""
    header, dense = sketch_buffer_v2(blob)
    total = int(sum(header["cells"]))
    fields = {
        name: dense[i * total:(i + 1) * total]
        for i, name in enumerate(("phi", "iota", "fp1", "fp2"))
    }
    return header, fields


def densify_sketch_v2(blob: bytes) -> bytes:
    """Re-encode a (possibly sparse) v2 sketch blob as dense zlib.

    Loaders accept every encoding, so tamper tests that poke absolute
    buffer offsets densify first.
    """
    header, dense = sketch_buffer_v2(blob)
    header = dict(header)
    header.pop("nnz", None)
    header.pop("widths", None)
    header["encoding"] = "zlib"
    return pack_v2(header, dense.astype("<i8").tobytes())


def sparse_zlib_sketch_v2(blob: bytes) -> bytes:
    """Re-encode a v2 sketch blob as ``sparse-zlib``: int64 positions,
    then int64 values — the sparse encoding the library wrote before
    ``packed-zlib``, which loaders still read."""
    header, dense = sketch_buffer_v2(blob)
    idx = np.flatnonzero(dense)
    header = dict(header)
    header.pop("widths", None)
    header["encoding"] = "sparse-zlib"
    header["nnz"] = int(idx.size)
    return pack_v2(header, np.concatenate((idx, dense[idx])).astype("<i8").tobytes())


def pack_v1_sketch(blob: bytes) -> bytes:
    """Re-encode a v2 sketch blob in the retired v1 npz container.

    Byte-compatible with what ``dump_sketch`` produced before codec v2:
    same header keys (v1 magic) and the four concatenated field arrays.
    The library no longer reads these; tests use them as refusal input.
    """
    header, arrays = sketch_fields_v2(blob)
    header = dict(header)
    header["__magic__"] = "repro-sketch-v1"
    for key in ("payload_bytes", "crc32", "encoding", "nnz", "widths"):
        header.pop(key, None)
    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        __header__=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
        **arrays,
    )
    return buf.getvalue()
