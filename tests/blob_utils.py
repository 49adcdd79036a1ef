"""Helpers for taking codec blobs apart in tamper/corruption tests.

Codec v2 blobs — the one format the library reads and writes, and the
frozen golden format of ``tests/fixtures/*_v2.manifest`` — are ``magic
+ u32 header length + JSON header + payload``; these helpers unpack
them, let a test mutate header and payload, and reseal the length/CRC
bookkeeping so the *semantic* integrity checks of the loaders are
exercised rather than the checksum.  ``pack_v1_sketch`` builds a
retired npz (codec v1) sketch blob from live data: refusal input that
every reader must reject.
"""

from __future__ import annotations

import io
import json
import struct
import zlib

import numpy as np

V2_PREFIX = b"RSKB2\n"
_HEAD = struct.Struct("<I")


def unpack_v2(blob: bytes) -> tuple[dict, bytearray]:
    """Split a v2 blob into (header dict, mutable *decoded* payload)."""
    assert blob[:len(V2_PREFIX)] == V2_PREFIX, "not a v2 blob"
    (hlen,) = _HEAD.unpack_from(blob, len(V2_PREFIX))
    start = len(V2_PREFIX) + _HEAD.size
    header = json.loads(blob[start:start + hlen].decode("utf-8"))
    payload = blob[start + hlen:]
    if header.get("encoding") in ("zlib", "sparse-zlib"):
        payload = zlib.decompress(payload)
    return header, bytearray(payload)


def pack_v2(header: dict, payload: bytes, reseal: bool = True) -> bytes:
    """Reassemble a v2 blob; ``reseal`` refreshes length + CRC."""
    header = dict(header)
    payload = bytes(payload)
    if header.get("encoding") in ("zlib", "sparse-zlib"):
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


def sketch_buffer_v2(blob: bytes) -> tuple[dict, np.ndarray]:
    """A v2 sketch blob's header and dense field-major cell buffer."""
    header, payload = unpack_v2(blob)
    total = int(sum(header["cells"]))
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

    Loaders accept both encodings, so tamper tests that poke absolute
    buffer offsets densify first.
    """
    header, dense = sketch_buffer_v2(blob)
    header = dict(header)
    header.pop("nnz", None)
    header["encoding"] = "zlib"
    return pack_v2(header, dense.astype("<i8").tobytes())


def pack_v1_sketch(blob: bytes) -> bytes:
    """Re-encode a v2 sketch blob in the retired v1 npz container.

    Byte-compatible with what ``dump_sketch`` produced before codec v2:
    same header keys (v1 magic) and the four concatenated field arrays.
    The library no longer reads these; tests use them as refusal input.
    """
    header, arrays = sketch_fields_v2(blob)
    header = dict(header)
    header["__magic__"] = "repro-sketch-v1"
    for key in ("payload_bytes", "crc32", "encoding", "nnz"):
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
