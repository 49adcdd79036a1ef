"""Arena-backed merge/subtract/serialise vs the pre-arena pipeline.

The tentpole claim of the contiguous :class:`~repro.sketch.arena.
SketchArena`: the hot path of both the distributed coordinator (merge a
payload per site per epoch) and the temporal engine (materialise a
window as load + subtract) collapses from *npz-decompress → rebuild a
twin sketch → loop over every cell bank* into *verify header → inflate
→ two whole-buffer vector ops*.  This bench replays the K=8 sites ×
16 epochs deployment both ways on identical payloads — the legacy side
drives a bench-local replica of the retired v1 (npz) codec
(``_dump_v1``/``_load_v1``; the library reads codec v2 only) plus the
per-bank combine loop the sketch classes used before the arena — and
gates the arena path at **≥ 3×** on the summed merge+subtract work.  Byte-identity of the two
paths' results is asserted here and pinned more broadly by
``tests/test_arena.py`` and the hypothesis equivalence harness.
"""

from __future__ import annotations

import functools
import io
import json
import struct
import time

import numpy as np
import pytest
from conftest import print_table, write_bench_json

from repro.api import SketchSpec, build_sketch
from repro.distributed.partition import partition_batch
from repro.eval import Table
from repro.hashing import MERSENNE31
from repro.sketch import (
    dump_sketch,
    load_sketch,
    merge_sketch_bytes,
    subtract_sketch_bytes,
)
from repro.sketch.serialize import _construct, _constructor_params, sketch_codec
from repro.streams import churn_stream, erdos_renyi_graph

SITES = 8
EPOCHS = 16
GATE = 3.0


def _dump_v1(sketch) -> bytes:
    """Byte-faithful v1 (npz) dump — what ``dump_sketch`` produced
    before the arena codec, kept here as the legacy baseline.  Built by
    transcoding the v2 blob, so the header carries the exact codec
    parameters; the timed part is the same gather + npz pack the old
    writer ran."""
    banks = sketch._cell_banks()
    v2 = dump_sketch(sketch)
    (hlen,) = struct.unpack_from("<I", v2, 6)
    header = json.loads(v2[10:10 + hlen].decode("utf-8"))
    header["__magic__"] = "repro-sketch-v1"
    for key in ("encoding", "payload_bytes", "crc32"):
        header.pop(key, None)
    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        __header__=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
        phi=np.concatenate([b.phi for b in banks]),
        iota=np.concatenate([b.iota for b in banks]),
        fp1=np.concatenate([b.fp1 for b in banks]),
        fp2=np.concatenate([b.fp2 for b in banks]),
    )
    return buf.getvalue()


def _load_v1(data: bytes, like=None):
    """The retired v1 reader's work, kept here as the legacy baseline:
    npz parse, header and layout checks (and the parameter/seed check
    against ``like``), dtype and fingerprint-range checks, then a
    per-bank copy into a fresh twin."""
    with np.load(io.BytesIO(data)) as npz:
        header = json.loads(bytes(npz["__header__"]).decode("utf-8"))
        arrays = {k: npz[k] for k in npz.files if k != "__header__"}
    if header.get("__magic__") != "repro-sketch-v1":
        raise ValueError("not a v1 sketch blob")
    codec = sketch_codec(header["__kind__"].removeprefix("sketch:"))
    if like is not None:
        expected = dict(like._params(), seed=like.source_seed)
        if any(header.get(k) != v for k, v in expected.items()
               if v is not None):
            raise ValueError("v1 blob does not match the reference sketch")
    sketch = _construct(
        codec.cls, header["seed"], _constructor_params(codec.cls, header)
    )
    banks = sketch._cell_banks()
    total = sum(b.size for b in banks)
    if header.get("cells") != [b.size for b in banks]:
        raise ValueError("v1 blob cell layout does not match its parameters")
    for name in ("phi", "iota", "fp1", "fp2"):
        arr = arrays[name]
        if arr.shape != (total,) or arr.dtype != np.int64:
            raise ValueError(f"v1 cell array {name!r} mis-sized or mis-typed")
    for name in ("fp1", "fp2"):
        arr = arrays[name]
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= MERSENNE31):
            raise ValueError(f"v1 fingerprint array {name!r} out of field")
    offset = 0
    for bank in banks:
        end = offset + bank.size
        bank.phi[:] = arrays["phi"][offset:end]
        bank.iota[:] = arrays["iota"][offset:end]
        bank.fp1[:] = arrays["fp1"][offset:end]
        bank.fp2[:] = arrays["fp2"][offset:end]
        offset = end
    return sketch


def _legacy_combine(mine, theirs, op: str) -> None:
    """Pre-arena combine: loop every cell bank, four numpy ops each."""
    for a, b in zip(mine._cell_banks(), theirs._cell_banks()):
        getattr(a, op)(b)


@pytest.fixture(scope="module")
def arena_table(quick):
    table = Table(
        f"ARENA: K={SITES} sites × {EPOCHS} epochs — pre-arena pipeline "
        "vs contiguous-buffer path",
        ["phase", "ops", "legacy s", "arena s", "speedup"],
    )
    yield table
    # Quick (CI-telemetry) runs keep the recorded full-size table.
    print_table(table, name=None if quick else "arena")


def test_bench_arena_merge_subtract(benchmark, seed, quick, arena_table):
    n = 16 if quick else 24
    factory = functools.partial(
        build_sketch, SketchSpec.of("mincut", n, seed=seed + 9, c_k=0.5)
    )
    edges = erdos_renyi_graph(n, 0.5, seed=seed)
    stream = churn_stream(n, edges, seed=seed + 1)
    batch = stream.as_batch()

    # Site payloads: one consumed sketch per site, both codecs.
    shards = partition_batch(batch, SITES, "hash-edge", seed)
    site_sketches = [factory().consume_batch(shard) for shard in shards]
    v2_site = [dump_sketch(s) for s in site_sketches]
    v1_site = [_dump_v1(s) for s in site_sketches]

    # Cumulative checkpoint payloads: prefix sketches at epoch bounds.
    bounds = [len(batch) * (e + 1) // EPOCHS for e in range(EPOCHS)]
    prefixes = [factory().consume_batch(batch.slice(0, b)) for b in bounds]
    v2_cum = [dump_sketch(s) for s in prefixes]
    v1_cum = [_dump_v1(s) for s in prefixes]

    # -- coordinator: one merge per site per epoch --------------------------
    def arena_merges():
        last = None
        for _epoch in range(EPOCHS):
            coordinator = factory()
            for payload in v2_site:
                merge_sketch_bytes(coordinator, payload)
            last = coordinator
        return last

    def legacy_merges():
        last = None
        for _epoch in range(EPOCHS):
            coordinator = factory()
            for payload in v1_site:
                _legacy_combine(
                    coordinator, _load_v1(payload, like=coordinator),
                    "merge",
                )
            last = coordinator
        return last

    t0 = time.perf_counter()
    legacy_coord = legacy_merges()
    legacy_merge_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    arena_coord = arena_merges()
    arena_merge_s = time.perf_counter() - t0

    # -- temporal engine: suffix-window sweep by subtraction ----------------
    def arena_windows():
        out = []
        for t1 in range(1, EPOCHS):
            window = load_sketch(v2_cum[-1])
            subtract_sketch_bytes(window, v2_cum[t1 - 1])
            out.append(window)
        return out

    def legacy_windows():
        out = []
        for t1 in range(1, EPOCHS):
            window = _load_v1(v1_cum[-1])
            _legacy_combine(window, _load_v1(v1_cum[t1 - 1]), "subtract")
            out.append(window)
        return out

    t0 = time.perf_counter()
    legacy_wins = legacy_windows()
    legacy_sub_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    arena_wins = arena_windows()
    arena_sub_s = time.perf_counter() - t0

    # Both paths are byte-identical — the refactor changed the layout,
    # not one cell of the algebra.
    assert dump_sketch(arena_coord) == dump_sketch(legacy_coord)
    for mine, theirs in zip(arena_wins[:1] + arena_wins[-1:],
                            legacy_wins[:1] + legacy_wins[-1:]):
        assert dump_sketch(mine) == dump_sketch(theirs)

    # -- serialisation: dump/load one site sketch both ways -----------------
    t0 = time.perf_counter()
    for _ in range(3):
        _dump_v1(site_sketches[0])
    legacy_dump_s = (time.perf_counter() - t0) / 3
    t0 = time.perf_counter()
    for _ in range(3):
        dump_sketch(site_sketches[0])
    arena_dump_s = (time.perf_counter() - t0) / 3

    merges = EPOCHS * SITES
    subtracts = EPOCHS - 1
    legacy_total = legacy_merge_s + legacy_sub_s
    arena_total = arena_merge_s + arena_sub_s
    speedup = legacy_total / arena_total
    arena_table.add_row(
        "coordinator merge", merges, round(legacy_merge_s, 3),
        round(arena_merge_s, 3), round(legacy_merge_s / arena_merge_s, 2),
    )
    arena_table.add_row(
        "window subtract", subtracts, round(legacy_sub_s, 3),
        round(arena_sub_s, 3), round(legacy_sub_s / arena_sub_s, 2),
    )
    arena_table.add_row(
        "merge+subtract total", merges + subtracts, round(legacy_total, 3),
        round(arena_total, 3), round(speedup, 2),
    )
    arena_table.add_row(
        "dump_sketch", 1, round(legacy_dump_s, 4), round(arena_dump_s, 4),
        round(legacy_dump_s / arena_dump_s, 2),
    )

    write_bench_json(
        "arena",
        rows=[
            {"phase": "merge", "ops": merges, "legacy_s": legacy_merge_s,
             "arena_s": arena_merge_s},
            {"phase": "subtract", "ops": subtracts,
             "legacy_s": legacy_sub_s, "arena_s": arena_sub_s},
            {"phase": "dump", "ops": 1, "legacy_s": legacy_dump_s,
             "arena_s": arena_dump_s,
             "payload_bytes_v1": len(v1_site[0]),
             "payload_bytes_v2": len(v2_site[0])},
        ],
        gates=[{
            "name": "merge_subtract_speedup",
            "value": round(speedup, 3),
            "threshold": GATE,
            "enforced": True,
            "pass": bool(speedup >= GATE),
        }],
        quick=quick,
    )
    assert speedup >= GATE, (
        f"arena merge+subtract only {speedup:.2f}x faster than the "
        f"pre-arena pipeline at K={SITES}×{EPOCHS} epochs (gate: {GATE}x)"
    )
    if not quick:
        benchmark.pedantic(arena_windows, rounds=3, iterations=1)
    else:
        benchmark.pedantic(
            lambda: subtract_sketch_bytes(load_sketch(v2_cum[-1]), v2_cum[0]),
            rounds=1, iterations=1,
        )
