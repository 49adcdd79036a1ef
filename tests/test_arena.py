"""Contiguous sketch-state arena: layout, algebra, and the codec payload.

The arena contract has three legs:

* **layout** — every cell bank of every registry sketch class views one
  contiguous field-major ``int64`` buffer, in the exact order the
  serialisation codec walks the banks;
* **algebra** — whole-buffer ``merge``/``subtract``/``negate`` are
  cell-for-cell identical to the per-bank ops they replaced, including
  after banks are re-adopted between nested and top-level arenas;
* **codec** — a codec v2 payload is the arena buffer: the field-major
  concatenation of every bank's ``phi``/``iota``/``fp1``/``fp2``, dense
  or as sparse ``(position, value)`` pairs.
"""

from __future__ import annotations

import numpy as np
import pytest
from blob_utils import (
    edit_packed,
    repack_v2,
    sketch_fields_v2,
    sparse_zlib_sketch_v2,
    unpack_v2,
)

from repro.core import (
    BipartitenessSketch,
    CutEdgesSketch,
    EdgeConnectivitySketch,
    MinCutSketch,
    MSTWeightSketch,
    SimpleSparsification,
    Sparsification,
    SpanningForestSketch,
    SubgraphSketch,
    WeightedSparsification,
)
from repro.errors import SketchCompatibilityError
from repro.hashing import HashSource, MERSENNE31
from repro.sketch import (
    CellBank,
    SketchArena,
    dump_sketch,
    ensure_arena,
    load_sketch,
    merge_sketch_bytes,
    subtract_sketch_bytes,
)
from repro.streams import (
    churn_stream,
    erdos_renyi_graph,
    random_weighted_edges,
    weighted_churn_stream,
)

N = 10

#: name → builder(seed); small parameterisations of all 10 registry classes.
BUILDERS = {
    "spanning_forest": lambda s: SpanningForestSketch(N, HashSource(s)),
    "edge_connectivity": lambda s: EdgeConnectivitySketch(N, 2, HashSource(s)),
    "mincut": lambda s: MinCutSketch(
        N, epsilon=0.5, source=HashSource(s), c_k=0.3
    ),
    "simple_sparsification": lambda s: SimpleSparsification(
        N, epsilon=0.5, source=HashSource(s), c_k=0.1
    ),
    "sparsification": lambda s: Sparsification(
        N, epsilon=0.5, source=HashSource(s), c_k=0.1, c_rough=0.1, levels=3
    ),
    "weighted_sparsification": lambda s: WeightedSparsification(
        N, max_weight=3, epsilon=0.5, source=HashSource(s), c_k=0.1
    ),
    "subgraph_count": lambda s: SubgraphSketch(
        N, order=3, samplers=4, source=HashSource(s)
    ),
    "cut_edges": lambda s: CutEdgesSketch(N, k=3, source=HashSource(s)),
    "bipartiteness": lambda s: BipartitenessSketch(N, HashSource(s)),
    "mst_weight": lambda s: MSTWeightSketch(
        N, max_weight=3, source=HashSource(s)
    ),
}

WEIGHTED = {"weighted_sparsification", "mst_weight"}


@pytest.fixture(scope="module")
def stream():
    return churn_stream(N, erdos_renyi_graph(N, 0.4, seed=71), seed=72)


@pytest.fixture(scope="module")
def weighted_stream():
    return weighted_churn_stream(
        N, random_weighted_edges(N, 0.4, 3, seed=73), seed=74
    )


def _consumed(name: str, seed: int, stream, weighted_stream):
    sketch = BUILDERS[name](seed)
    sketch.consume_batch(
        (weighted_stream if name in WEIGHTED else stream).as_batch()
    )
    return sketch


def _legacy_combine(a, b, op: str) -> None:
    """The pre-arena path: loop the codec bank list, 4 numpy ops per bank."""
    for mine, theirs in zip(a._cell_banks(), b._cell_banks()):
        getattr(mine, op)(theirs)


class TestLayout:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_banks_view_one_contiguous_buffer(self, name):
        sketch = BUILDERS[name](17)
        arena = ensure_arena(sketch)
        banks = sketch._cell_banks()
        cells = sum(b.size for b in banks)
        assert arena.buffer.size == 4 * cells
        assert arena.buffer.dtype == np.int64
        offset = 0
        for bank in banks:
            for f, field in enumerate((bank.phi, bank.iota, bank.fp1,
                                       bank.fp2)):
                assert field.base is arena.buffer
                start = f * cells + offset
                assert np.shares_memory(
                    field, arena.buffer[start:start + bank.size]
                )
            offset += bank.size

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_arena_is_cached(self, name):
        sketch = BUILDERS[name](18)
        assert ensure_arena(sketch) is ensure_arena(sketch)
        assert sketch.arena is sketch.arena

    def test_fresh_bank_is_already_contiguous(self):
        bank = CellBank(8, 100, HashSource(3))
        assert bank.phi.base is bank.iota.base is bank.fp1.base is bank.fp2.base
        assert bank.phi.base.size == 4 * 8

    def test_single_cell_bank_adoption(self):
        bank = CellBank(1, 5, HashSource(4))
        bank.scatter(np.array([0]), np.array([3]), np.array([2]))
        before = (bank.phi.copy(), bank.iota.copy(),
                  bank.fp1.copy(), bank.fp2.copy())
        arena = SketchArena.adopt([bank])
        assert arena.cells == 1 and arena.buffer.size == 4
        for got, want in zip((bank.phi, bank.iota, bank.fp1, bank.fp2),
                             before):
            assert np.array_equal(got, want)
        twin = CellBank(1, 5, HashSource(4))
        twin.scatter(np.array([0]), np.array([3]), np.array([2]))
        arena.merge(SketchArena.adopt([twin]))
        assert bank.phi[0] == 2 * before[0][0]

    def test_adopt_refuses_empty_bank_list(self):
        with pytest.raises(ValueError, match="at least one"):
            SketchArena.adopt([])


class TestAlgebraEquivalence:
    """Arena ops are byte-identical to the per-bank path they replaced."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("op", ["merge", "subtract"])
    def test_combine_matches_legacy(self, name, op, stream, weighted_stream):
        arena_side = _consumed(name, 21, stream, weighted_stream)
        arena_other = _consumed(name, 21, stream, weighted_stream)
        legacy_side = _consumed(name, 21, stream, weighted_stream)
        legacy_other = _consumed(name, 21, stream, weighted_stream)
        getattr(arena_side, op)(arena_other)      # whole-buffer path
        _legacy_combine(legacy_side, legacy_other, op)  # per-bank path
        assert dump_sketch(arena_side) == dump_sketch(legacy_side)
        if op == "merge":
            assert dump_sketch(arena_side) != dump_sketch(arena_other)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_negate_matches_legacy(self, name, stream, weighted_stream):
        a = _consumed(name, 22, stream, weighted_stream)
        b = _consumed(name, 22, stream, weighted_stream)
        a.negate()
        for bank in b._cell_banks():
            np.negative(bank.phi, out=bank.phi)
            np.negative(bank.iota, out=bank.iota)
            bank.fp1[:] = (MERSENNE31 - bank.fp1) % MERSENNE31
            bank.fp2[:] = (MERSENNE31 - bank.fp2) % MERSENNE31
        assert dump_sketch(a) == dump_sketch(b)
        a.negate()
        assert dump_sketch(a) == dump_sketch(
            _consumed(name, 22, stream, weighted_stream)
        )

    def test_nested_then_top_level_readoption(self, stream):
        """Using a nested forest directly, then the parent, stays exact."""
        a = EdgeConnectivitySketch(N, 2, HashSource(31)).consume_batch(stream.as_batch())
        b = EdgeConnectivitySketch(N, 2, HashSource(31)).consume_batch(stream.as_batch())
        ref = EdgeConnectivitySketch(N, 2, HashSource(31)).consume_batch(stream.as_batch())

        parent_arena = ensure_arena(a)
        # Nested use: merge the sub-forests directly (steals their banks
        # out of the parent's buffer)...
        for mine, theirs in zip(a.groups, b.groups):
            mine.merge(theirs)
        assert not parent_arena.attached()
        # ...then top-level use again: the parent re-adopts and the
        # state is exactly a doubled reference.
        a.subtract(ref)
        assert dump_sketch(a) == dump_sketch(ref)

    def test_empty_sketches_stay_empty_under_algebra(self):
        a = BUILDERS["mincut"](41)
        b = BUILDERS["mincut"](41)
        empty = dump_sketch(a)
        a.merge(b)
        a.subtract(b)
        a.negate()
        assert dump_sketch(a) == empty
        assert not ensure_arena(a).buffer.any()


class TestEmptyAndEdgeCases:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_empty_sketch_round_trips(self, name):
        sketch = BUILDERS[name](51)
        blob = dump_sketch(sketch)
        restored = load_sketch(blob, like=sketch)
        assert dump_sketch(restored) == blob
        assert not ensure_arena(restored).buffer.any()

    def test_merge_bytes_into_empty_equals_load(self, stream):
        consumed = SpanningForestSketch(N, HashSource(52)).consume_batch(stream.as_batch())
        blob = dump_sketch(consumed)
        empty = SpanningForestSketch(N, HashSource(52))
        merge_sketch_bytes(empty, blob)
        assert dump_sketch(empty) == blob

    def test_subtract_bytes_inverts_merge_bytes(self, stream):
        base = SpanningForestSketch(N, HashSource(53)).consume_batch(stream.as_batch())
        reference = dump_sketch(base)
        other = dump_sketch(SpanningForestSketch(N, HashSource(53)).consume_batch(
            stream.as_batch()
        ))
        merge_sketch_bytes(base, other)
        subtract_sketch_bytes(base, other)
        assert dump_sketch(base) == reference

    def test_combine_bytes_refuses_mismatches(self, stream):
        ours = SpanningForestSketch(N, HashSource(54)).consume_batch(stream.as_batch())
        stranger = dump_sketch(
            SpanningForestSketch(N, HashSource(55)).consume_batch(stream.as_batch())
        )
        with pytest.raises(SketchCompatibilityError, match="seed"):
            merge_sketch_bytes(ours, stranger)
        cut = dump_sketch(CutEdgesSketch(N, k=3, source=HashSource(54)))
        with pytest.raises(SketchCompatibilityError):
            merge_sketch_bytes(ours, cut)
        with pytest.raises(ValueError):
            subtract_sketch_bytes(ours, b"junk bytes, not a blob")


class TestSparseEncoding:
    """Lightly-loaded sketches ship their nonzero entries packed
    (``packed-zlib``); blobs in the int64 ``sparse-zlib`` encoding
    written before it still load, combine and refuse tampering."""

    def test_empty_and_shard_sketches_dump_sparse(self, stream):
        empty = dump_sketch(SpanningForestSketch(N, HashSource(81)))
        header, _payload = unpack_v2(empty)
        assert header["encoding"] == "packed-zlib"
        assert header["nnz"] == 0
        old = sparse_zlib_sketch_v2(empty)
        header, _payload = unpack_v2(old)
        assert header["encoding"] == "sparse-zlib"
        assert header["nnz"] == 0
        assert dump_sketch(load_sketch(old)) == empty

    def test_sparse_blob_round_trips(self, stream):
        # A couple of tokens keep the buffer sparse.
        sketch = SpanningForestSketch(N, HashSource(82))
        sketch.consume_batch(stream.as_batch().slice(0, 3))
        blob = dump_sketch(sketch)
        header, _ = unpack_v2(blob)
        assert header["encoding"] == "packed-zlib"
        for data in (blob, sparse_zlib_sketch_v2(blob)):
            restored = load_sketch(data, like=sketch)
            assert dump_sketch(restored) == blob
            for mine, theirs in zip(sketch._cell_banks(),
                                    restored._cell_banks()):
                assert np.array_equal(mine.phi, theirs.phi)
                assert np.array_equal(mine.fp1, theirs.fp1)

    def test_sparse_merge_bytes_equals_dense_merge(self, stream):
        shard = stream.as_batch().slice(0, 4)
        consumed = SpanningForestSketch(N, HashSource(83))
        consumed.consume_batch(shard)
        blob = dump_sketch(consumed)
        assert unpack_v2(blob)[0]["encoding"] == "packed-zlib"

        for data in (blob, sparse_zlib_sketch_v2(blob)):
            via_bytes = SpanningForestSketch(N, HashSource(83)).consume_batch(stream.as_batch())
            merge_sketch_bytes(via_bytes, data)
            via_object = SpanningForestSketch(N, HashSource(83)).consume_batch(stream.as_batch())
            via_object.merge(load_sketch(data))
            assert dump_sketch(via_bytes) == dump_sketch(via_object)
            subtract_sketch_bytes(via_bytes, data)
            assert dump_sketch(via_bytes) == dump_sketch(
                SpanningForestSketch(N, HashSource(83)).consume_batch(stream.as_batch())
            )

    def test_tampered_sparse_payloads_rejected(self, stream):
        sketch = SpanningForestSketch(N, HashSource(84))
        sketch.consume_batch(stream.as_batch().slice(0, 3))
        blob = dump_sketch(sketch)
        old = sparse_zlib_sketch_v2(blob)

        def reorder(header, payload):
            raw = np.frombuffer(bytes(payload), dtype="<i8").copy()
            nnz = header["nnz"]
            raw[:nnz] = raw[:nnz][::-1]  # descending positions
            payload[:] = raw.astype("<i8").tobytes()

        def repeat(gaps, _counts, _fps, _size):
            gaps[2] += gaps[1]
            gaps[1] = 0  # the second position repeats the first

        for data, mutate in ((old, reorder), (blob, edit_packed(repeat))):
            with pytest.raises(ValueError, match="strictly increasing"):
                load_sketch(repack_v2(data, mutate))

        def out_of_range(header, payload):
            raw = np.frombuffer(bytes(payload), dtype="<i8").copy()
            raw[header["nnz"] - 1] = 4 * int(sum(header["cells"]))
            payload[:] = raw.astype("<i8").tobytes()

        def past_the_end(gaps, _counts, _fps, size):
            gaps[-1] += size - int(gaps.sum())

        for data, mutate in (
            (old, out_of_range), (blob, edit_packed(past_the_end)),
        ):
            with pytest.raises(ValueError, match="outside the buffer"):
                load_sketch(repack_v2(data, mutate))

        def bad_nnz(header, _payload):
            header["nnz"] = header["nnz"] + 1

        for data in (old, blob):
            with pytest.raises(ValueError, match="mis-sized"):
                load_sketch(repack_v2(data, bad_nnz))

            with pytest.raises(ValueError, match="mis-sized"):
                merge_sketch_bytes(
                    SpanningForestSketch(N, HashSource(84)),
                    repack_v2(data, bad_nnz),
                )


class TestCodecMigration:
    """The v2 payload holds the cells in the order of the old v1 arrays."""

    def test_v2_payload_matches_v1_field_concatenation(self, stream):
        sketch = EdgeConnectivitySketch(N, 2, HashSource(61)).consume_batch(stream.as_batch())
        blob = dump_sketch(sketch)
        _header, fields = sketch_fields_v2(blob)
        banks = sketch._cell_banks()
        for name in ("phi", "iota", "fp1", "fp2"):
            concat = np.concatenate([getattr(b, name) for b in banks])
            assert np.array_equal(fields[name], concat), name

