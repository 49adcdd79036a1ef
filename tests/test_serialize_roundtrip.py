"""Dump/load round trips for every registry-serialisable sketch.

Two layers of guarantees:

* **fidelity** — a loaded sketch answers every query identically to the
  original (the cell arrays, parameters, and hash seeds all survive);
* **refusal** — wrong kinds, corrupted bytes, tampered parameters, and
  mismatched seeds/params against a local reference sketch are rejected
  with clear errors, never silently mis-loaded.
"""

from __future__ import annotations

import pytest

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
from repro.hashing import HashSource
from repro.sketch import (
    dump_sketch,
    load_sketch,
    merge_sketch_bytes,
    peek_sketch_meta,
    serializable_sketch_kinds,
    sketch_kind_of,
    subtract_sketch_bytes,
)
from repro.streams import (
    churn_stream,
    erdos_renyi_graph,
    random_weighted_edges,
    weighted_churn_stream,
)

N = 12


@pytest.fixture(scope="module")
def stream():
    return churn_stream(N, erdos_renyi_graph(N, 0.4, seed=11), seed=12)


@pytest.fixture(scope="module")
def weighted_stream():
    return weighted_churn_stream(
        N, random_weighted_edges(N, 0.4, 3, seed=13), seed=14
    )


#: kind → (builder(seed), query answered after round trip, weighted?).
CASES = {
    "spanning_forest": (
        lambda s: SpanningForestSketch(N, HashSource(s)),
        lambda sk: sorted(map(sorted, sk.connected_components())),
        False,
    ),
    "edge_connectivity": (
        lambda s: EdgeConnectivitySketch(N, 3, HashSource(s)),
        lambda sk: sorted(sk.witness().weighted_edges()),
        False,
    ),
    "mincut": (
        lambda s: MinCutSketch(N, epsilon=0.5, source=HashSource(s), c_k=0.4),
        lambda sk: (sk.estimate().value, sk.estimate().stop_level),
        False,
    ),
    "simple_sparsification": (
        lambda s: SimpleSparsification(
            N, epsilon=0.5, source=HashSource(s), c_k=0.15
        ),
        lambda sk: sorted(sk.sparsifier().graph.weighted_edges()),
        False,
    ),
    "sparsification": (
        lambda s: Sparsification(
            N, epsilon=0.5, source=HashSource(s), c_k=0.3, c_rough=0.05
        ),
        lambda sk: sorted(sk.sparsifier().graph.weighted_edges()),
        False,
    ),
    "weighted_sparsification": (
        lambda s: WeightedSparsification(
            N, max_weight=3, epsilon=0.5, source=HashSource(s), c_k=0.15
        ),
        lambda sk: sorted(sk.sparsifier().graph.weighted_edges()),
        True,
    ),
    "subgraph_count": (
        lambda s: SubgraphSketch(N, order=3, samplers=8, source=HashSource(s)),
        lambda sk: sk.raw_samples(),
        False,
    ),
    "cut_edges": (
        lambda s: CutEdgesSketch(N, k=16, source=HashSource(s)),
        lambda sk: sorted(sk.crossing_edges({0}).items()),
        False,
    ),
    "bipartiteness": (
        lambda s: BipartitenessSketch(N, HashSource(s)),
        lambda sk: sk.is_bipartite(),
        False,
    ),
    "mst_weight": (
        lambda s: MSTWeightSketch(N, max_weight=3, source=HashSource(s)),
        lambda sk: (sk.estimate(), sk.component_counts()),
        True,
    ),
}


def _forest(seed: int = 3005) -> SpanningForestSketch:
    return SpanningForestSketch(N, HashSource(seed))


def _v1_forest_blob() -> bytes:
    from blob_utils import pack_v1_sketch

    return pack_v1_sketch(dump_sketch(_forest()))


#: Bytes that are not a codec v2 blob, by name (built lazily).
GARBAGE = {
    "foreign": lambda: b"these are not the bytes you are looking for",
    "codec-v1": _v1_forest_blob,
    "empty": lambda: b"",
    "bare-prefix": lambda: b"RSKB2\n",
}

#: Every public reader of sketch bytes, as ``data -> result``.
READERS = {
    "load_sketch": load_sketch,
    "merge_sketch_bytes": lambda data: merge_sketch_bytes(_forest(), data),
    "subtract_sketch_bytes": lambda data: subtract_sketch_bytes(
        _forest(), data
    ),
    "peek_sketch_meta": peek_sketch_meta,
}


class TestRoundTrip:
    def test_registry_covers_all_cases(self):
        assert set(serializable_sketch_kinds()) == set(CASES)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_queries_identical_after_round_trip(
        self, kind, stream, weighted_stream
    ):
        build, query, weighted = CASES[kind]
        st = weighted_stream if weighted else stream
        original = build(2000).consume_batch(st.as_batch())
        blob = dump_sketch(original)
        restored = load_sketch(blob)
        assert type(restored) is type(original)
        assert sketch_kind_of(restored) == kind
        assert query(restored) == query(original)

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_restored_sketch_stays_linear(self, kind, stream, weighted_stream):
        """A loaded sketch keeps consuming and merging like the original."""
        build, query, weighted = CASES[kind]
        st = weighted_stream if weighted else stream
        half = len(st) // 2
        first = type(st)(st.n, list(st)[:half])
        second = type(st)(st.n, list(st)[half:])
        whole = build(2001).consume_batch(st.as_batch())
        resumed = load_sketch(dump_sketch(build(2001).consume_batch(first.as_batch())))
        resumed.merge(build(2001).consume_batch(second.as_batch()))
        assert dump_sketch(resumed) == dump_sketch(whole)

    def test_meta_peek(self, stream):
        blob = dump_sketch(
            SpanningForestSketch(N, HashSource(2002)).consume_batch(stream.as_batch())
        )
        meta = peek_sketch_meta(blob)
        assert meta["__kind__"] == "sketch:spanning_forest"
        assert meta["n"] == N
        assert meta["seed"] == 2002


class TestRefusals:
    def test_unregistered_type_rejected(self):
        with pytest.raises(TypeError, match="no registered sketch codec"):
            dump_sketch(object())

    def test_missing_seed_rejected(self, stream):
        sk = SpanningForestSketch(N, HashSource(3000))
        sk.source_seed = None
        with pytest.raises(ValueError, match="no recorded seed"):
            dump_sketch(sk)
        assert peek_sketch_meta(dump_sketch(sk, seed=3000))["seed"] == 3000

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("garbage", sorted(GARBAGE))
    def test_garbage_bytes_rejected(self, reader, garbage):
        """Foreign bytes, codec v1 blobs and truncated prefixes refuse."""
        with pytest.raises(ValueError, match="not a repro sketch blob"):
            READERS[reader](GARBAGE[garbage]())

    def test_corrupted_blob_rejected(self):
        blob = bytearray(dump_sketch(SpanningForestSketch(N, HashSource(3002))))
        blob[len(blob) // 2] ^= 0xFF  # flip a payload byte
        with pytest.raises(ValueError):
            load_sketch(bytes(blob))

    def test_corrupted_magic_rejected(self):
        from blob_utils import repack_v2

        blob = dump_sketch(SpanningForestSketch(N, HashSource(3002)))

        def bad_magic(header, _payload):
            header["__magic__"] = "wrong-magic"

        with pytest.raises(ValueError, match="bad magic 'wrong-magic'"):
            load_sketch(repack_v2(blob, bad_magic))
        assert isinstance(load_sketch(blob), SpanningForestSketch)

    def test_mismatched_seed_refused_against_reference(self, stream):
        ours = SpanningForestSketch(N, HashSource(41)).consume_batch(stream.as_batch())
        theirs = SpanningForestSketch(N, HashSource(42)).consume_batch(stream.as_batch())
        blob = dump_sketch(theirs)
        with pytest.raises(SketchCompatibilityError, match="seed"):
            load_sketch(blob, like=ours)

    def test_mismatched_params_refused_against_reference(self, stream):
        ours = EdgeConnectivitySketch(N, 3, HashSource(43))
        theirs = EdgeConnectivitySketch(N, 4, HashSource(43))
        with pytest.raises(SketchCompatibilityError, match="k:"):
            load_sketch(dump_sketch(theirs), like=ours)

    def test_mismatched_type_refused_against_reference(self, stream):
        forest = SpanningForestSketch(N, HashSource(44))
        cut = CutEdgesSketch(N, k=4, source=HashSource(44))
        with pytest.raises(SketchCompatibilityError, match="CutEdgesSketch"):
            load_sketch(dump_sketch(forest), like=cut)

    def test_tampered_fingerprint_values_rejected(self):
        """Out-of-field fingerprint values refuse to load."""
        import struct

        from blob_utils import densify_sketch_v2, repack_v2

        from repro.hashing import MERSENNE31

        blob = dump_sketch(SpanningForestSketch(N, HashSource(3004)))

        def poison_v2(header, payload):
            # First fp1 cell sits after the phi and iota halves.
            offset = 2 * int(sum(header["cells"])) * 8
            struct.pack_into("<q", payload, offset, MERSENNE31)

        with pytest.raises(ValueError, match="outside"):
            load_sketch(repack_v2(densify_sketch_v2(blob), poison_v2))

    def test_tampered_cells_meta_rejected(self):
        """A blob whose cell layout disagrees with its params refuses."""
        from blob_utils import repack_v2

        blob = dump_sketch(SpanningForestSketch(N, HashSource(3003)))

        def lie(header, _payload):
            header["cells"] = [1]  # lie about the layout

        with pytest.raises(ValueError, match="cell layout"):
            load_sketch(repack_v2(blob, lie))
