"""Serialisation codecs for the high-level sketch classes.

Registers a :class:`~repro.sketch.serialize.SketchCodec` for every
linear sketch a site might ship to a coordinator (Section 1.1): the
spanning-forest / k-EDGECONNECT substrates, the MINCUT and sparsifier
hierarchies, the weighted and subgraph-count sketches, and the
companion-property sketches.  Each codec names the kind and rebuilds
an identically-seeded empty twin from the stored parameters; the class
itself names those parameters (``_params()``) and the bank order of
the payload (``_cell_banks()``).

The adaptive spanner builders (:class:`BaswanaSenSpanner`,
:class:`RecurseConnectSpanner`) are deliberately absent: they are
*drivers* holding no persistent linear state between batches — their
per-batch site banks merge straight into the coordinator's instead (see
:meth:`BaswanaSenSpanner.build_sharded`).
"""

from __future__ import annotations

from ..hashing import HashSource
from ..sketch.serialize import SketchCodec, register_sketch_codec
from .cut_queries import CutEdgesSketch
from .edge_connect import EdgeConnectivitySketch
from .forest import SpanningForestSketch
from .mincut import MinCutSketch
from .properties import BipartitenessSketch, MSTWeightSketch
from .sparsify import Sparsification
from .sparsify_simple import SimpleSparsification
from .subgraph_count import SubgraphSketch
from .weighted import WeightedSparsification

__all__ = []  # import-for-side-effect module


register_sketch_codec(SketchCodec(
    kind="spanning_forest",
    cls=SpanningForestSketch,
    construct=lambda m: SpanningForestSketch(
        m["n"], HashSource(m["seed"]), rounds=m["rounds"], rows=m["rows"],
        buckets=m["buckets"],
    ),
))

register_sketch_codec(SketchCodec(
    kind="edge_connectivity",
    cls=EdgeConnectivitySketch,
    construct=lambda m: EdgeConnectivitySketch(
        m["n"], m["k"], HashSource(m["seed"]), rounds=m["rounds"],
        rows=m["rows"], buckets=m["buckets"],
    ),
))

register_sketch_codec(SketchCodec(
    kind="mincut",
    cls=MinCutSketch,
    construct=lambda m: _check_derived(MinCutSketch(
        m["n"], epsilon=m["epsilon"], source=HashSource(m["seed"]),
        c_k=m["c_k"], levels=m["levels"], rounds=m["rounds"],
        rows=m["rows"], buckets=m["buckets"],
    ), m, "k"),
))

register_sketch_codec(SketchCodec(
    kind="simple_sparsification",
    cls=SimpleSparsification,
    construct=lambda m: _check_derived(SimpleSparsification(
        m["n"], epsilon=m["epsilon"], source=HashSource(m["seed"]),
        c_k=m["c_k"], levels=m["levels"], weight_scale=m["weight_scale"],
        rounds=m["rounds"], rows=m["rows"], buckets=m["buckets"],
    ), m, "k"),
))

register_sketch_codec(SketchCodec(
    kind="sparsification",
    cls=Sparsification,
    construct=lambda m: _check_derived(Sparsification(
        m["n"], epsilon=m["epsilon"], source=HashSource(m["seed"]),
        c_k=m["c_k"], c_rough=m["c_rough"], c_level=m["c_level"],
        levels=m["levels"], rounds=m["rounds"], rows=m["rows"],
        buckets=m["buckets"],
    ), m, "k"),
))

register_sketch_codec(SketchCodec(
    kind="weighted_sparsification",
    cls=WeightedSparsification,
    construct=lambda m: WeightedSparsification(
        m["n"], max_weight=m["max_weight"], epsilon=m["epsilon"],
        source=HashSource(m["seed"]), c_k=m["c_k"], rounds=m["rounds"],
        rows=m["rows"], buckets=m["buckets"],
    ),
))

register_sketch_codec(SketchCodec(
    kind="subgraph_count",
    cls=SubgraphSketch,
    construct=lambda m: SubgraphSketch(
        m["n"], order=m["order"], samplers=m["samplers"],
        source=HashSource(m["seed"]), rows=m["rows"], buckets=m["buckets"],
    ),
))

register_sketch_codec(SketchCodec(
    kind="cut_edges",
    cls=CutEdgesSketch,
    construct=lambda m: CutEdgesSketch(
        m["n"], m["k"], source=HashSource(m["seed"])
    ),
))

register_sketch_codec(SketchCodec(
    kind="bipartiteness",
    cls=BipartitenessSketch,
    construct=lambda m: BipartitenessSketch(
        m["n"], HashSource(m["seed"]), rounds=m["rounds"]
    ),
))

register_sketch_codec(SketchCodec(
    kind="mst_weight",
    cls=MSTWeightSketch,
    construct=lambda m: MSTWeightSketch(
        m["n"], max_weight=m["max_weight"], epsilon=m["epsilon"],
        source=HashSource(m["seed"]), rounds=m["rounds"],
    ),
))


def _check_derived(sketch, meta: dict, *fields: str):
    """Refuse blobs whose stored derived values don't reconstruct."""
    for field in fields:
        if getattr(sketch, field) != meta[field]:
            raise ValueError(
                f"stored {field}={meta[field]!r} does not match the value "
                f"{getattr(sketch, field)!r} derived from the blob's "
                f"parameters — corrupt or tampered blob"
            )
    return sketch
