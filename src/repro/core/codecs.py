"""Serialisation codecs for the high-level sketch classes.

Registers a :class:`~repro.sketch.serialize.SketchCodec` for every
linear sketch a site might ship to a coordinator (Section 1.1): the
spanning-forest / k-EDGECONNECT substrates, the MINCUT and sparsifier
hierarchies, the weighted and subgraph-count sketches, and the
companion-property sketches.  Each codec records the constructor
parameters needed to rebuild an identically-seeded empty twin, plus the
deterministic order of the constituent cell banks whose arrays form the
payload.

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


def _banks(sketch):
    """Codec bank order == the class's own arena order (one source of truth)."""
    return sketch._cell_banks()


def _grid_shape(sketch) -> dict:
    """(rows, buckets) of the forest sketches inside a hierarchy."""
    forest = sketch.instances[0].groups[0]
    return {"rounds": forest.rounds, "rows": forest.rows,
            "buckets": forest.buckets}


register_sketch_codec(SketchCodec(
    kind="spanning_forest",
    cls=SpanningForestSketch,
    params=lambda s: {"n": s.n, "rounds": s.rounds, "rows": s.rows,
                      "buckets": s.buckets},
    construct=lambda m: SpanningForestSketch(
        m["n"], HashSource(m["seed"]), rounds=m["rounds"], rows=m["rows"],
        buckets=m["buckets"],
    ),
    banks=_banks,
))

register_sketch_codec(SketchCodec(
    kind="edge_connectivity",
    cls=EdgeConnectivitySketch,
    params=lambda s: {"n": s.n, "k": s.k, "rounds": s.groups[0].rounds,
                      "rows": s.groups[0].rows,
                      "buckets": s.groups[0].buckets},
    construct=lambda m: EdgeConnectivitySketch(
        m["n"], m["k"], HashSource(m["seed"]), rounds=m["rounds"],
        rows=m["rows"], buckets=m["buckets"],
    ),
    banks=_banks,
))

register_sketch_codec(SketchCodec(
    kind="mincut",
    cls=MinCutSketch,
    params=lambda s: {"n": s.n, "epsilon": s.epsilon, "c_k": s.c_k,
                      "k": s.k, "levels": s.levels, **_grid_shape(s)},
    construct=lambda m: _check_derived(MinCutSketch(
        m["n"], epsilon=m["epsilon"], source=HashSource(m["seed"]),
        c_k=m["c_k"], levels=m["levels"], rounds=m["rounds"],
        rows=m["rows"], buckets=m["buckets"],
    ), m, "k"),
    banks=_banks,
))

register_sketch_codec(SketchCodec(
    kind="simple_sparsification",
    cls=SimpleSparsification,
    params=lambda s: {"n": s.n, "epsilon": s.epsilon, "c_k": s.c_k,
                      "k": s.k, "levels": s.levels,
                      "weight_scale": s.weight_scale, **_grid_shape(s)},
    construct=lambda m: _check_derived(SimpleSparsification(
        m["n"], epsilon=m["epsilon"], source=HashSource(m["seed"]),
        c_k=m["c_k"], levels=m["levels"], weight_scale=m["weight_scale"],
        rounds=m["rounds"], rows=m["rows"], buckets=m["buckets"],
    ), m, "k"),
    banks=_banks,
))

register_sketch_codec(SketchCodec(
    kind="sparsification",
    cls=Sparsification,
    params=lambda s: {"n": s.n, "epsilon": s.epsilon, "c_k": s.c_k,
                      "c_rough": s.c_rough, "c_level": s.c_level,
                      "k": s.k, "levels": s.levels,
                      **_grid_shape(s.rough)},
    construct=lambda m: _check_derived(Sparsification(
        m["n"], epsilon=m["epsilon"], source=HashSource(m["seed"]),
        c_k=m["c_k"], c_rough=m["c_rough"], c_level=m["c_level"],
        levels=m["levels"], rounds=m["rounds"], rows=m["rows"],
        buckets=m["buckets"],
    ), m, "k"),
    banks=_banks,
))

register_sketch_codec(SketchCodec(
    kind="weighted_sparsification",
    cls=WeightedSparsification,
    params=lambda s: {"n": s.n, "max_weight": s.max_weight,
                      "epsilon": s.epsilon, "c_k": s.c_k,
                      **_grid_shape(s.classes[0])},
    construct=lambda m: WeightedSparsification(
        m["n"], max_weight=m["max_weight"], epsilon=m["epsilon"],
        source=HashSource(m["seed"]), c_k=m["c_k"], rounds=m["rounds"],
        rows=m["rows"], buckets=m["buckets"],
    ),
    banks=_banks,
))

register_sketch_codec(SketchCodec(
    kind="subgraph_count",
    cls=SubgraphSketch,
    params=lambda s: {"n": s.n, "order": s.order, "samplers": s.samplers,
                      "rows": s.bank.rows, "buckets": s.bank.buckets},
    construct=lambda m: SubgraphSketch(
        m["n"], order=m["order"], samplers=m["samplers"],
        source=HashSource(m["seed"]), rows=m["rows"], buckets=m["buckets"],
    ),
    banks=_banks,
))

register_sketch_codec(SketchCodec(
    kind="cut_edges",
    cls=CutEdgesSketch,
    params=lambda s: {"n": s.n, "k": s.k},
    construct=lambda m: CutEdgesSketch(
        m["n"], m["k"], source=HashSource(m["seed"])
    ),
    banks=_banks,
))

register_sketch_codec(SketchCodec(
    kind="bipartiteness",
    cls=BipartitenessSketch,
    params=lambda s: {"n": s.n, "rounds": s.ctor_rounds},
    construct=lambda m: BipartitenessSketch(
        m["n"], HashSource(m["seed"]), rounds=m["rounds"]
    ),
    banks=_banks,
))

register_sketch_codec(SketchCodec(
    kind="mst_weight",
    cls=MSTWeightSketch,
    params=lambda s: {"n": s.n, "max_weight": s.max_weight,
                      "epsilon": s.epsilon, "rounds": s.ctor_rounds},
    construct=lambda m: MSTWeightSketch(
        m["n"], max_weight=m["max_weight"], epsilon=m["epsilon"],
        source=HashSource(m["seed"]), rounds=m["rounds"],
    ),
    banks=_banks,
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
