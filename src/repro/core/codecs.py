"""Serialisation codecs for the high-level sketch classes.

Registers a :class:`~repro.sketch.serialize.SketchCodec` for every
linear sketch a site might ship to a coordinator (Section 1.1): the
spanning-forest / k-EDGECONNECT substrates, the MINCUT and sparsifier
hierarchies, the weighted and subgraph-count sketches, and the
companion-property sketches.  Each codec names the kind and the class;
the class names its parameters (``_params()``) and the bank order of
the payload (``_cell_banks()``), and the codec rebuilds an empty,
identically-seeded twin through the class constructor from the
header fields that are constructor keywords.

The adaptive spanner builders (:class:`BaswanaSenSpanner`,
:class:`RecurseConnectSpanner`) are deliberately absent: they are
*drivers* holding no persistent linear state between batches — their
per-batch site banks merge straight into the coordinator's instead (see
:meth:`BaswanaSenSpanner.build_sharded`).
"""

from __future__ import annotations

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


register_sketch_codec(SketchCodec(kind="spanning_forest", cls=SpanningForestSketch))
register_sketch_codec(SketchCodec(kind="edge_connectivity", cls=EdgeConnectivitySketch))
register_sketch_codec(SketchCodec(kind="mincut", cls=MinCutSketch))
register_sketch_codec(SketchCodec(kind="simple_sparsification", cls=SimpleSparsification))
register_sketch_codec(SketchCodec(kind="sparsification", cls=Sparsification))
register_sketch_codec(SketchCodec(kind="weighted_sparsification", cls=WeightedSparsification))
register_sketch_codec(SketchCodec(kind="subgraph_count", cls=SubgraphSketch))
register_sketch_codec(SketchCodec(kind="cut_edges", cls=CutEdgesSketch))
register_sketch_codec(SketchCodec(kind="bipartiteness", cls=BipartitenessSketch))
register_sketch_codec(SketchCodec(kind="mst_weight", cls=MSTWeightSketch))
