"""Every merge-compatibility failure is a single, catchable type.

The satellite contract: no matter which sketch class or which mismatch
(shape, parameter, or seed), an incompatible ``merge`` raises
:class:`~repro.errors.SketchCompatibilityError` — which also subclasses
``ValueError``, so pre-existing callers keep working.
"""

from __future__ import annotations

import numpy as np
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
from repro.errors import ReproError, SketchCompatibilityError
from repro.hashing import HashSource
from repro.sketch import (
    CellBank,
    L0SamplerBank,
    SparseRecoveryBank,
    dump_sketch,
    load_sketch,
    merge_sketch_bytes,
    subtract_sketch_bytes,
)

SRC = HashSource(0xA11CE)


#: (name, a-builder, incompatible-b-builder) — one mismatch per class.
MISMATCH_CASES = [
    ("cell_bank_seed",
     lambda: CellBank(1, 50, SRC.derive(1)),
     lambda: CellBank(1, 50, SRC.derive(2))),
    ("l0_bank_domain",
     lambda: L0SamplerBank(1, 1, 100, SRC.derive(3)),
     lambda: L0SamplerBank(1, 1, 200, SRC.derive(3))),
    ("l0_bank_shape",
     lambda: L0SamplerBank(2, 3, 100, SRC.derive(4)),
     lambda: L0SamplerBank(2, 4, 100, SRC.derive(4))),
    ("l0_bank_seed",
     lambda: L0SamplerBank(2, 3, 100, SRC.derive(5)),
     lambda: L0SamplerBank(2, 3, 100, SRC.derive(6))),
    ("recovery_bank_k",
     lambda: SparseRecoveryBank(1, 1, 100, k=4, source=SRC.derive(7)),
     lambda: SparseRecoveryBank(1, 1, 100, k=5, source=SRC.derive(7))),
    ("recovery_bank_shape",
     lambda: SparseRecoveryBank(2, 3, 100, k=4, source=SRC.derive(8)),
     lambda: SparseRecoveryBank(3, 3, 100, k=4, source=SRC.derive(8))),
    ("recovery_bank_seed",
     lambda: SparseRecoveryBank(2, 3, 100, k=4, source=SRC.derive(9)),
     lambda: SparseRecoveryBank(2, 3, 100, k=4, source=SRC.derive(10))),
    ("spanning_forest",
     lambda: SpanningForestSketch(10, SRC.derive(11)),
     lambda: SpanningForestSketch(10, SRC.derive(11), rounds=3)),
    ("edge_connectivity",
     lambda: EdgeConnectivitySketch(10, 2, SRC.derive(12)),
     lambda: EdgeConnectivitySketch(10, 3, SRC.derive(12))),
    ("mincut",
     lambda: MinCutSketch(10, source=SRC.derive(13), c_k=1.0),
     lambda: MinCutSketch(10, source=SRC.derive(13), c_k=3.0)),
    ("simple_sparsification",
     lambda: SimpleSparsification(10, source=SRC.derive(14), c_k=0.2),
     lambda: SimpleSparsification(12, source=SRC.derive(14), c_k=0.2)),
    ("sparsification",
     lambda: Sparsification(10, source=SRC.derive(15), levels=4),
     lambda: Sparsification(10, source=SRC.derive(15), levels=5)),
    ("weighted_sparsification",
     lambda: WeightedSparsification(10, 4, source=SRC.derive(16)),
     lambda: WeightedSparsification(10, 8, source=SRC.derive(16))),
    ("subgraph_count",
     lambda: SubgraphSketch(10, samplers=4, source=SRC.derive(17)),
     lambda: SubgraphSketch(10, samplers=5, source=SRC.derive(17))),
    ("cut_edges",
     lambda: CutEdgesSketch(10, k=4, source=SRC.derive(18)),
     lambda: CutEdgesSketch(10, k=5, source=SRC.derive(18))),
    ("bipartiteness",
     lambda: BipartitenessSketch(10, SRC.derive(19)),
     lambda: BipartitenessSketch(11, SRC.derive(19))),
    ("mst_weight",
     lambda: MSTWeightSketch(10, max_weight=4, source=SRC.derive(20)),
     lambda: MSTWeightSketch(10, max_weight=6, source=SRC.derive(20))),
    # Only epsilon differs: k=13 and levels=8 on both sides.
    ("mincut_epsilon",
     lambda: MinCutSketch(10, epsilon=0.5, source=SRC.derive(21)),
     lambda: MinCutSketch(10, epsilon=0.51, source=SRC.derive(21))),
    # A parameter left at None on one side is compared like any other.
    ("bipartiteness_rounds",
     lambda: BipartitenessSketch(10, SRC.derive(22)),
     lambda: BipartitenessSketch(10, SRC.derive(22), rounds=3)),
]

#: Cases of registry sketch kinds (the ones with a codec).
REGISTRY_CASES = [
    c for c in MISMATCH_CASES
    if not c[0].startswith(("cell_bank", "l0_bank", "recovery_bank"))
]

#: Every way to combine sketch ``b`` into (or against) sketch ``a``.
COMBINE_PATHS = {
    "merge": lambda a, b: a.merge(b),
    "subtract": lambda a, b: a.subtract(b),
    "merge_sketch_bytes": lambda a, b: merge_sketch_bytes(a, dump_sketch(b)),
    "subtract_sketch_bytes":
        lambda a, b: subtract_sketch_bytes(a, dump_sketch(b)),
    "load_sketch_like": lambda a, b: load_sketch(dump_sketch(b), like=a),
}

#: Cases whose ``a`` side is merged with a twin of itself, by name.
COMPATIBLE_CASES = [
    c for c in MISMATCH_CASES
    if c[0] in ("cell_bank_seed", "l0_bank_domain", "l0_bank_shape")
]


class TestSketchCompatibilityError:
    def test_is_value_error_and_repro_error(self):
        assert issubclass(SketchCompatibilityError, ValueError)
        assert issubclass(SketchCompatibilityError, ReproError)

    @pytest.mark.parametrize(
        "name,build_a,build_b", MISMATCH_CASES,
        ids=[c[0] for c in MISMATCH_CASES],
    )
    def test_incompatible_merge_raises_single_type(
        self, name, build_a, build_b
    ):
        a, b = build_a(), build_b()
        with pytest.raises(SketchCompatibilityError):
            a.merge(b)
        # Legacy callers that catch ValueError still work.
        with pytest.raises(ValueError):
            a.merge(b)

    @pytest.mark.parametrize(
        "name,build_a,build_b", COMPATIBLE_CASES,
        ids=[c[0] for c in COMPATIBLE_CASES],
    )
    def test_compatible_merge_still_fine(self, name, build_a, build_b):
        build_a().merge(build_a())

    def test_message_names_the_field(self):
        a = EdgeConnectivitySketch(10, 2, SRC.derive(30))
        b = EdgeConnectivitySketch(10, 3, SRC.derive(30))
        with pytest.raises(SketchCompatibilityError, match="k differs"):
            a.merge(b)

    def test_seed_mismatch_detected_in_banks(self):
        """Same shape, different hashes: refused before corrupting cells."""
        a = L0SamplerBank(1, 1, 64, HashSource(1))
        b = L0SamplerBank(1, 1, 64, HashSource(2))
        a.update(np.array([0]), np.array([0]), np.array([5]), np.array([1]))
        b.update(np.array([0]), np.array([0]), np.array([5]), np.array([1]))
        with pytest.raises(SketchCompatibilityError, match="seed"):
            a.merge(b)


class TestOperationNaming:
    """The compatibility message names the operation that was refused.

    A failure surfaced from a temporal-window subtraction or a codec
    ``like=`` reconciliation must not misleadingly claim that a *merge*
    was attempted (the ``errors.incompatible(op=...)`` contract).
    """

    @pytest.mark.parametrize(
        "name,build_a,build_b", MISMATCH_CASES,
        ids=[c[0] for c in MISMATCH_CASES],
    )
    def test_merge_message_names_merge(self, name, build_a, build_b):
        with pytest.raises(SketchCompatibilityError, match="merge"):
            build_a().merge(build_b())

    @pytest.mark.parametrize(
        "name,build_a,build_b", MISMATCH_CASES,
        ids=[c[0] for c in MISMATCH_CASES],
    )
    def test_subtract_message_names_subtract(self, name, build_a, build_b):
        with pytest.raises(SketchCompatibilityError) as err:
            build_a().subtract(build_b())
        assert "subtract" in str(err.value)
        assert "merge" not in str(err.value)

    def test_codec_load_message_names_load(self):
        from repro.sketch import dump_sketch, load_sketch

        blob = dump_sketch(SpanningForestSketch(10, SRC.derive(40)))
        reference = SpanningForestSketch(12, SRC.derive(40))
        with pytest.raises(SketchCompatibilityError) as err:
            load_sketch(blob, like=reference)
        assert "load" in str(err.value)
        assert "cannot merge" not in str(err.value)

    def test_combine_bytes_messages_name_their_operation(self):
        from repro.sketch import (
            dump_sketch,
            merge_sketch_bytes,
            subtract_sketch_bytes,
        )

        blob = dump_sketch(SpanningForestSketch(10, SRC.derive(41)))
        reference = SpanningForestSketch(12, SRC.derive(41))
        with pytest.raises(SketchCompatibilityError, match="cannot merge"):
            merge_sketch_bytes(reference, blob)
        with pytest.raises(SketchCompatibilityError, match="cannot subtract"):
            subtract_sketch_bytes(reference, blob)


class TestOneCombineRule:
    """In-memory merge/subtract, the byte combines and ``load_sketch(
    like=)`` apply one rule (``ArenaBacked``: same class, ``_params()``,
    seed and layout), so they refuse and accept exactly the same pairs."""

    @pytest.mark.parametrize("path", sorted(COMBINE_PATHS))
    @pytest.mark.parametrize(
        "name,build_a,build_b", REGISTRY_CASES,
        ids=[c[0] for c in REGISTRY_CASES],
    )
    def test_every_path_refuses_the_mismatch(self, name, build_a, build_b, path):
        with pytest.raises(SketchCompatibilityError):
            COMBINE_PATHS[path](build_a(), build_b())

    @pytest.mark.parametrize("path", sorted(COMBINE_PATHS))
    @pytest.mark.parametrize(
        "name,build_a,build_b", REGISTRY_CASES,
        ids=[c[0] for c in REGISTRY_CASES],
    )
    def test_every_path_accepts_a_twin(self, name, build_a, build_b, path):
        COMBINE_PATHS[path](build_a(), build_a())

    def test_mincut_epsilon_alone_is_a_mismatch(self):
        a = MinCutSketch(10, epsilon=0.5, source=SRC.derive(50))
        b = MinCutSketch(10, epsilon=0.51, source=SRC.derive(50))
        assert (a.k, a.levels) == (b.k, b.levels) == (13, 8)
        with pytest.raises(SketchCompatibilityError, match="epsilon differs"):
            a.merge(b)
        with pytest.raises(SketchCompatibilityError, match="epsilon:"):
            merge_sketch_bytes(a, dump_sketch(b))

    def test_message_names_the_outer_class(self):
        """An epsilon mismatch (which changes each class sketch's k) is
        reported against the sketch that was merged, not a constituent."""
        a = WeightedSparsification(10, 4, epsilon=0.5, source=SRC.derive(51))
        b = WeightedSparsification(10, 4, epsilon=0.6, source=SRC.derive(51))
        with pytest.raises(SketchCompatibilityError) as err:
            a.merge(b)
        assert "WeightedSparsification: epsilon differs" in str(err.value)
        assert "SimpleSparsification" not in str(err.value)
