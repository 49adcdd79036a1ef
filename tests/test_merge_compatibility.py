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
from repro.sketch import CellBank, L0SamplerBank, SparseRecoveryBank

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
]

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
