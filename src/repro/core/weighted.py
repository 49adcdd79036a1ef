"""Weighted-graph sparsification — Section 3.5; Theorem 3.8.

Strategy straight from the paper: partition the edges into ``O(log W)``
dyadic **weight classes** ``[1, 2), [2, 4), ..., [2^j, 2^{j+1}), ...``,
run an independent sparsifier per class (Lemma 3.6: within a class,
weights vary by a factor < 2, handled by scaling the connectivity
threshold — our ``weight_scale``), and merge the per-class sparsifiers.
The merge of ε-sparsifiers of edge-disjoint subgraphs is an
ε-sparsifier of the union because cut values add.

Stream model: weights travel as signed multiplicities, and tokens are
assumed *weight-atomic* — an edge of weight ``w`` is inserted/deleted
with ``delta = ±w`` (the convention of
:func:`repro.streams.generators.weighted_churn_stream`).  Atomicity is
what lets a linear sketch route a token to its dyadic class by
``floor(log2 |delta|)`` without knowing the final graph.
"""

from __future__ import annotations

import numpy as np

from ..errors import incompatible
from ..graphs import Graph
from ..hashing import HashSource
from ..sketch import ArenaBacked
from ..sketch.bank import CellBank
from ..streams import EdgeUpdate, StreamBatch
from ..util import ceil_log2
from .sparsifier import Sparsifier
from .sparsify_simple import SimpleSparsification

__all__ = ["WeightedSparsification", "weight_class_of"]


def weight_class_of(delta: int) -> int:
    """Dyadic weight class ``floor(log2 |delta|)`` of a token."""
    if delta == 0:
        raise ValueError("zero-delta token has no weight class")
    return abs(delta).bit_length() - 1


class WeightedSparsification(ArenaBacked):
    """Dynamic-stream ε-sparsifier for polynomially weighted graphs.

    Parameters
    ----------
    n:
        Node universe size.
    max_weight:
        Upper bound on edge weights; determines the number of classes
        ``floor(log2 max_weight) + 1``.
    epsilon:
        Target cut accuracy.
    source:
        Seed source; every class derives independent randomness.
    c_k:
        Constant scale for the per-class witness parameter.
    rounds, rows, buckets:
        Forest-sketch tuning knobs passed to every class.
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"sparsifier"})

    def __init__(
        self,
        n: int,
        max_weight: int,
        epsilon: float = 0.5,
        source: HashSource | None = None,
        c_k: float = 0.5,
        rounds: int | None = None,
        rows: int = 2,
        buckets: int = 4,
    ):
        if max_weight < 1:
            raise ValueError(f"max_weight must be >= 1, got {max_weight}")
        if source is None:
            source = HashSource(0x3E1D)
        self.n = n
        self.epsilon = epsilon
        self.c_k = c_k
        #: Seed of the constructing source (serialisation / merge checks).
        self.source_seed = getattr(source, "seed", None)
        self.max_weight = max_weight
        self.num_classes = ceil_log2(max_weight + 1)
        self.num_classes = max(self.num_classes, 1)
        self.classes = [
            SimpleSparsification(
                n,
                epsilon=epsilon,
                source=source.derive(0x3C, j),
                c_k=c_k,
                weight_scale=float(2 ** (j + 1)),
                rounds=rounds,
                rows=rows,
                buckets=buckets,
            )
            for j in range(self.num_classes)
        ]

    def update(self, update: EdgeUpdate) -> None:
        """Route a weight-atomic token to its dyadic class sketch."""
        w = abs(update.delta)
        if w > self.max_weight:
            raise ValueError(
                f"token weight {w} exceeds configured max_weight {self.max_weight}"
            )
        self.classes[weight_class_of(update.delta)].update(update)

    def consume_batch(self, batch: StreamBatch) -> "WeightedSparsification":
        """Ingest one columnar batch, routed to the dyadic class sketches."""
        if batch.n != self.n:
            raise ValueError("batch and sketch node universes differ")
        if len(batch) == 0:
            return self
        w = np.abs(batch.delta)
        over = w > self.max_weight
        if over.any():
            raise ValueError(
                f"token weight {int(w[over][0])} exceeds configured max_weight "
                f"{self.max_weight}"
            )
        # weight_class_of, vectorised: largest j with 2^j <= w (exact
        # integer comparisons via searchsorted on the dyadic boundaries).
        powers = np.int64(1) << np.arange(self.num_classes, dtype=np.int64)
        classes = np.searchsorted(powers, w, side="right") - 1
        for j, sketch in enumerate(self.classes):
            mask = classes == j
            if mask.any():
                sketch.consume_batch(batch.select(mask))
        return self

    def _cell_banks(self) -> list[CellBank]:
        """Constituent cell banks in serialisation/arena order."""
        return [b for cl in self.classes for b in cl._cell_banks()]

    def _require_combinable(self, other: "WeightedSparsification", op: str = "merge") -> None:
        for field in ("n", "num_classes", "max_weight"):
            if getattr(other, field) != getattr(self, field):
                raise incompatible(
                    "WeightedSparsification", field, getattr(self, field),
                    getattr(other, field), op=op)
        for mine, theirs in zip(self.classes, other.classes):
            mine._require_combinable(theirs, op=op)

    def merge(self, other: "WeightedSparsification") -> None:
        """Merge an identically-seeded sketch (distributed streams)."""
        self._require_combinable(other)
        self.arena.merge(other.arena)

    def subtract(self, other: "WeightedSparsification") -> None:
        """Subtract an identically-seeded sketch (temporal windows)."""
        self._require_combinable(other, op="subtract")
        self.arena.subtract(other.arena)

    def negate(self) -> None:
        """Negate the sketched stream in place."""
        self.arena.negate()

    def sparsifier(self) -> Sparsifier:
        """Merge the per-class sparsifiers into one weighted subgraph."""
        merged = Graph(self.n)
        edge_levels: dict[tuple[int, int], int] = {}
        for sketch in self.classes:
            part = sketch.sparsifier()
            for u, v, w in part.graph.weighted_edges():
                merged.add_edge(u, v, w)
            edge_levels.update(part.edge_levels)
        return Sparsifier(
            graph=merged,
            epsilon=self.epsilon,
            edge_levels=edge_levels,
            memory_cells=self.memory_cells(),
        )

    def memory_cells(self) -> int:
        """Total 1-sparse cells across all weight classes."""
        return sum(sketch.memory_cells() for sketch in self.classes)
