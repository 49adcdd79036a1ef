"""``SIMPLE-SPARSIFICATION`` — Fig. 2; Lemma 3.2 and Theorem 3.3.

Single-pass dynamic-stream cut sparsifier.  Extends MINCUT by keying
the sampling level of each edge on *its own connectivity* instead of
the global minimum cut:

1. (stream) maintain the nested subsampled graphs ``G_0 ⊇ G_1 ⊇ ...``
   and a ``k-EDGECONNECT`` witness ``H_i`` per level, with
   ``k = O(ε^{-2} log² n)``;
2. (post-processing) for each edge ``e``, find the first level ``j``
   where the *witness* connectivity ``λ_e(H_j)`` of its endpoints
   drops below ``k``; if ``e`` survived the subsampling to level ``j``
   (equivalently ``e ∈ H_j``), keep it with weight ``2^j``.

The analysis replaces Fung et al.'s independent-sampling bound by the
martingale argument of Lemma 3.5 — freezing an edge's weight at the
level where its connectivity budget is exhausted — because the nested
hierarchy samples edges *consistently*, not independently.

Weighted multigraphs (Section 3.5) are supported through the
``weight_scale`` parameter: an edge of multiplicity ``w`` contributes
``±w`` to the incidence vectors, witnesses carry weighted edges, and
the connectivity threshold is compared in weight units
(``λ_e(H_i) < k · weight_scale``).  The weight-class decomposition in
:mod:`repro.core.weighted` instantiates one sparsifier per dyadic
class with ``weight_scale = 2^{j+1}``.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import incompatible
from ..graphs import Graph, gomory_hu_tree
from ..hashing import HashSource
from ..kernels import get as _get_kernel
from ..sketch import ArenaBacked
from ..sketch.bank import CellBank
from ..streams import EdgeUpdate, StreamBatch
from ..util import ceil_log2
from .edge_connect import EdgeConnectivitySketch
from .sparsifier import Sparsifier

__all__ = ["SimpleSparsification", "default_sparsifier_k"]

_K_LEVEL_ROUTE = _get_kernel("level_route")


def default_sparsifier_k(n: int, epsilon: float, c_k: float) -> int:
    """Witness parameter ``k = max(2, c_k ε^{-2} log2² n)``.

    The paper's constant (Theorem 3.1, Fung et al.) is 253 with natural
    logs; laptop-scale experiments exhibit the guarantee with ``c_k``
    well below 1 — E2 sweeps it.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    log2n = math.log2(max(n, 2))
    return max(2, int(round(c_k * log2n * log2n / epsilon**2)))


class SimpleSparsification(ArenaBacked):
    """Single-pass dynamic-stream ε-sparsifier (Fig. 2).

    Parameters
    ----------
    n:
        Node universe size.
    epsilon:
        Target cut accuracy.
    source:
        Seed source.
    c_k:
        Constant scale for ``k`` (see :func:`default_sparsifier_k`).
    levels:
        Subsampling depth, default ``2 log2 n``.
    weight_scale:
        Upper bound on edge multiplicities in this (sub)graph; the
        connectivity-freeze threshold becomes ``k * weight_scale``
        (Lemma 3.6).  Leave at 1 for unweighted streams.
    rounds, rows, buckets:
        Forest-sketch tuning knobs.
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"sparsifier"})

    def __init__(
        self,
        n: int,
        epsilon: float = 0.5,
        source: HashSource | None = None,
        c_k: float = 0.5,
        levels: int | None = None,
        weight_scale: float = 1.0,
        rounds: int | None = None,
        rows: int = 2,
        buckets: int = 4,
    ):
        if source is None:
            source = HashSource(0x51A9)
        if weight_scale < 1.0:
            raise ValueError(f"weight_scale must be >= 1, got {weight_scale}")
        self.n = n
        self.epsilon = epsilon
        self.c_k = c_k
        #: Seed of the constructing source (serialisation / merge checks).
        self.source_seed = getattr(source, "seed", None)
        self.k = default_sparsifier_k(n, epsilon, c_k)
        self.weight_scale = weight_scale
        self.levels = levels if levels is not None else 2 * ceil_log2(max(n, 2))
        self._level_source = source.derive(0x17)
        self.instances = [
            EdgeConnectivitySketch(
                n,
                self.k,
                source.derive(0x21, i),
                rounds=rounds,
                rows=rows,
                buckets=buckets,
            )
            for i in range(self.levels + 1)
        ]

    # -- stream side -----------------------------------------------------------

    def update(self, update: EdgeUpdate) -> None:
        """Route one edge update into levels ``0 .. level(e)``."""
        e = update.lo * self.n - update.lo * (update.lo + 1) // 2 + (
            update.hi - update.lo - 1
        )
        top = int(self._level_source.levels(e, self.levels))
        for i in range(top + 1):
            self.instances[i].update(update)

    def consume_batch(self, batch: StreamBatch) -> "SimpleSparsification":
        """Ingest one columnar batch, subsampled into every level.

        The ``level_route`` kernel sorts the batch once by deepest
        surviving level, so every level's payload is a nested prefix of
        the sorted batch instead of a fresh boolean-mask copy; scatter
        results are order-independent, so the bytes are unchanged.
        """
        if batch.n != self.n:
            raise ValueError("batch and sketch node universes differ")
        top = np.asarray(
            self._level_source.levels(batch.ranks, self.levels), dtype=np.int64
        )
        order, survivors = _K_LEVEL_ROUTE(top, self.levels)
        lo = batch.lo[order]
        hi = batch.hi[order]
        delta = batch.delta[order]
        ranks = batch.ranks[order]
        for i, instance in enumerate(self.instances):
            keep = int(survivors[i])
            if keep == 0:
                break
            instance.update_edges(
                lo[:keep], hi[:keep], delta[:keep], items=ranks[:keep],
            )
        return self

    def _cell_banks(self) -> list[CellBank]:
        """Constituent cell banks in serialisation/arena order."""
        return [b for inst in self.instances for b in inst._cell_banks()]

    def _require_combinable(self, other: "SimpleSparsification", op: str = "merge") -> None:
        for field in ("n", "levels", "k"):
            if getattr(other, field) != getattr(self, field):
                raise incompatible(
                    "SimpleSparsification", field, getattr(self, field),
                    getattr(other, field), op=op)
        for mine, theirs in zip(self.instances, other.instances):
            mine._require_combinable(theirs, op=op)

    def merge(self, other: "SimpleSparsification") -> None:
        """Merge an identically-seeded sketch (distributed streams)."""
        self._require_combinable(other)
        self.arena.merge(other.arena)

    def subtract(self, other: "SimpleSparsification") -> None:
        """Subtract an identically-seeded sketch (temporal windows)."""
        self._require_combinable(other, op="subtract")
        self.arena.subtract(other.arena)

    def negate(self) -> None:
        """Negate the sketched stream in place."""
        self.arena.negate()

    # -- post-processing ---------------------------------------------------------

    def sparsifier(self) -> Sparsifier:
        """Run Fig. 2, step 3 and return the weighted sparsifier.

        For each witness edge ``e`` the freeze level
        ``j_e = min{i : λ_e(H_i) < k·weight_scale}`` is located with one
        Gomory–Hu tree per level (all pairwise witness connectivities in
        ``n - 1`` max-flows); ``e`` joins the sparsifier iff it is
        present in ``H_{j_e}``, with weight ``2^{j_e} × multiplicity``.
        """
        witnesses = [inst.witness() for inst in self.instances]
        trees = [
            gomory_hu_tree(h) if h.num_edges() > 0 else None for h in witnesses
        ]
        threshold = self.k * self.weight_scale

        result = Graph(self.n)
        edge_levels: dict[tuple[int, int], int] = {}
        seen: set[tuple[int, int]] = set()
        for h in witnesses:
            for u, v, _w in h.weighted_edges():
                key = (u, v)
                if key in seen:
                    continue
                seen.add(key)
                j = self._freeze_level(trees, u, v, threshold)
                if j is None:
                    continue
                mult = witnesses[j].weight(u, v)
                if mult > 0:
                    result.add_edge(u, v, (2**j) * mult)
                    edge_levels[key] = j
        return Sparsifier(
            graph=result,
            epsilon=self.epsilon,
            edge_levels=edge_levels,
            memory_cells=self.memory_cells(),
        )

    def _freeze_level(
        self, trees: list, u: int, v: int, threshold: float
    ) -> int | None:
        """First level where the witness u-v connectivity drops below k."""
        for i, tree in enumerate(trees):
            if tree is None:
                return i
            if tree.min_cut_value(u, v) < threshold:
                return i
        return None

    def witnesses(self) -> list[Graph]:
        """Per-level witnesses ``H_i`` (diagnostics / experiments)."""
        return [inst.witness() for inst in self.instances]

    def memory_cells(self) -> int:
        """Total 1-sparse cells across all levels."""
        return sum(inst.memory_cells() for inst in self.instances)
