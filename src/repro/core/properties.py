"""Companion graph-property sketches: bipartiteness, k-connectivity, MST.

Section 1.2 of the paper summarises its companion work [4] (the source
of Theorem 2.3): sketch-based tests for connectivity, k-connectivity
and bipartiteness, and minimum-spanning-tree computation in dynamic
streams.  This paper *builds on* those primitives, so a complete
library ships them; each is a thin, well-tested composition of the
substrates already implemented here.

* :class:`BipartitenessSketch` — the doubled-graph reduction: replace
  every edge ``(u, v)`` by ``(u, v')`` and ``(u', v)`` on a universe of
  ``2n`` nodes.  A connected component of ``G`` stays one component in
  the doubled graph iff it contains an odd cycle; hence ``G`` is
  bipartite iff ``cc(G'') = 2 · cc(G)``.
* :func:`is_k_connected_sketch` — Theorem 2.3 read directly: the
  ``k-EDGECONNECT`` witness preserves all cuts up to ``k``, so
  Stoer–Wagner on the witness answers k-edge-connectivity.
* :class:`MSTWeightSketch` — the component-counting identity
  ``MSF(G) = Σ_{i=0}^{W-1} cc_i − W · cc_W`` over weight thresholds
  (Kruskal's telescoping), with one spanning-forest sketch per
  threshold; a geometric ``(1+ε)`` threshold ladder trades sketches for
  approximation exactly as in the streaming-MST literature.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import StreamError
from ..graphs import global_min_cut_value
from ..hashing import HashSource
from ..sketch import ArenaBacked
from ..sketch.bank import CellBank
from ..streams import DynamicGraphStream, EdgeUpdate, StreamBatch
from .edge_connect import EdgeConnectivitySketch
from .forest import SpanningForestSketch

__all__ = [
    "BipartitenessSketch",
    "MSTWeightSketch",
    "is_k_connected_sketch",
]


class BipartitenessSketch(ArenaBacked):
    """Single-pass dynamic-stream bipartiteness test.

    Maintains a spanning-forest sketch of ``G`` (n nodes) and of the
    doubled graph ``G''`` (2n nodes, ``v' = v + n``).  Linear, hence
    deletion-proof and mergeable like every sketch here.
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"properties"})

    def __init__(self, n: int, source: HashSource | None = None,
                 rounds: int | None = None):
        if source is None:
            source = HashSource(0xB1B)
        self.n = n
        #: Seed of the constructing source (serialisation / merge checks).
        self.source_seed = getattr(source, "seed", None)
        #: The constructor's ``rounds`` argument verbatim (``None`` means
        #: each forest picks its own default — which differs between the
        #: base and doubled universes, so the raw value must be kept for
        #: faithful reconstruction).
        self.ctor_rounds = rounds
        self.base = SpanningForestSketch(n, source.derive(1), rounds=rounds)
        self.doubled = SpanningForestSketch(
            2 * n, source.derive(2), rounds=rounds
        )

    def update(self, update: EdgeUpdate) -> None:
        """Apply one edge update to both sketches."""
        self.base.update(update)
        u, v, d = update.lo, update.hi, update.delta
        self.doubled.update(EdgeUpdate(u, v + self.n, d))
        self.doubled.update(EdgeUpdate(v, u + self.n, d))

    def consume_batch(self, batch: StreamBatch) -> "BipartitenessSketch":
        """Ingest one columnar batch into the base and doubled sketches.

        The doubled graph's edges ``(u, v + n)`` and ``(v, u + n)`` stay
        canonically oriented because ``u, v < n <= x + n``.
        """
        if batch.n != self.n:
            raise ValueError("batch and sketch node universes differ")
        self.base.consume_batch(batch)
        self.doubled.update_edges(
            np.concatenate([batch.lo, batch.hi]),
            np.concatenate([batch.hi + self.n, batch.lo + self.n]),
            np.concatenate([batch.delta, batch.delta]),
        )
        return self

    def _cell_banks(self) -> list[CellBank]:
        """Constituent cell banks in serialisation/arena order."""
        return self.base._cell_banks() + self.doubled._cell_banks()

    def _params(self) -> dict:
        """Constructor parameters that, with the seed, fix the measurement matrix."""
        return {"n": self.n, "rounds": self.ctor_rounds}

    def is_bipartite(self) -> bool:
        """Whether the sketched graph is bipartite (w.h.p. correct).

        ``cc(G'') = 2·cc(G)`` iff no component of G has an odd cycle.
        Isolated vertices contribute 1 and 2 components respectively,
        keeping the identity exact.
        """
        cc_base = len(self.base.connected_components())
        cc_doubled = len(self.doubled.connected_components())
        return cc_doubled == 2 * cc_base

    def memory_cells(self) -> int:
        """Total 1-sparse cells (space accounting)."""
        return self.base.memory_cells() + self.doubled.memory_cells()


def is_k_connected_sketch(
    n: int,
    k: int,
    stream: DynamicGraphStream,
    source: HashSource | None = None,
) -> bool:
    """Single-pass k-edge-connectivity test (Theorem 2.3 applied).

    Builds the ``k-EDGECONNECT`` witness and checks its global minimum
    cut: the witness preserves every cut value up to ``k`` exactly, so
    ``λ(H) >= k ⇔ λ(G) >= k`` (w.h.p.).
    """
    if source is None:
        source = HashSource(0xC0C)
    sketch = EdgeConnectivitySketch(n, k, source).consume_batch(stream.as_batch())
    witness = sketch.witness()
    if witness.num_edges() == 0:
        return False
    return global_min_cut_value(witness) >= k


class MSTWeightSketch(ArenaBacked):
    """Minimum-spanning-forest weight from threshold connectivity sketches.

    Parameters
    ----------
    n:
        Node universe size.
    max_weight:
        Upper bound ``W`` on edge weights (weights travel as atomic
        token multiplicities, as in §3.5).
    epsilon:
        0 for exact integer thresholds ``1..W`` (``W`` forest
        sketches); ``> 0`` for the geometric ladder ``(1+ε)^j``
        (``O(log_{1+ε} W)`` sketches, multiplicative ``(1+ε)``
        over-estimate bound).
    source:
        Seed source.

    Notes
    -----
    Uses the Kruskal telescoping identity: with ``cc_t`` the number of
    connected components of the subgraph of edges with weight ``≤ t``,

        ``MSF(G) = Σ_i (t_{i+1} - t_i) · (cc_{t_i} - cc_W) ``

    which for unit steps reduces to ``Σ_{i=0}^{W-1} cc_i − W·cc_W``.
    Unreachable components are never charged (we subtract ``cc_W``), so
    the estimator returns the minimum spanning *forest* weight on
    disconnected graphs.
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"properties"})

    def __init__(
        self,
        n: int,
        max_weight: int,
        epsilon: float = 0.0,
        source: HashSource | None = None,
        rounds: int | None = None,
    ):
        if max_weight < 1:
            raise ValueError(f"max_weight must be >= 1, got {max_weight}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        if source is None:
            source = HashSource(0x357)
        self.n = n
        #: Seed of the constructing source (serialisation / merge checks).
        self.source_seed = getattr(source, "seed", None)
        self.ctor_rounds = rounds
        self.max_weight = max_weight
        self.epsilon = epsilon
        if epsilon == 0.0:
            self.thresholds = list(range(1, max_weight + 1))
        else:
            self.thresholds = []
            t = 1.0
            while t < max_weight:
                self.thresholds.append(int(math.floor(t)))
                t *= 1.0 + epsilon
            self.thresholds.append(max_weight)
            self.thresholds = sorted(set(self.thresholds))
        self.sketches = [
            SpanningForestSketch(n, source.derive(0x7E, i), rounds=rounds)
            for i in range(len(self.thresholds))
        ]

    def update(self, update: EdgeUpdate) -> None:
        """Route a weight-atomic token to every threshold ≥ its weight."""
        w = abs(update.delta)
        if w > self.max_weight:
            raise StreamError(
                f"token weight {w} exceeds max_weight {self.max_weight}"
            )
        sign = 1 if update.delta > 0 else -1
        presence = EdgeUpdate(update.u, update.v, sign)
        for threshold, sketch in zip(self.thresholds, self.sketches):
            if w <= threshold:
                sketch.update(presence)

    def consume_batch(self, batch: StreamBatch) -> "MSTWeightSketch":
        """Ingest one columnar batch, routed to every qualifying threshold."""
        if batch.n != self.n:
            raise ValueError("batch and sketch node universes differ")
        if len(batch) == 0:
            return self
        w = np.abs(batch.delta)
        over = w > self.max_weight
        if over.any():
            raise StreamError(
                f"token weight {int(w[over][0])} exceeds max_weight "
                f"{self.max_weight}"
            )
        sign = np.where(batch.delta > 0, 1, -1).astype(np.int64)
        for threshold, sketch in zip(self.thresholds, self.sketches):
            mask = w <= threshold
            if mask.any():
                sketch.update_edges(
                    batch.lo[mask], batch.hi[mask], sign[mask],
                    items=batch.ranks[mask],
                )
        return self

    def _cell_banks(self) -> list[CellBank]:
        """Constituent cell banks in serialisation/arena order."""
        return [b for s in self.sketches for b in s._cell_banks()]

    def _params(self) -> dict:
        """Constructor parameters that, with the seed, fix the measurement matrix."""
        return {"n": self.n, "max_weight": self.max_weight,
                "epsilon": self.epsilon, "rounds": self.ctor_rounds}

    def component_counts(self) -> list[int]:
        """``cc_t`` per threshold (diagnostics)."""
        return [len(s.connected_components()) for s in self.sketches]

    def estimate(self) -> float:
        """Minimum-spanning-forest weight estimate.

        Exact (w.h.p.) for ``epsilon == 0``; a ``≤ (1+ε)`` overestimate
        of the true MSF weight for the geometric ladder.
        """
        counts = self.component_counts()
        cc_top = counts[-1]
        # Abel-transformed Kruskal telescoping:
        #   MSF = Σ_i (t_i − t_{i−1}) · (cc_{t_{i−1}} − cc_W),  t_0 = 0.
        total = 0.0
        prev_t = 0
        prev_cc = self.n  # cc at threshold 0 (no edges)
        for t, cc in zip(self.thresholds, counts):
            total += (t - prev_t) * (prev_cc - cc_top)
            prev_t, prev_cc = t, cc
        return total

    def memory_cells(self) -> int:
        """Total 1-sparse cells (space accounting)."""
        return sum(s.memory_cells() for s in self.sketches)
