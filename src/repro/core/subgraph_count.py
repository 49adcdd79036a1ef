"""Induced-subgraph frequency sketch — Section 4; Theorem 4.1.

Estimates ``γ_H(G)`` — the fraction of *non-empty* order-k induced
subgraphs of ``G`` isomorphic to a pattern ``H`` — to additive ``ε``
with ``O(ε^{-2} log δ^{-1})`` ℓ₀ samplers.

Mechanics (Fig. 4).  The matrix ``X_G`` has a row per vertex pair of a
k-subset and a column per k-subset of ``V``; squash-encode columns into
the vector ``squash(X_G) ∈ Z^{C(n,k)}``, where column ``S`` holds
``Σ 2^{pos(pair)}`` over the present edges inside ``S``.  An ℓ₀ sample
is a uniform non-empty induced subgraph together with its full edge
bitmask; the estimator is the fraction of samples whose bitmask lies in
the isomorphism class ``A_H``.

Update cost: an edge update touches the ``C(n-2, k-2)`` columns of all
k-subsets containing both endpoints — the sketch is tiny but updates do
real work, which the paper accepts (measurements need only be
implicitly storable).  The ``k = 3`` case is fully vectorised; general
``k <= 5`` uses an explicit subset loop.

Precondition: the *final* graph must be simple (multiplicities 0/1), as
in the paper's binary matrix ``X_G``; multigraph multiplicities would
alias across rows of the encoding.  Intermediate states of the stream
may be anything (the sketch is linear).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import NotSupportedError, SamplerFailed, incompatible
from ..hashing import HashSource
from ..sketch import ArenaBacked, L0SamplerBank, pair_positions_k3, rows_for_order
from ..sketch.bank import CellBank
from ..streams import EdgeUpdate, StreamBatch
from ..util import comb
from .patterns import Pattern, encoding_class

__all__ = ["SubgraphSketch", "GammaEstimate"]


@dataclass(frozen=True, slots=True)
class GammaEstimate:
    """Outcome of a γ_H estimation.

    Attributes
    ----------
    gamma:
        Estimated fraction of non-empty order-k induced subgraphs
        isomorphic to the pattern.
    samples_used:
        Samplers that produced a valid sample.
    samples_failed:
        Samplers that returned FAIL (excluded from the estimate, as the
        δ-error budget of Theorem 2.1 allows).
    invalid_encodings:
        Samples whose value was not a valid binary-column encoding —
        non-zero only if the simple-graph precondition was violated.
    """

    gamma: float
    samples_used: int
    samples_failed: int
    invalid_encodings: int


class SubgraphSketch(ArenaBacked):
    """Linear sketch estimating induced-subgraph frequencies γ_H.

    Parameters
    ----------
    n:
        Node universe size.
    order:
        Subgraph order ``k`` (3, 4, or 5; 3 is vectorised).
    samplers:
        Number of independent ℓ₀ samplers ``s = O(ε^{-2})``; the
        additive error decays as ``1/sqrt(s)``.
    source:
        Seed source.
    rows, buckets:
        Per-sampler grid dimensions.
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"subgraph-count"})

    def __init__(
        self,
        n: int,
        order: int = 3,
        samplers: int = 64,
        source: HashSource | None = None,
        rows: int = 2,
        buckets: int = 4,
    ):
        if source is None:
            source = HashSource(0x5B6)
        if not 3 <= order <= 5:
            raise NotSupportedError(f"subgraph order must be 3..5, got {order}")
        if samplers < 1:
            raise ValueError(f"need at least one sampler, got {samplers}")
        if n < order:
            raise ValueError(f"need n >= order, got n={n}, order={order}")
        self.n = n
        self.order = order
        self.samplers = samplers
        #: Seed of the constructing source (serialisation / merge checks).
        self.source_seed = getattr(source, "seed", None)
        self.matrix_rows = rows_for_order(order)
        self.domain = comb(n, order)
        self.bank = L0SamplerBank(
            families=samplers,
            samplers=1,
            domain=self.domain,
            source=source,
            rows=rows,
            buckets=buckets,
        )
        self._all_nodes = np.arange(n, dtype=np.int64)
        self._fam_ids = np.arange(samplers, dtype=np.int64)

    # -- stream side -----------------------------------------------------------

    def update(self, update: EdgeUpdate) -> None:
        """Apply one edge update to all ``C(n-2, k-2)`` affected columns."""
        cols, deltas = self._column_deltas(update.lo, update.hi, update.delta)
        s = self.samplers
        fams = np.repeat(self._fam_ids, cols.size)
        items = np.tile(cols, s)
        dl = np.tile(deltas, s)
        zeros = np.zeros(items.size, dtype=np.int64)
        self.bank.update(fams, zeros, items, dl)

    def consume_batch(self, batch: StreamBatch) -> "SubgraphSketch":
        """Ingest one columnar batch (chunked column expansion)."""
        if batch.n != self.n:
            raise ValueError("batch and sketch node universes differ")
        chunk_tokens = max(1, 200_000 // max(1, (self.n - 2) * self.samplers))
        for start in range(0, len(batch), chunk_tokens):
            end = start + chunk_tokens
            if self.order == 3:
                cols, deltas = self._column_deltas_chunk(
                    batch.lo[start:end], batch.hi[start:end],
                    batch.delta[start:end],
                )
                self._flush([cols], [deltas])
            else:
                per_token = [
                    self._column_deltas(int(lo), int(hi), int(dl))
                    for lo, hi, dl in zip(
                        batch.lo[start:end], batch.hi[start:end],
                        batch.delta[start:end],
                    )
                ]
                self._flush([c for c, _ in per_token], [d for _, d in per_token])
        return self

    def _column_deltas_chunk(
        self, lo: np.ndarray, hi: np.ndarray, delta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised ``k = 3`` column expansion for a chunk of tokens.

        Broadcasts the third-vertex grid to ``tokens × n``, masks out
        the two endpoints, and emits the same (column, delta) pairs as
        the per-token path, token-major.
        """
        m = lo.size
        lo2 = lo[:, None]
        hi2 = hi[:, None]
        w = np.broadcast_to(self._all_nodes, (m, self.n))
        keep = (w != lo2) & (w != hi2)
        a = np.minimum(w, lo2)  # lo < hi always, so min/max vs lo/hi suffice
        c = np.maximum(w, hi2)
        b = (w + lo2 + hi2) - a - c
        cols = a + b * (b - 1) // 2 + c * (c - 1) * (c - 2) // 6
        # Row position of {lo, hi} in the sorted triple (pair_positions_k3).
        pos = np.zeros((m, self.n), dtype=np.int64)
        pos[(w > lo2) & (w < hi2)] = 1
        pos[w < lo2] = 2
        deltas = delta[:, None] * (1 << pos)
        return cols[keep], deltas[keep]

    def _flush(
        self, cols_list: list[np.ndarray], deltas_list: list[np.ndarray]
    ) -> None:
        cols = np.concatenate(cols_list)
        deltas = np.concatenate(deltas_list)
        s = self.samplers
        fams = np.repeat(self._fam_ids, cols.size)
        items = np.tile(cols, s)
        dl = np.tile(deltas, s)
        zeros = np.zeros(items.size, dtype=np.int64)
        self.bank.update(fams, zeros, items, dl)

    def _cell_banks(self) -> list[CellBank]:
        """Constituent cell banks in serialisation/arena order."""
        return [self.bank.bank]

    def _require_combinable(self, other: "SubgraphSketch", op: str = "merge") -> None:
        for field in ("n", "order", "samplers"):
            if getattr(other, field) != getattr(self, field):
                raise incompatible(
                    "SubgraphSketch", field, getattr(self, field),
                    getattr(other, field), op=op)
        self.bank._require_combinable(other.bank, op=op)

    def merge(self, other: "SubgraphSketch") -> None:
        """Merge an identically-seeded sketch (distributed streams)."""
        self._require_combinable(other)
        self.arena.merge(other.arena)

    def subtract(self, other: "SubgraphSketch") -> None:
        """Subtract an identically-seeded sketch (temporal windows)."""
        self._require_combinable(other, op="subtract")
        self.arena.subtract(other.arena)

    def negate(self) -> None:
        """Negate the sketched stream in place."""
        self.arena.negate()

    def _column_deltas(
        self, lo: int, hi: int, delta: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Column ranks and squash deltas for one edge update."""
        if self.order == 3:
            w = self._all_nodes[(self._all_nodes != lo) & (self._all_nodes != hi)]
            a = np.minimum(np.minimum(w, lo), hi)
            c = np.maximum(np.maximum(w, lo), hi)
            b = (w + lo + hi) - a - c
            # Combinatorial number system rank of the sorted triple.
            cols = a + b * (b - 1) // 2 + c * (c - 1) * (c - 2) // 6
            pos = pair_positions_k3(lo, hi, w)
            return cols, delta * (1 << pos).astype(np.int64)
        # Generic k: explicit enumeration of the other k-2 vertices.
        others = [x for x in range(self.n) if x != lo and x != hi]
        cols = []
        deltas = []
        for rest in itertools.combinations(others, self.order - 2):
            subset = tuple(sorted((lo, hi) + rest))
            rank = 0
            for i, sNode in enumerate(subset):
                rank += comb(sNode, i + 1)
            a = subset.index(min(lo, hi))
            b = subset.index(max(lo, hi))
            pos = a * self.order - a * (a + 1) // 2 + (b - a - 1)
            cols.append(rank)
            deltas.append(delta * (1 << pos))
        return (
            np.asarray(cols, dtype=np.int64),
            np.asarray(deltas, dtype=np.int64),
        )

    # -- estimation --------------------------------------------------------------

    def raw_samples(self) -> tuple[list[int], int]:
        """Squash values of one sample per sampler, plus the FAIL count."""
        values: list[int] = []
        failed = 0
        for f in range(self.samplers):
            try:
                _, value = self.bank.sample(f, 0)
                values.append(value)
            except SamplerFailed:
                failed += 1
        return values, failed

    def estimate(self, pattern: Pattern) -> GammaEstimate:
        """Estimate ``γ_H`` for a pattern of the sketch's order."""
        if pattern.order != self.order:
            raise ValueError(
                f"pattern order {pattern.order} != sketch order {self.order}"
            )
        accepted = encoding_class(pattern)
        values, failed = self.raw_samples()
        invalid = 0
        hits = 0
        used = 0
        limit = 1 << self.matrix_rows
        for value in values:
            if not 0 < value < limit:
                invalid += 1
                continue
            used += 1
            if value in accepted:
                hits += 1
        gamma = hits / used if used else 0.0
        return GammaEstimate(
            gamma=gamma,
            samples_used=used,
            samples_failed=failed,
            invalid_encodings=invalid,
        )

    def estimate_many(self, patterns: list[Pattern]) -> dict[str, GammaEstimate]:
        """Estimate several same-order patterns from one sample draw.

        All estimates share the same samples (one sketch, many
        membership tests) — exactly how the paper's single sketch
        serves every pattern of a given order.
        """
        values, failed = self.raw_samples()
        limit = 1 << self.matrix_rows
        out: dict[str, GammaEstimate] = {}
        for pattern in patterns:
            if pattern.order != self.order:
                raise ValueError(
                    f"pattern order {pattern.order} != sketch order {self.order}"
                )
            accepted = encoding_class(pattern)
            invalid = hits = used = 0
            for value in values:
                if not 0 < value < limit:
                    invalid += 1
                    continue
                used += 1
                if value in accepted:
                    hits += 1
            out[pattern.name] = GammaEstimate(
                gamma=hits / used if used else 0.0,
                samples_used=used,
                samples_failed=failed,
                invalid_encodings=invalid,
            )
        return out

    def memory_cells(self) -> int:
        """Total 1-sparse cells (space accounting)."""
        return self.bank.memory_cells()
