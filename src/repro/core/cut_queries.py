"""Cut-edge queries from per-node sparse-recovery sketches.

The reusable device inside Fig. 3 step 4(c), exposed as a first-class
API: keep one ``k-RECOVERY`` sketch of the signed incidence vector
``x^u`` (Eq. 1) per node; then, for **any** node set ``A`` chosen at
query time, ``Σ_{u∈A} x^u`` cancels internal edges and k-RECOVERY
returns *exactly* the set of edges crossing ``(A, V \\ A)`` — provided
at most ``k`` edges cross, else FAIL (Theorem 2.2 semantics).

This is the sketch equivalent of an adjacency query for cuts: a
single ``O(kn polylog)``-cell linear sketch answers cut-edge listings
for all ``2^n`` cuts of bounded size, under insertions and deletions.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import RecoveryFailed
from ..hashing import HashSource
from ..sketch import ArenaBacked, SparseRecoveryBank
from ..sketch.arena import check_params
from ..sketch.bank import CellBank
from ..streams import EdgeUpdate, StreamBatch
from ..util import pair_count, pair_unrank

__all__ = ["CutEdgesSketch"]


class CutEdgesSketch(ArenaBacked):
    """Linear sketch answering "which edges cross this cut?" queries.

    Parameters
    ----------
    n:
        Node universe size.
    k:
        Maximum number of crossing edges a query can list; queries on
        cuts with more crossing edges raise
        :class:`~repro.errors.RecoveryFailed` (honestly, w.h.p.).
    source:
        Seed source.
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"cut-query"})

    def __init__(self, n: int, k: int, source: HashSource | None = None):
        check_params(n=n, k=k)
        if source is None:
            source = HashSource(0xC07)
        self.n = n
        self.k = k
        #: Seed of the constructing source (serialisation / merge checks).
        self.source_seed = getattr(source, "seed", None)
        self.bank = SparseRecoveryBank(
            groups=1,
            instances=n,
            domain=pair_count(n),
            k=k,
            source=source,
        )

    def update(self, update: EdgeUpdate) -> None:
        """Apply one edge update (signed rows to both endpoint sketches)."""
        lo, hi, delta = update.lo, update.hi, update.delta
        e = lo * self.n - lo * (lo + 1) // 2 + (hi - lo - 1)
        self.bank.update(
            np.zeros(2, dtype=np.int64),
            np.array([lo, hi], dtype=np.int64),
            np.array([e, e], dtype=np.int64),
            np.array([delta, -delta], dtype=np.int64),
        )

    def consume_batch(self, batch: StreamBatch) -> "CutEdgesSketch":
        """Ingest one columnar batch (both signed endpoint rows at once)."""
        self._check_universe(batch)
        m = len(batch)
        if m == 0:
            return self
        self.bank.update(
            np.zeros(2 * m, dtype=np.int64),
            np.concatenate([batch.lo, batch.hi]),
            np.concatenate([batch.ranks, batch.ranks]),
            np.concatenate([batch.delta, -batch.delta]),
        )
        return self

    def _cell_banks(self) -> list[CellBank]:
        """Constituent cell banks in serialisation/arena order."""
        return [self.bank.bank]

    def _params(self) -> dict:
        """Constructor parameters that, with the seed, fix the measurement matrix."""
        return {"n": self.n, "k": self.k}

    def crossing_edges(self, side: Iterable[int]) -> dict[tuple[int, int], int]:
        """Edges crossing ``(side, V \\ side)`` with their multiplicities.

        Raises
        ------
        RecoveryFailed
            If more than ``k`` edges cross the cut (w.h.p. honest).
        ValueError
            If the side is empty, full, or contains invalid nodes.
        """
        members = sorted(set(side))
        if not members or len(members) >= self.n:
            raise ValueError("cut side must be a proper non-empty node subset")
        for v in members:
            if not 0 <= v < self.n:
                raise ValueError(f"node {v} outside universe [0, {self.n})")
        decoded = self.bank.decode_sum(0, members)
        out: dict[tuple[int, int], int] = {}
        for item, value in decoded.items():
            u, v = pair_unrank(item, self.n)
            out[(u, v)] = abs(value)
        return out

    def cut_value(self, side: Iterable[int]) -> int:
        """Total multiplicity crossing the cut (errors if > k edges cross)."""
        return sum(self.crossing_edges(side).values())

    def is_cut_empty(self, side: Iterable[int]) -> bool:
        """Whether no edge crosses the cut (side is a union of components)."""
        try:
            return not self.crossing_edges(side)
        except RecoveryFailed:
            return False

    def memory_cells(self) -> int:
        """Total 1-sparse cells (space accounting)."""
        return self.bank.memory_cells()
