"""``k-EDGECONNECT`` — the witness sketch of Theorem 2.3.

Returns a subgraph ``H`` with ``O(kn)`` edges containing every edge
that participates in a cut of size ``k`` or less; consequently ``H``
preserves every cut value of the input up to ``k`` (values above ``k``
stay above ``k``).  The MINCUT and SIMPLE-SPARSIFICATION algorithms
build their entire subsampling hierarchy out of these witnesses.

Construction (following the authors' companion work [4]): keep ``k``
independent :class:`~repro.core.forest.SpanningForestSketch` groups.
To extract the witness, peel forests: ``F_1`` is a spanning forest of
``G``; then, *exploiting linearity*, subtract ``F_1``'s edges from the
second group's sketch and extract ``F_2``, a spanning forest of
``G - F_1``; and so on.  ``H = F_1 ∪ ... ∪ F_k`` is exactly the
Nagamochi–Ibaraki sparse certificate (see :func:`repro.graphs.
connectivity.sparse_certificate`) computed from linear measurements
only — each group's randomness is fresh, so conditioning on earlier
forests does not bias later samplers.
"""

from __future__ import annotations

import numpy as np

from ..errors import incompatible
from ..graphs import Graph
from ..hashing import HashSource
from ..sketch import ArenaBacked
from ..sketch.bank import CellBank
from ..streams import EdgeUpdate, StreamBatch
from ..util import pair_rank_array
from .forest import SpanningForestSketch

__all__ = ["EdgeConnectivitySketch"]


class EdgeConnectivitySketch(ArenaBacked):
    """Linear sketch computing a k-edge-connectivity witness.

    Parameters
    ----------
    n:
        Node universe size.
    k:
        Connectivity parameter: cuts of value ``<= k`` are preserved
        exactly in the witness.
    source:
        Seed source; group ``g`` derives independent randomness.
    rounds:
        Borůvka rounds per group (see :class:`SpanningForestSketch`).
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"k-edge-connectivity", "connectivity"})

    def __init__(
        self,
        n: int,
        k: int,
        source: HashSource,
        rounds: int | None = None,
        rows: int = 2,
        buckets: int = 4,
    ):
        if k < 1:
            raise ValueError(f"connectivity parameter k must be >= 1, got {k}")
        self.n = n
        self.k = k
        #: Seed of the constructing source (serialisation / merge checks).
        self.source_seed = getattr(source, "seed", None)
        self.groups = [
            SpanningForestSketch(
                n, source.derive(0xEC, g), rounds=rounds, rows=rows, buckets=buckets
            )
            for g in range(k)
        ]

    # -- stream side -----------------------------------------------------------

    def update(self, update: EdgeUpdate) -> None:
        """Apply one edge update to every group."""
        for group in self.groups:
            group.update(update)

    def update_edges(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        deltas: np.ndarray,
        items: np.ndarray | None = None,
    ) -> None:
        """Vectorised bulk update of canonical edges.

        The pair ranks are computed once and shared by every group's
        fused scatter — the groups differ only in hash seeds, not in
        the payload.
        """
        if items is None and len(self.groups) > 1:
            items = pair_rank_array(lo, hi, self.n)
        for group in self.groups:
            group.update_edges(lo, hi, deltas, items=items)

    def consume_batch(self, batch: StreamBatch) -> "EdgeConnectivitySketch":
        """Ingest one columnar batch into every group (no re-conversion)."""
        for group in self.groups:
            group.consume_batch(batch)
        return self

    def _cell_banks(self) -> list[CellBank]:
        """Constituent cell banks in serialisation/arena order."""
        return [b for group in self.groups for b in group._cell_banks()]

    def _require_combinable(self, other: "EdgeConnectivitySketch", op: str = "merge") -> None:
        if other.n != self.n:
            raise incompatible("EdgeConnectivitySketch", "n", self.n, other.n, op=op)
        if other.k != self.k:
            raise incompatible("EdgeConnectivitySketch", "k", self.k, other.k, op=op)
        for mine, theirs in zip(self.groups, other.groups):
            mine._require_combinable(theirs, op=op)

    def merge(self, other: "EdgeConnectivitySketch") -> None:
        """Merge an identically-seeded sketch (distributed streams)."""
        self._require_combinable(other)
        self.arena.merge(other.arena)

    def subtract(self, other: "EdgeConnectivitySketch") -> None:
        """Subtract an identically-seeded sketch (temporal windows)."""
        self._require_combinable(other, op="subtract")
        self.arena.subtract(other.arena)

    def negate(self) -> None:
        """Negate the sketched stream in place."""
        self.arena.negate()

    # -- extraction -------------------------------------------------------------

    def witness(self) -> Graph:
        """Extract the witness subgraph ``H = F_1 ∪ ... ∪ F_k``.

        Edges carry their recovered multiplicity as weight.  The
        extraction temporarily subtracts found forests from later
        groups and restores them afterwards, so :meth:`witness` can be
        called repeatedly and the sketch remains mergeable.
        """
        found: dict[tuple[int, int], int] = {}
        witness = Graph(self.n)
        for group in self.groups:
            if found:
                lo, hi, neg = self._edge_arrays(found, negate=True)
                group.update_edges(lo, hi, neg)
            forest = group.spanning_forest()
            if found:
                lo, hi, pos = self._edge_arrays(found, negate=False)
                group.update_edges(lo, hi, pos)
            if not forest:
                break
            for u, v, mult in forest:
                key = (u, v) if u < v else (v, u)
                if key in found:
                    # Duplicate recovery can only happen on sampler
                    # failure artefacts; keep first.
                    continue
                found[key] = mult
                witness.add_edge(key[0], key[1], float(mult))
        return witness

    @staticmethod
    def _edge_arrays(
        found: dict[tuple[int, int], int], negate: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo = np.fromiter((e[0] for e in found), dtype=np.int64, count=len(found))
        hi = np.fromiter((e[1] for e in found), dtype=np.int64, count=len(found))
        mult = np.fromiter(found.values(), dtype=np.int64, count=len(found))
        return lo, hi, (-mult if negate else mult)

    def memory_cells(self) -> int:
        """Total 1-sparse cells across all groups."""
        return sum(group.memory_cells() for group in self.groups)
