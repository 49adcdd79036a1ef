"""AGM spanning-forest / connectivity sketch.

The substrate the paper imports from the authors' companion SODA'12
work [4] (cited as the source of Theorem 2.3): a linear sketch from
which a spanning forest of the graph can be extracted.

Construction.  Keep ``rounds = O(log n)`` independent families of ℓ₀
samplers, one sampler per node per family, each sketching that node's
signed incidence vector ``x^u`` (see :mod:`repro.core.incidence`).
Extraction runs Borůvka: starting from singleton components, each round
``t`` sums the *round-t* sketches of every component's member nodes —
by linearity this is a sketch of ``Σ_{u∈C} x^u``, whose support is
exactly the edges leaving ``C`` — samples one outgoing edge per
component, and merges.  Components halve per round w.h.p., so
``O(log n)`` rounds suffice; using a fresh sampler family per round
keeps the samples independent of the (adaptively chosen) components.

The class is a *linear* sketch: updates may insert and delete edges in
any order, and identically-seeded sketches can be merged (distributed
streams, Section 1.1).
"""

from __future__ import annotations

import numpy as np

from ..graphs import UnionFind
from ..hashing import HashSource
from ..kernels import get as _get_kernel
from ..sketch import ArenaBacked, L0SamplerBank
from ..sketch.bank import CellBank
from ..streams import EdgeUpdate, StreamBatch
from ..util import ceil_log2, pair_rank_array, pair_unrank
from .incidence import edge_domain

__all__ = ["SpanningForestSketch"]

_K_FOREST_SCATTER = _get_kernel("forest_scatter")


class SpanningForestSketch(ArenaBacked):
    """Linear sketch supporting spanning-forest extraction.

    Parameters
    ----------
    n:
        Node universe size.
    source:
        Seed source (determines every hash function).
    rounds:
        Borůvka rounds / independent sampler families.  Defaults to
        ``ceil(log2 n) + 2`` which suffices w.h.p.; raise it to push
        the failure probability down.
    rows, buckets:
        ℓ₀-sampler grid dimensions (see :class:`~repro.sketch.l0.
        L0SamplerBank`).
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"connectivity"})

    def __init__(
        self,
        n: int,
        source: HashSource,
        rounds: int | None = None,
        rows: int = 2,
        buckets: int = 4,
    ):
        if n < 2:
            raise ValueError(f"need at least two nodes, got {n}")
        self.n = n
        #: Seed of the constructing source (serialisation / merge checks).
        self.source_seed = getattr(source, "seed", None)
        self.rows = rows
        self.buckets = buckets
        self.rounds = rounds if rounds is not None else ceil_log2(n) + 2
        if self.rounds < 1:
            raise ValueError(f"rounds must be positive, got {self.rounds}")
        self.bank = L0SamplerBank(
            families=self.rounds,
            samplers=n,
            domain=edge_domain(n),
            source=source,
            rows=rows,
            buckets=buckets,
        )

    # -- stream side -----------------------------------------------------------

    def update(self, update: EdgeUpdate) -> None:
        """Apply one edge update to every family of the sketch."""
        self.update_edges(
            np.array([update.lo], dtype=np.int64),
            np.array([update.hi], dtype=np.int64),
            np.array([update.delta], dtype=np.int64),
        )

    #: Edges per scatter block — bounds the peak memory of the
    #: ``2 * rounds`` row expansion for arbitrarily large bulk updates.
    _CHUNK = 65536

    def update_edges(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        deltas: np.ndarray,
        items: np.ndarray | None = None,
    ) -> None:
        """Vectorised bulk update of canonical edges ``(lo < hi)``.

        Runs the fused ``forest_scatter`` kernel — every family, both
        signed endpoints, and the level expansion in one scatter —
        chunked so peak memory stays bounded for any batch size.
        ``items`` may carry the precomputed pair ranks (a
        :class:`StreamBatch` has them); when omitted they are derived
        from the endpoints.
        """
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if lo.size == 0:
            return
        if items is None:
            items = pair_rank_array(lo, hi, self.n)
        else:
            items = np.asarray(items, dtype=np.int64)
        for start in range(0, lo.size, self._CHUNK):
            end = start + self._CHUNK
            _K_FOREST_SCATTER(
                self.bank, lo[start:end], hi[start:end],
                deltas[start:end], items[start:end],
            )

    def consume_batch(self, batch: StreamBatch) -> "SpanningForestSketch":
        """Ingest a columnar batch (shared across sketches/levels)."""
        if batch.n != self.n:
            raise ValueError("batch and sketch node universes differ")
        self.update_edges(batch.lo, batch.hi, batch.delta, items=batch.ranks)
        return self

    def _cell_banks(self) -> list[CellBank]:
        """Constituent cell banks in serialisation/arena order."""
        return [self.bank.bank]

    def _grid(self) -> dict:
        """The sampler grid: ``rounds``, ``rows`` and ``buckets``."""
        return {"rounds": self.rounds, "rows": self.rows,
                "buckets": self.buckets}

    def _params(self) -> dict:
        """Constructor parameters that, with the seed, fix the measurement matrix."""
        return {"n": self.n, **self._grid()}

    # -- extraction -------------------------------------------------------------

    def spanning_forest(self) -> list[tuple[int, int, int]]:
        """Extract a spanning forest as ``(u, v, multiplicity)`` triples.

        Borůvka over the sketch; each returned edge is certified by the
        1-sparse fingerprints, so returned edges are real graph edges
        w.h.p.  If the sampler budget runs out before components stop
        shrinking the forest may be partial (more components than the
        true graph has); callers needing certainty can retry with more
        ``rounds`` or a different seed.
        """
        uf = UnionFind(self.n)
        forest: list[tuple[int, int, int]] = []
        for t in range(self.rounds):
            components = uf.groups()
            if len(components) == 1:
                break
            merged_any = False
            decode_failed = False
            # One whole-bank kernel call decodes every component's
            # summed sampler for this round at once; the per-component
            # union bookkeeping stays in Python but touches no cells.
            groups = list(components.values())
            status, items, values = self.bank.sample_many(t, groups)
            for ci in range(len(groups)):
                st = int(status[ci])
                if st != 0:
                    # A zero vector (1) means the component has no
                    # outgoing edge (isolated w.h.p.); a decode failure
                    # (2) says nothing — a later round's fresh samplers
                    # may still recover an edge, so it must not end the
                    # extraction early.
                    if st == 2:
                        decode_failed = True
                    continue
                a, b = pair_unrank(int(items[ci]), self.n)
                if uf.union(a, b):
                    forest.append((a, b, abs(int(values[ci]))))
                    merged_any = True
            if not merged_any and not decode_failed and t > 0:
                # Every remaining component reported a zero outgoing
                # vector in a full round; they are isolated w.h.p.
                break
        return forest

    def connected_components(self) -> list[set[int]]:
        """Connected components implied by the extracted forest."""
        uf = UnionFind(self.n)
        for u, v, _ in self.spanning_forest():
            uf.union(u, v)
        return [set(members) for members in uf.groups().values()]

    def is_connected(self) -> bool:
        """Whether the sketched graph is connected (w.h.p. correct)."""
        return len(self.connected_components()) == 1

    def memory_cells(self) -> int:
        """Total 1-sparse cells held (space accounting for experiments)."""
        return self.bank.memory_cells()
