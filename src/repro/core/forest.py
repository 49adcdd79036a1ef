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
from ..sketch.arena import check_params
from ..sketch.bank import CellBank
from ..streams import EdgeUpdate, StreamBatch
from ..util import ceil_log2, pair_rank_array, pair_unrank_array
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
        check_params(n=n, rounds=rounds, rows=rows, buckets=buckets)
        self.n = n
        #: Seed of the constructing source (serialisation / merge checks).
        self.source_seed = getattr(source, "seed", None)
        self.rows = rows
        self.buckets = buckets
        self.rounds = rounds if rounds is not None else ceil_log2(n) + 2
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
        self._check_universe(batch)
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
        return self._boruvka()[1]

    def connected_components(self) -> list[set[int]]:
        """Connected components implied by the extracted forest."""
        members, seg_offsets = _grouped(_labels(self._boruvka()[0].parent))
        nodes, bounds = members.tolist(), seg_offsets.tolist()
        return [set(nodes[a:b]) for a, b in zip(bounds, bounds[1:])]

    def _boruvka(self) -> tuple[UnionFind, list[tuple[int, int, int]]]:
        """Run the extraction: the union-find it merged nodes in, and the
        forest edges of its merges.

        Each round decodes every component's summed sampler in one
        kernel call and unranks the decoded edges in one call; only the
        unions, in component order, run in Python.
        """
        uf = UnionFind(self.n)
        forest: list[tuple[int, int, int]] = []
        for t in range(self.rounds):
            if uf.count == 1:
                break
            members, seg_offsets = _grouped(_labels(uf.parent))
            status, items, values = self.bank.sample_segments(
                t, members, seg_offsets)
            decoded = status == 0
            lo, hi = pair_unrank_array(items[decoded], self.n)
            merged_any = False
            for a, b, value in zip(
                lo.tolist(), hi.tolist(), values[decoded].tolist()
            ):
                if uf.union(a, b):
                    forest.append((a, b, abs(value)))
                    merged_any = True
            if not merged_any and t > 0 and not bool((status == 2).any()):
                # Every remaining component reported a zero outgoing
                # vector (status 1) in a full round; they are isolated
                # w.h.p.  A decode failure (2) says nothing — a later
                # round's fresh samplers may still recover an edge, so
                # it must not end the extraction early.
                break
        return uf, forest

    def is_connected(self) -> bool:
        """Whether the sketched graph is connected (w.h.p. correct)."""
        return len(self.connected_components()) == 1

    def memory_cells(self) -> int:
        """Total 1-sparse cells held (space accounting for experiments)."""
        return self.bank.memory_cells()


def _labels(parent: list[int]) -> np.ndarray:
    """Each node's component in a union-find forest, the components
    numbered in the order of their smallest node."""
    root = np.asarray(parent, dtype=np.int64)
    while not np.array_equal(up := root[root], root):
        root = up
    first = np.sort(np.unique(root, return_index=True)[1])
    by_root = np.empty(root.size, dtype=np.int64)
    by_root[root[first]] = np.arange(first.size)
    return by_root[root]


def _grouped(label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes grouped by component label, ascending within a group, and
    the ``C + 1`` group boundaries."""
    members = np.argsort(label, kind="stable")
    seg_offsets = np.zeros(int(label.max()) + 2, dtype=np.int64)
    np.cumsum(np.bincount(label), out=seg_offsets[1:])
    return members, seg_offsets
