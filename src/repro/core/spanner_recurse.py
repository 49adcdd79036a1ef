"""``RECURSECONNECT`` — Section 5.1; Theorem 5.1 and Lemma 5.1.

A ``(k^{log₂5} - 1)``-spanner from only ``log k`` adaptive batches (plus
a final read-out), with ``Õ(n^{1+1/k})`` measurements — trading stretch
for a dramatic cut in adaptivity compared with the Baswana–Sen
emulation.

The idea (paper, §5.1): growing BFS-like regions one hop per pass is
slow; instead each phase *contracts* the graph aggressively so that the
supernode count falls doubly exponentially, maintaining the invariant
``|G̃_i| <= n^{1 - (2^i - 1)/k}``:

1. every supernode samples ``≈ n^{2^i/k}`` distinct neighbouring
   supernodes via bucketed ℓ₀ samplers over the original edge domain
   (witness edges come for free);
2. supernodes with fewer sampled neighbours than the degree threshold
   are *low degree*: all their witness edges join the spanner and they
   retire;
3. among high-degree supernodes a set of cluster centers, pairwise
   ``>= 3`` hops apart in the sampled graph ``H_i``, is chosen greedily
   (the approximate-k-center device of the paper); each high-degree
   supernode lies within 2 hops of a center, and the 1–2 witness edges
   of its assignment path join the spanner;
4. each cluster collapses into one supernode of ``G̃_{i+1}``.

After ``≈ log₂ k`` phases at most ``√n`` supernodes remain; the final
batch keeps one ℓ₀ sampler per *pair* of supernodes — ``O(n)`` space —
and adds one witness edge per connected pair.

The collapsed-set diameter ``a_i`` obeys ``a_{i+1} <= 5 a_i + 4`` with
``a_1 <= 4`` (Lemma 5.1), giving the ``k^{log₂5} - 1`` stretch bound.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from ..errors import SamplerFailed
from ..graphs import Graph
from ..hashing import HashSource
from ..sketch import L0SamplerBank
from ..sketch.arena import check_params
from ..streams import DynamicGraphStream
from ..util import pair_count, pair_unrank
from .spanner_bs import SpannerBuildReport

__all__ = ["RecurseConnectSpanner", "recurse_connect_stretch_bound"]


def recurse_connect_stretch_bound(k: int) -> float:
    """The Theorem 5.1 stretch bound ``k^{log₂ 5} - 1``."""
    return k ** math.log2(5.0) - 1.0


class RecurseConnectSpanner:
    """log(k)-adaptive spanner via recursive contraction (Theorem 5.1).

    Parameters
    ----------
    n:
        Node universe size.
    k:
        Trade-off parameter; stretch bound ``k^{log₂5} - 1`` with
        ``Õ(n^{1+1/k})`` measurements over ``ceil(log₂ k) + 1`` batches.
    source:
        Seed source.
    c_deg:
        Scale for the per-phase degree threshold ``n^{2^i/k}``.
    c_buckets:
        Buckets per supernode as a multiple of the degree threshold
        (controls the probability every neighbour of a low-degree
        supernode is recovered).
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"spanner-distance"})

    def __init__(
        self,
        n: int,
        k: int,
        source: HashSource | None = None,
        c_deg: float = 1.0,
        c_buckets: float = 4.0,
    ):
        check_params(n=n, k=k, c_deg=c_deg, c_buckets=c_buckets)
        if k < 2:
            raise ValueError(f"parameter k must be >= 2, got {k}")
        if source is None:
            source = HashSource(0x9C)
        self.n = n
        self.k = k
        self.source = source
        self.c_deg = c_deg
        self.c_buckets = c_buckets
        self.max_phases = max(1, math.ceil(math.log2(k)))
        #: Supernode-count trajectory across phases (E7 reports it).
        self.contraction_trajectory: list[int] = []

    def build(self, stream: DynamicGraphStream) -> SpannerBuildReport:
        """Run the contraction phases plus the final pair read-out."""
        if stream.n != self.n:
            raise ValueError("stream and spanner node universes differ")
        spanner = Graph(self.n)
        memory_cells = 0
        batches = 0
        # phi[v] = current supernode of vertex v, or None once retired.
        phi: list[int | None] = list(range(self.n))
        alive: list[int] = list(range(self.n))
        self.contraction_trajectory = [len(alive)]

        for phase in range(self.max_phases):
            if len(alive) <= max(2, int(math.isqrt(self.n))):
                break
            batches += 1
            degree_threshold = max(
                2, int(math.ceil(self.c_deg * self.n ** (2**phase / self.k)))
            )
            buckets = max(2, int(math.ceil(self.c_buckets * degree_threshold)))
            phi, alive, cells = self._contract_phase(
                stream, spanner, phi, alive, degree_threshold, buckets, phase
            )
            memory_cells += cells
            self.contraction_trajectory.append(len(alive))

        batches += 1
        memory_cells += self._final_pairs_batch(stream, spanner, phi, alive)
        return SpannerBuildReport(
            spanner=spanner,
            batches=batches,
            stretch_bound=recurse_connect_stretch_bound(self.k),
            memory_cells=memory_cells,
            edges=spanner.num_edges(),
        )

    # -- one contraction phase ----------------------------------------------------

    def _contract_phase(
        self,
        stream: DynamicGraphStream,
        spanner: Graph,
        phi: list[int | None],
        alive: list[int],
        degree_threshold: int,
        buckets: int,
        phase: int,
    ) -> tuple[list[int | None], list[int], int]:
        """Sample neighbourhoods, retire low degree, cluster, collapse."""
        batch_source = self.source.derive(0x9C, phase)
        bank = L0SamplerBank(
            families=1,
            samplers=len(alive) * buckets,
            domain=pair_count(self.n),
            source=batch_source.derive(1),
            rows=2,
            buckets=4,
        )
        bucket_hash = batch_source.derive(2)

        # Replay the stream routed by the *current* contraction map,
        # evaluated columnar: map endpoints to supernodes, drop retired
        # and intra-supernode tokens, and bucket-hash whole arrays.
        batch = stream.as_batch()
        phi_arr = np.fromiter(
            (p if p is not None else -1 for p in phi), dtype=np.int64, count=self.n
        )
        index_arr = np.full(self.n, -1, dtype=np.int64)
        index_arr[np.asarray(alive, dtype=np.int64)] = np.arange(
            len(alive), dtype=np.int64
        )
        pa = phi_arr[batch.lo]
        pb = phi_arr[batch.hi]
        mask = (pa >= 0) & (pb >= 0) & (pa != pb)
        if mask.any():
            pa, pb = pa[mask], pb[mask]
            item_rows = batch.ranks[mask]
            delta_rows = batch.delta[mask]
            rows = []
            for mine, other in ((pa, pb), (pb, pa)):
                b = np.asarray(bucket_hash.bucket(other, buckets), dtype=np.int64)
                rows.append(index_arr[mine] * buckets + b)
            bank.update(
                np.zeros(2 * item_rows.size, dtype=np.int64),
                np.concatenate(rows),
                np.concatenate([item_rows, item_rows]),
                np.concatenate([delta_rows, delta_rows]),
            )

        # Recover sampled neighbourhoods: H_i and witness edges.
        neighbors: dict[int, dict[int, tuple[int, int]]] = {p: {} for p in alive}
        for p in alive:
            base = int(index_arr[p]) * buckets
            for b in range(buckets):
                try:
                    item, _value = bank.sample(0, base + b)
                except SamplerFailed:
                    continue
                u, v = pair_unrank(item, self.n)
                pu, pv = phi[u], phi[v]
                if pu == p and pv is not None and pv != p:
                    neighbors[p].setdefault(pv, (u, v))
                elif pv == p and pu is not None and pu != p:
                    neighbors[p].setdefault(pu, (u, v))

        low = {p for p in alive if len(neighbors[p]) < degree_threshold}
        high = [p for p in alive if p not in low]

        # Low-degree supernodes: keep every witness edge, then retire.
        for p in low:
            for (u, v) in neighbors[p].values():
                spanner.add_edge(u, v, 1.0)

        # Cluster the high-degree supernodes on H_i (all alive nodes as
        # intermediate hops), centers pairwise >= 3 hops apart.
        hi_adj: dict[int, dict[int, tuple[int, int]]] = {p: {} for p in alive}
        for p in alive:
            for q, witness in neighbors[p].items():
                hi_adj[p].setdefault(q, witness)
                hi_adj[q].setdefault(p, witness)

        centers: list[int] = []
        blocked: set[int] = set()
        for p in high:
            if p in blocked:
                continue
            centers.append(p)
            blocked.add(p)
            for q, _w in self._within_two_hops(p, hi_adj):
                blocked.add(q)

        # Assign every high-degree supernode to a center within 2 hops.
        assignment: dict[int, int] = {c: c for c in centers}
        for c in centers:
            for q, path_edges in self._within_two_hops(c, hi_adj):
                if q in low or q in assignment:
                    continue
                assignment[q] = c
                for (u, v) in path_edges:
                    spanner.add_edge(u, v, 1.0)
        for p in high:
            if p not in assignment:
                # Maximality gap (sampling noise): promote to center.
                centers.append(p)
                assignment[p] = p

        # Collapse: new supernode id = center id.
        new_phi: list[int | None] = [None] * self.n
        for v in range(self.n):
            p = phi[v]
            if p is None or p in low:
                continue
            new_phi[v] = assignment[p]
        return new_phi, centers, bank.memory_cells()

    @staticmethod
    def _within_two_hops(
        start: int, hi_adj: dict[int, dict[int, tuple[int, int]]]
    ) -> list[tuple[int, list[tuple[int, int]]]]:
        """Supernodes within 2 hops of ``start`` with their witness paths."""
        out: list[tuple[int, list[tuple[int, int]]]] = []
        seen = {start}
        frontier: deque[tuple[int, list[tuple[int, int]]]] = deque([(start, [])])
        depth = {start: 0}
        while frontier:
            node, path = frontier.popleft()
            if depth[node] == 2:
                continue
            for nbr, witness in hi_adj[node].items():
                if nbr in seen:
                    continue
                seen.add(nbr)
                depth[nbr] = depth[node] + 1
                new_path = path + [witness]
                out.append((nbr, new_path))
                frontier.append((nbr, new_path))
        return out

    # -- final read-out --------------------------------------------------------------

    def _final_pairs_batch(
        self,
        stream: DynamicGraphStream,
        spanner: Graph,
        phi: list[int | None],
        alive: list[int],
    ) -> int:
        """One ℓ₀ sampler per supernode pair; add a witness edge per pair."""
        if len(alive) < 2:
            return 0
        num_pairs = len(alive) * (len(alive) - 1) // 2
        bank = L0SamplerBank(
            families=1,
            samplers=num_pairs,
            domain=pair_count(self.n),
            source=self.source.derive(0x9C, 0xF1),
            rows=2,
            buckets=4,
        )
        a = len(alive)
        batch = stream.as_batch()
        phi_arr = np.fromiter(
            (p if p is not None else -1 for p in phi), dtype=np.int64, count=self.n
        )
        index_arr = np.full(self.n, -1, dtype=np.int64)
        index_arr[np.asarray(alive, dtype=np.int64)] = np.arange(a, dtype=np.int64)
        pa = phi_arr[batch.lo]
        pb = phi_arr[batch.hi]
        mask = (pa >= 0) & (pb >= 0) & (pa != pb)
        if mask.any():
            ia = index_arr[pa[mask]]
            ib = index_arr[pb[mask]]
            lo_i = np.minimum(ia, ib)
            hi_i = np.maximum(ia, ib)
            pairs = lo_i * a - lo_i * (lo_i + 1) // 2 + (hi_i - lo_i - 1)
            bank.update(
                np.zeros(pairs.size, dtype=np.int64),
                pairs,
                batch.ranks[mask],
                batch.delta[mask],
            )
        for pair in range(num_pairs):
            try:
                item, _value = bank.sample(0, pair)
            except SamplerFailed:
                continue
            u, v = pair_unrank(item, self.n)
            spanner.add_edge(u, v, 1.0)
        return bank.memory_cells()
