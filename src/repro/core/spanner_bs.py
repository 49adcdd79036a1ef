"""k-adaptive Baswana–Sen emulation — Section 5 (first construction).

A ``(2k-1)``-spanner from ``k`` batches of linear measurements, with
``Õ(n^{1+1/k})`` measurements — the optimal stretch/space trade-off,
paying ``k`` adaptivity rounds (``k`` passes in a stream deployment).

Phases follow the paper's outline:

* **Growing trees** (batches ``1..k-1``).  Before batch ``i`` the root
  set ``S_i`` is subsampled from ``S_{i-1}`` with probability
  ``n^{-1/k}`` (consistent hashing — no data needed).  During the batch
  two sketches are filled for every live vertex ``u``: an ℓ₀ sampler
  restricted to edges into *sampled* trees, and a
  :class:`~repro.core.spanner_common.NeighborhoodSketch` bucketing the
  other endpoint's tree.  Afterwards each live vertex whose tree root
  was not re-sampled either **joins** an adjacent sampled tree (adding
  the witness edge) or — if none was found — **finishes**, adding one
  witness edge per adjacent tree (the paper's ``L(u)``).
* **Final clean-up** (batch ``k``).  Every vertex still in a tree adds
  one witness edge to every adjacent ``T_{k-1}`` tree.

The output spanner has ``O(k n^{1+1/k})`` edges in expectation and
stretch ``2k - 1`` w.h.p. (bucket collisions can miss a cluster with
small probability; the ``c_buckets`` knob trades space for that
probability — experiment E6 sweeps it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SamplerFailed
from ..graphs import Graph
from ..hashing import HashSource
from ..sketch import L0SamplerBank
from ..sketch.arena import check_params, ensure_arena, slot_bytes
from ..streams import DynamicGraphStream
from ..util import pair_count, pair_unrank
from .spanner_common import ClusterState, NeighborhoodSketch

__all__ = ["BaswanaSenSpanner", "SpannerBuildReport"]


@dataclass(frozen=True, slots=True)
class SpannerBuildReport:
    """Construction statistics of an adaptive spanner build.

    ``batches`` is the adaptivity ``r`` of the scheme (equals the number
    of stream passes a streaming deployment would use).
    """

    spanner: Graph
    batches: int
    stretch_bound: float
    memory_cells: int
    edges: int
    #: Bytes shipped site → coordinator across all batches of a sharded
    #: build, counted per site bank as the sharded runner counts a slot
    #: (:func:`~repro.sketch.arena.slot_bytes`: 16 per nonzero entry,
    #: or 32 per cell when dense); 0 for single-site builds, where
    #: nothing crosses a wire.
    shipped_bytes: int = 0


class BaswanaSenSpanner:
    """(2k-1)-spanner from k adaptive batches of sketches.

    Parameters
    ----------
    n:
        Node universe size.
    k:
        Stretch parameter; stretch bound is ``2k - 1``.
    source:
        Seed source.
    c_buckets:
        Scale for the per-vertex cluster-bucket budget
        (``buckets = c_buckets · n^{1/k} · log2 n``).
    sample_copies:
        Independent ℓ₀ samplers per vertex for the join-an-adjacent-
        sampled-tree step (retries against sampler failure).
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"spanner-distance"})

    def __init__(
        self,
        n: int,
        k: int,
        source: HashSource | None = None,
        c_buckets: float = 2.0,
        sample_copies: int = 3,
    ):
        check_params(n=n, k=k, c_buckets=c_buckets, sample_copies=sample_copies)
        if k < 2:
            raise ValueError(f"stretch parameter k must be >= 2, got {k}")
        if source is None:
            source = HashSource(0xB5)
        self.n = n
        self.k = k
        self.source = source
        self.sample_prob = n ** (-1.0 / k)
        self.buckets = max(
            2, int(math.ceil(c_buckets * n ** (1.0 / k) * math.log2(max(n, 2))))
        )
        self.sample_copies = sample_copies
        self._memory_cells = 0
        self._batches = 0
        self._shipped_bytes = 0

    # -- batch drivers -----------------------------------------------------------

    def build(self, stream: DynamicGraphStream) -> SpannerBuildReport:
        """Run all ``k`` adaptive batches over the (replayable) stream."""
        return self.build_sharded([stream])

    def build_sharded(
        self, shards: list[DynamicGraphStream]
    ) -> SpannerBuildReport:
        """Run the adaptive build over a multi-site partitioned stream.

        The coordinator-orchestrated round protocol of Section 1.1:
        each adaptive batch, every site fills the batch's sketches over
        *its shard only* and hands its banks over; the coordinator
        merges by addition — bit-identical to the
        single-stream sketches, by linearity — and takes the batch's
        join/finish decisions centrally.  The resulting spanner is
        therefore *exactly* the spanner ``build`` would produce on the
        concatenated stream, for any shard count or assignment.

        With a single shard nothing is handed over (``shipped_bytes``
        stays 0).
        """
        if not shards:
            raise ValueError("need at least one shard")
        for shard in shards:
            if shard.n != self.n:
                raise ValueError("shard and spanner node universes differ")
        self._memory_cells = 0
        self._batches = 0
        self._shipped_bytes = 0
        spanner = Graph(self.n)
        state = ClusterState(self.n)
        sampled: set[int] = set(range(self.n))  # S_0 = V

        for phase in range(1, self.k):
            sampled = self._subsample_roots(sampled, phase)
            self._run_growth_batch(shards, state, sampled, spanner, phase)

        self._run_cleanup_batch(shards, state, spanner)
        return SpannerBuildReport(
            spanner=spanner,
            batches=self._batches,
            stretch_bound=2 * self.k - 1,
            memory_cells=self._memory_cells,
            edges=spanner.num_edges(),
            shipped_bytes=self._shipped_bytes,
        )

    def _subsample_roots(self, previous: set[int], phase: int) -> set[int]:
        """Consistent subsample ``S_i ⊆ S_{i-1}`` at rate ``n^{-1/k}``."""
        coin = self.source.derive(0x5A, phase)
        return {r for r in previous if bool(coin.bernoulli(r, self.sample_prob))}

    def _make_growth_sketches(
        self, batch_source
    ) -> tuple[L0SamplerBank, NeighborhoodSketch]:
        """This phase's two sketch structures (identical at every site)."""
        join_bank = L0SamplerBank(
            families=self.sample_copies,
            samplers=self.n,
            domain=pair_count(self.n),
            source=batch_source.derive(1),
            rows=2,
            buckets=4,
        )
        hood = NeighborhoodSketch(self.n, self.buckets, batch_source.derive(2))
        return join_bank, hood

    def _run_growth_batch(
        self,
        shards: list[DynamicGraphStream],
        state: ClusterState,
        sampled: set[int],
        spanner: Graph,
        phase: int,
    ) -> None:
        """One tree-growing phase: fill sketches, then join or finish."""
        self._batches += 1
        batch_source = self.source.derive(0xB1, phase)

        # Sketch 1: per-vertex ℓ₀ samplers over edges into sampled trees.
        # Sketch 2: bucketed per-adjacent-tree witnesses.
        join_bank, hood = self._make_growth_sketches(batch_source)

        if len(shards) == 1:
            self._fill_growth_sketches(shards[0], state, sampled, join_bank)
            hood.consume(shards[0], state)
        else:
            for shard in shards:
                site_join, site_hood = self._make_growth_sketches(batch_source)
                self._fill_growth_sketches(shard, state, sampled, site_join)
                site_hood.consume(shard, state)
                self._ship(site_join, join_bank)
                self._ship(site_hood.bank, hood.bank)
        self._memory_cells += join_bank.memory_cells() + hood.memory_cells()

        # Post-processing: decide every live vertex whose root died.
        for u in range(self.n):
            root = state.root[u]
            if root is None or root in sampled:
                continue
            joined = self._try_join(u, join_bank, state, sampled, spanner)
            if joined:
                continue
            # No adjacent sampled tree found: record one edge per
            # adjacent tree and finish u.
            for _root, (a, x) in hood.edges_per_cluster(u, state).items():
                spanner.add_edge(a, x, 1.0)
            state.finish(u)

    def _fill_growth_sketches(
        self,
        stream: DynamicGraphStream,
        state: ClusterState,
        sampled: set[int],
        join_bank: L0SamplerBank,
    ) -> None:
        """Replay the stream into the join samplers (restricted routing)."""
        batch = stream.as_batch()
        root = state.root_array()
        in_sampled = np.zeros(self.n, dtype=bool)
        if sampled:
            in_sampled[np.fromiter(sampled, dtype=np.int64)] = True
        samplers: list[np.ndarray] = []
        items: list[np.ndarray] = []
        deltas: list[np.ndarray] = []
        for u, x in ((batch.lo, batch.hi), (batch.hi, batch.lo)):
            rx = root[x]
            mask = (root[u] >= 0) & (rx >= 0)
            mask &= in_sampled[np.where(rx >= 0, rx, 0)]
            if not mask.any():
                continue
            samplers.append(u[mask])
            items.append(batch.ranks[mask])
            deltas.append(batch.delta[mask])
        if not samplers:
            return
        sampler_rows = np.concatenate(samplers)
        item_rows = np.concatenate(items)
        delta_rows = np.concatenate(deltas)
        for copy in range(self.sample_copies):
            join_bank.update(
                np.full(sampler_rows.size, copy, dtype=np.int64),
                sampler_rows,
                item_rows,
                delta_rows,
            )

    def _try_join(
        self,
        u: int,
        join_bank: L0SamplerBank,
        state: ClusterState,
        sampled: set[int],
        spanner: Graph,
    ) -> bool:
        """Attach ``u`` to an adjacent sampled tree if a sampler finds one."""
        for copy in range(self.sample_copies):
            try:
                item, _value = join_bank.sample(copy, u)
            except SamplerFailed:
                continue
            a, b = pair_unrank(item, self.n)
            x = b if a == u else a
            rx = state.root[x]
            if rx is None or rx not in sampled:
                continue  # stale decode; try another copy
            spanner.add_edge(u, x, 1.0)
            state.root[u] = rx
            return True
        return False

    def _ship(self, bank: L0SamplerBank, into: L0SamplerBank) -> None:
        """Hand a site bank to the coordinator: merge it into ``into``.

        ``shipped_bytes`` counts the handoff as the sharded runner
        counts a site's slot (:func:`~repro.sketch.arena.slot_bytes`).
        """
        arena = ensure_arena(bank)
        nnz = int(np.count_nonzero(arena.buffer))
        self._shipped_bytes += slot_bytes(nnz, arena.cells)
        into.merge(bank)

    def _run_cleanup_batch(
        self, shards: list[DynamicGraphStream], state: ClusterState,
        spanner: Graph,
    ) -> None:
        """Final batch: one witness edge per adjacent surviving tree."""
        self._batches += 1
        hood_source = self.source.derive(0xB1, self.k, 0xF)
        hood = NeighborhoodSketch(self.n, self.buckets, hood_source)
        if len(shards) == 1:
            hood.consume(shards[0], state)
        else:
            for shard in shards:
                site_hood = NeighborhoodSketch(
                    self.n, self.buckets, hood_source
                )
                site_hood.consume(shard, state)
                self._ship(site_hood.bank, hood.bank)
        self._memory_cells += hood.memory_cells()
        for u in range(self.n):
            if not state.alive(u):
                continue
            for root, (a, x) in hood.edges_per_cluster(u, state).items():
                if root == state.root[u]:
                    continue  # intra-tree edges are covered by tree edges
                spanner.add_edge(a, x, 1.0)
