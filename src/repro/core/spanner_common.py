"""Shared machinery for the adaptive spanner sketches of Section 5.

Both spanner constructions are *r-adaptive sketching schemes*
(Definition 2): measurements are performed in batches, and the
measurements of batch ``r`` may depend on the outcomes of batches
``1..r-1``.  Operationally each batch replays the stream into freshly
chosen sketches — in a multi-pass streaming deployment a batch is a
pass; in a MapReduce deployment a round (Section 1.1).

:class:`ClusterState` tracks the vertex→cluster-root assignment shared
by both algorithms, and :class:`NeighborhoodSketch` wraps the
per-vertex, per-bucket ℓ₀ sampler grid that recovers one witness edge
per adjacent cluster — the device the paper describes as "independently
partition the vertex set into subsets and use an ℓ₀-sampler for each
partition".
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplerFailed
from ..hashing import HashSource
from ..sketch import L0SamplerBank
from ..streams import DynamicGraphStream
from ..util import pair_count, pair_unrank

__all__ = ["ClusterState", "NeighborhoodSketch"]


class ClusterState:
    """Vertex → cluster-root assignment with liveness.

    ``root[v]`` is the cluster root of vertex ``v``; ``None`` marks a
    *finished* vertex (its adjacencies are already covered by spanner
    edges, so later batches ignore it).
    """

    __slots__ = ("n", "root")

    def __init__(self, n: int):
        self.n = n
        #: Cluster root per vertex; initially every vertex is its own root.
        self.root: list[int | None] = list(range(n))

    def alive(self, v: int) -> bool:
        """Whether vertex ``v`` still participates."""
        return self.root[v] is not None

    def finish(self, v: int) -> None:
        """Mark vertex ``v`` finished."""
        self.root[v] = None

    def roots(self) -> set[int]:
        """The set of live cluster roots."""
        return {r for r in self.root if r is not None}

    def root_array(self) -> np.ndarray:
        """The assignment as an ``int64`` array, ``-1`` marking finished."""
        return np.fromiter(
            (r if r is not None else -1 for r in self.root),
            dtype=np.int64,
            count=self.n,
        )

    def members(self) -> dict[int, list[int]]:
        """Live cluster members grouped by root."""
        out: dict[int, list[int]] = {}
        for v, r in enumerate(self.root):
            if r is not None:
                out.setdefault(r, []).append(v)
        return out


class NeighborhoodSketch:
    """Per-vertex bucketed ℓ₀ samplers over *cluster-routed* edges.

    For each live vertex ``u`` and bucket ``b``, an ℓ₀ sampler sketches
    the sub-vector of edges ``(u, x)`` whose *other endpoint's cluster*
    hashes to ``b`` (the clustering is fixed at batch start, so the
    routing is a legitimate linear measurement).  Querying all buckets
    of ``u`` recovers ≈ one witness edge per adjacent cluster whenever
    ``u`` is adjacent to at most ~``buckets`` clusters.

    Parameters
    ----------
    n:
        Node universe size.
    buckets:
        Cluster-hash buckets per vertex (the ``Õ(n^{1/k})`` budget).
    source:
        Seed source for this batch (fresh per batch — adaptivity).
    restrict_roots:
        If given, only edges whose other endpoint's root is in this set
        are sketched (used for "edges into sampled clusters").
    """

    def __init__(
        self,
        n: int,
        buckets: int,
        source: HashSource,
        restrict_roots: set[int] | None = None,
    ):
        self.n = n
        self.buckets = max(1, buckets)
        self._cluster_hash = source.derive(0xC1)
        self.restrict_roots = restrict_roots
        self.bank = L0SamplerBank(
            families=1,
            samplers=n * self.buckets,
            domain=pair_count(n),
            source=source.derive(0xBA),
            rows=2,
            buckets=4,
        )

    def consume(self, stream: DynamicGraphStream, state: ClusterState) -> None:
        """Replay the stream, routing each token by the *fixed* clustering.

        Pulls the stream's shared columnar batch (replays across batches
        reuse one materialisation) and evaluates the liveness/cluster
        routing for all tokens and both edge directions as array masks.
        """
        batch = stream.as_batch()
        root = state.root_array()
        allowed: np.ndarray | None = None
        if self.restrict_roots is not None:
            allowed = np.zeros(self.n, dtype=bool)
            if self.restrict_roots:
                allowed[np.fromiter(self.restrict_roots, dtype=np.int64)] = True
        samplers: list[np.ndarray] = []
        items: list[np.ndarray] = []
        deltas: list[np.ndarray] = []
        for u, x in ((batch.lo, batch.hi), (batch.hi, batch.lo)):
            rx = root[x]
            mask = (root[u] >= 0) & (rx >= 0)
            if allowed is not None:
                mask &= allowed[np.where(rx >= 0, rx, 0)]
            if not mask.any():
                continue
            rx = rx[mask]
            bucket = np.asarray(
                self._cluster_hash.bucket(rx, self.buckets), dtype=np.int64
            )
            samplers.append(u[mask] * self.buckets + bucket)
            items.append(batch.ranks[mask])
            deltas.append(batch.delta[mask])
        if samplers:
            sampler_rows = np.concatenate(samplers)
            self.bank.update(
                np.zeros(sampler_rows.size, dtype=np.int64),
                sampler_rows,
                np.concatenate(items),
                np.concatenate(deltas),
            )

    def edges_per_cluster(
        self, u: int, state: ClusterState
    ) -> dict[int, tuple[int, int]]:
        """One witness edge per adjacent cluster of ``u`` (best effort).

        Returns ``{root: (u, x)}``; clusters colliding in a bucket may
        be missed — the buckets budget controls that probability.
        """
        out: dict[int, tuple[int, int]] = {}
        for b in range(self.buckets):
            try:
                item, _value = self.bank.sample(0, u * self.buckets + b)
            except SamplerFailed:
                continue
            a, c = pair_unrank(item, self.n)
            x = c if a == u else a
            if x == u:
                continue
            rx = state.root[x]
            if rx is None:
                continue
            out.setdefault(rx, (u, x))
        return out

    def memory_cells(self) -> int:
        """Total 1-sparse cells held by this batch's sketch."""
        return self.bank.memory_cells()
