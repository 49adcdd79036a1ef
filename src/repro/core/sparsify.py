"""``SPARSIFICATION`` — Fig. 3; Theorems 3.4 and 3.7.

The space-efficient sparsifier.  Instead of paying for a full
``k-EDGECONNECT`` witness with ``k = O(ε^{-2} log² n)`` at every level,
it runs:

1. a **rough sparsifier** — SIMPLE-SPARSIFICATION at constant accuracy
   ``ε = 1/2`` — whose job is only to estimate every edge's
   connectivity within a constant factor;
2. per subsampling level ``i`` and node ``u``, a ``k-RECOVERY`` sketch
   of the signed incidence vector ``x^{u,i}`` of ``G_i`` (Eq. 1);
3. post-processing over the **Gomory–Hu tree** ``T`` of the rough
   sparsifier: each tree edge induces a minimum cut ``C``; the
   appropriate sampling level ``j`` is computed from the cut weight;
   summing the level-``j`` recovery sketches over the shore ``A``
   cancels internal edges (Eq. 1's telescoping) and k-RECOVERY returns
   every edge of ``G_j`` crossing ``C``; a recovered edge ``(u, v)`` is
   kept — with weight ``2^j`` — iff the *bottleneck* tree edge on its
   u-v path is exactly the tree edge being processed, which assigns
   each graph edge to at most one cut and samples it at a level matched
   to its connectivity.

If a recovery fails (more than ``k`` edges crossed the cut at level
``j`` — a low-probability event the theory budgets for), we escalate to
level ``j+1`` where the expected crossing count halves, and record the
escalation; the kept weight escalates with the level, so the estimator
stays unbiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import RecoveryFailed
from ..graphs import Graph, gomory_hu_tree
from ..hashing import HashSource
from ..sketch import ArenaBacked, SparseRecoveryBank
from ..sketch.arena import check_params
from ..sketch.bank import CellBank
from ..streams import EdgeUpdate, StreamBatch
from ..util import ceil_log2, pair_unrank
from .sparsifier import Sparsifier
from .sparsify_simple import SimpleSparsification, default_sparsifier_k

__all__ = ["Sparsification", "SparsificationDiagnostics"]


@dataclass(slots=True)
class SparsificationDiagnostics:
    """Counters exposed after post-processing (experiment E3 reports them)."""

    cuts_processed: int = 0
    recoveries_failed: int = 0
    level_escalations: int = 0
    edges_recovered: int = 0
    edges_kept: int = 0


class Sparsification(ArenaBacked):
    """Single-pass dynamic-stream ε-sparsifier (Fig. 3).

    Parameters
    ----------
    n:
        Node universe size.
    epsilon:
        Target cut accuracy.
    source:
        Seed source.
    c_k:
        Constant scale for the k-RECOVERY capacity
        (``k = c_k ε^{-2} log2² n``, Fig. 3 step 3b).
    c_rough:
        Constant scale handed to the rough sparsifier.
    c_level:
        Constant inside the level rule of step 4(b),
        ``j = floor(log2(max(c_level · w(e) ε² / log2 n, 1)))``; a
        finite real number above 0.
    levels:
        Subsampling depth, default ``2 log2 n``.
    rounds, rows, buckets:
        Rough-sparsifier tuning knobs.
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"sparsifier"})

    def __init__(
        self,
        n: int,
        epsilon: float = 0.5,
        source: HashSource | None = None,
        c_k: float = 0.5,
        c_rough: float = 0.5,
        c_level: float = 1.0,
        levels: int | None = None,
        rounds: int | None = None,
        rows: int = 2,
        buckets: int = 4,
    ):
        check_params(n=n, epsilon=epsilon, c_k=c_k, c_rough=c_rough,
                     c_level=c_level, levels=levels, rounds=rounds, rows=rows,
                     buckets=buckets)
        if source is None:
            source = HashSource(0xBE77)
        self.n = n
        self.epsilon = epsilon
        self.c_k = c_k
        self.c_rough = c_rough
        self.c_level = c_level
        #: Seed of the constructing source (serialisation / merge checks).
        self.source_seed = getattr(source, "seed", None)
        self.levels = levels if levels is not None else 2 * ceil_log2(n)
        self.k = default_sparsifier_k(n, epsilon, c_k)
        self.rough = SimpleSparsification(
            n,
            epsilon=0.5,
            source=source.derive(0x52),
            c_k=c_rough,
            levels=self.levels,
            rounds=rounds,
            rows=rows,
            buckets=buckets,
        )
        self._level_source = source.derive(0x33)
        domain = n * (n - 1) // 2
        self.recovery = SparseRecoveryBank(
            groups=self.levels + 1,
            instances=n,
            domain=domain,
            k=self.k,
            source=source.derive(0x44),
        )
        self.diagnostics = SparsificationDiagnostics()

    # -- stream side -----------------------------------------------------------

    def update(self, update: EdgeUpdate) -> None:
        """Feed one token to the rough sparsifier and the recovery bank."""
        self.rough.update(update)
        lo, hi, delta = update.lo, update.hi, update.delta
        e = lo * self.n - lo * (lo + 1) // 2 + (hi - lo - 1)
        top = int(self._level_source.levels(e, self.levels))
        groups = np.repeat(np.arange(top + 1, dtype=np.int64), 2)
        insts = np.tile(np.array([lo, hi], dtype=np.int64), top + 1)
        items = np.full(2 * (top + 1), e, dtype=np.int64)
        deltas = np.tile(np.array([delta, -delta], dtype=np.int64), top + 1)
        self.recovery.update(groups, insts, items, deltas)

    def consume_batch(self, batch: StreamBatch) -> "Sparsification":
        """Ingest one columnar batch (rough sparsifier + recovery bank)."""
        self._check_universe(batch)
        if len(batch) == 0:
            return self
        self.rough.consume_batch(batch)
        lo, hi, dl, e = batch.lo, batch.hi, batch.delta, batch.ranks
        top = np.asarray(self._level_source.levels(e, self.levels), dtype=np.int64)
        lengths = top + 1
        total = int(lengths.sum())
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        rep_group = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
        rep_lo = np.repeat(lo, lengths)
        rep_hi = np.repeat(hi, lengths)
        rep_e = np.repeat(e, lengths)
        rep_d = np.repeat(dl, lengths)
        groups = np.concatenate([rep_group, rep_group])
        insts = np.concatenate([rep_lo, rep_hi])
        items = np.concatenate([rep_e, rep_e])
        deltas = np.concatenate([rep_d, -rep_d])
        self.recovery.update(groups, insts, items, deltas)
        return self

    def _cell_banks(self) -> list[CellBank]:
        """Constituent cell banks in serialisation/arena order."""
        return self.rough._cell_banks() + [self.recovery.bank]

    def _params(self) -> dict:
        """Constructor parameters that, with the seed, fix the measurement matrix."""
        return {"n": self.n, "epsilon": self.epsilon, "c_k": self.c_k,
                "c_rough": self.c_rough, "c_level": self.c_level,
                "k": self.k, "levels": self.levels,
                **self.rough.instances[0].groups[0]._grid()}

    # -- post-processing ---------------------------------------------------------

    def _target_level(self, cut_weight: float) -> int:
        """Fig. 3 step 4(b): the sampling level matched to a cut weight."""
        log2n = math.log2(max(self.n, 2))
        raw = max(self.c_level * cut_weight * self.epsilon**2 / log2n, 1.0)
        return min(int(math.floor(math.log2(raw))), self.levels)

    def sparsifier(self) -> Sparsifier:
        """Run Fig. 3, step 4 and return the weighted sparsifier."""
        diag = SparsificationDiagnostics()
        rough_sp = self.rough.sparsifier()
        rough_graph = rough_sp.graph
        result = Graph(self.n)
        edge_levels: dict[tuple[int, int], int] = {}

        if rough_graph.num_edges() == 0:
            self.diagnostics = diag
            return Sparsifier(
                graph=result,
                epsilon=self.epsilon,
                edge_levels=edge_levels,
                memory_cells=self.memory_cells(),
            )

        tree = gomory_hu_tree(rough_graph)
        for a, b, w in tree.tree_edges():
            diag.cuts_processed += 1
            side = sorted(tree.induced_cut_side(a, b))
            j = self._target_level(w)
            crossing: dict[int, int] | None = None
            while j <= self.levels:
                try:
                    crossing = self.recovery.decode_sum(j, side)
                    break
                except RecoveryFailed:
                    diag.recoveries_failed += 1
                    j += 1
                    diag.level_escalations += 1
            if crossing is None:
                continue
            for item, value in crossing.items():
                diag.edges_recovered += 1
                u, v = pair_unrank(item, self.n)
                f = tree.min_weight_edge_on_path(min(u, v), max(u, v))
                if not tree.same_edge(f, (a, b, w)):
                    continue
                key = (u, v)
                if key in edge_levels:
                    continue
                mult = abs(value)
                result.add_edge(u, v, float((2**j) * mult))
                edge_levels[key] = j
                diag.edges_kept += 1
        self.diagnostics = diag
        return Sparsifier(
            graph=result,
            epsilon=self.epsilon,
            edge_levels=edge_levels,
            memory_cells=self.memory_cells(),
        )

    def memory_cells(self) -> int:
        """Total 1-sparse cells (rough sparsifier + recovery bank)."""
        return self.rough.memory_cells() + self.recovery.memory_cells()
