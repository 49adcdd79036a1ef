"""``MINCUT`` — Fig. 1; Theorems 3.2 and 3.6.

Single-pass ``(1 + ε)`` approximation of the global minimum cut in a
dynamic graph stream.  The algorithm maintains the nested subsampling
hierarchy ``G = G_0 ⊇ G_1 ⊇ ... ⊇ G_{2 log n}`` (edge ``e`` survives to
level ``i`` iff the first ``i`` coins of a consistent hash of ``e`` all
came up heads) together with a ``k-EDGECONNECT`` witness per level.
In post-processing it finds the first level whose witness min cut drops
below ``k`` and rescales: ``λ ≈ 2^j λ(H_j)``.

Why it works (Lemma 3.1, Karger): sampling each edge with probability
``p >= 6 λ^{-1} ε^{-2} log n`` preserves all cuts to ``(1 ± ε)``; for
levels ``i <= i* = log(λ ε² / (6 log n))`` the subsampled graph is such
a sample, and by level ``i*`` the minimum cut has shrunk below ``k``,
so the recursion stops in the valid range w.h.p.

Practical constants: the theory sets ``k = O(ε^{-2} log n)`` with a
pessimistic constant; :class:`MinCutSketch` exposes ``c_k`` so
experiments can sweep the constant and observe the accuracy/space
trade-off (EXPERIMENTS.md E1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..graphs import Graph, global_min_cut_value
from ..hashing import HashSource
from ..kernels import get as _get_kernel
from ..sketch import ArenaBacked
from ..sketch.arena import check_params
from ..sketch.bank import CellBank
from ..streams import EdgeUpdate, StreamBatch
from ..util import ceil_log2
from .edge_connect import EdgeConnectivitySketch

__all__ = ["MinCutSketch", "MinCutResult", "default_k"]

_K_LEVEL_ROUTE = _get_kernel("level_route")


def default_k(n: int, epsilon: float, c_k: float) -> int:
    """Witness connectivity parameter ``k = max(2, c_k ε^{-2} log2 n)``.

    The paper's constant (via Lemma 3.1) is 6 with natural logs and
    high-probability slack; at experiment scale ``c_k`` in the 0.5–2
    range already exhibits the theorem's behaviour.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return max(2, int(round(c_k * math.log2(max(n, 2)) / epsilon**2)))


@dataclass(frozen=True, slots=True)
class MinCutResult:
    """Outcome of the MINCUT post-processing.

    Attributes
    ----------
    value:
        The ``(1 ± ε)`` estimate ``2^j λ(H_j)``.
    stop_level:
        The level ``j`` where the recursion stopped (Fig. 1, step 3).
    witness_cut_values:
        ``λ(H_i)`` per inspected level, for diagnostics and E1's
        stop-level analysis.
    k:
        The witness parameter used.
    """

    value: float
    stop_level: int
    witness_cut_values: list[float]
    k: int


class MinCutSketch(ArenaBacked):
    """Single-pass dynamic-stream minimum cut (Fig. 1).

    Parameters
    ----------
    n:
        Node universe size.
    epsilon:
        Target relative accuracy.
    source:
        Seed source.
    c_k:
        Constant scale for the witness parameter ``k`` (see
        :func:`default_k`).
    levels:
        Subsampling depth; defaults to the paper's ``2 log n``.
    rounds, rows, buckets:
        Passed through to the underlying forest sketches.
    """

    #: Queries this class answers through the repro.api capability registry.
    CAPABILITIES = frozenset({"mincut"})

    def __init__(
        self,
        n: int,
        epsilon: float = 0.5,
        source: HashSource | None = None,
        c_k: float = 1.0,
        levels: int | None = None,
        rounds: int | None = None,
        rows: int = 2,
        buckets: int = 4,
    ):
        check_params(n=n, epsilon=epsilon, c_k=c_k, levels=levels,
                     rounds=rounds, rows=rows, buckets=buckets)
        if source is None:
            source = HashSource(0x5EED)
        self.n = n
        self.epsilon = epsilon
        self.c_k = c_k
        #: Seed of the constructing source (serialisation / merge checks).
        self.source_seed = getattr(source, "seed", None)
        self.k = default_k(n, epsilon, c_k)
        self.levels = levels if levels is not None else 2 * ceil_log2(n)
        self._level_source = source.derive(0x17)
        self.instances = [
            EdgeConnectivitySketch(
                n,
                self.k,
                source.derive(0x11, i),
                rounds=rounds,
                rows=rows,
                buckets=buckets,
            )
            for i in range(self.levels + 1)
        ]

    # -- stream side -----------------------------------------------------------

    def _edge_level(self, lo: int, hi: int) -> int:
        """Deepest subsampling level edge ``{lo, hi}`` survives to."""
        e = lo * self.n - lo * (lo + 1) // 2 + (hi - lo - 1)
        return int(self._level_source.levels(e, self.levels))

    def update(self, update: EdgeUpdate) -> None:
        """Route one edge update into levels ``0 .. level(e)``."""
        top = self._edge_level(update.lo, update.hi)
        for i in range(top + 1):
            self.instances[i].update(update)

    def consume_batch(self, batch: StreamBatch) -> "MinCutSketch":
        """Ingest one columnar batch, subsampled into every level.

        The ``level_route`` kernel sorts the batch once by deepest
        surviving level, so every level's payload is a nested prefix of
        the sorted batch instead of a fresh boolean-mask copy; scatter
        results are order-independent, so the bytes are unchanged.
        """
        self._check_universe(batch)
        top = np.asarray(
            self._level_source.levels(batch.ranks, self.levels), dtype=np.int64
        )
        order, survivors = _K_LEVEL_ROUTE(top, self.levels)
        lo = batch.lo[order]
        hi = batch.hi[order]
        delta = batch.delta[order]
        ranks = batch.ranks[order]
        for i, instance in enumerate(self.instances):
            keep = int(survivors[i])
            if keep == 0:
                break
            instance.update_edges(
                lo[:keep], hi[:keep], delta[:keep], items=ranks[:keep],
            )
        return self

    def _cell_banks(self) -> list[CellBank]:
        """Constituent cell banks in serialisation/arena order."""
        return [b for inst in self.instances for b in inst._cell_banks()]

    def _params(self) -> dict:
        """Constructor parameters that, with the seed, fix the measurement matrix."""
        return {"n": self.n, "epsilon": self.epsilon, "c_k": self.c_k,
                "k": self.k, "levels": self.levels,
                **self.instances[0].groups[0]._grid()}

    # -- post-processing ---------------------------------------------------------

    def estimate(self) -> MinCutResult:
        """Run Fig. 1, step 3: ``return 2^j λ(H_j)`` at the stop level."""
        witness_values: list[float] = []
        for i, instance in enumerate(self.instances):
            h = instance.witness()
            lam = global_min_cut_value(h) if h.n >= 2 else 0.0
            witness_values.append(lam)
            if lam < self.k:
                return MinCutResult(
                    value=(2**i) * lam,
                    stop_level=i,
                    witness_cut_values=witness_values,
                    k=self.k,
                )
        # Degenerate: even the deepest level stayed k-connected (can only
        # happen for extreme parameters); report the deepest estimate.
        deepest = len(self.instances) - 1
        return MinCutResult(
            value=(2**deepest) * witness_values[-1],
            stop_level=deepest,
            witness_cut_values=witness_values,
            k=self.k,
        )

    def witnesses(self) -> list[Graph]:
        """All per-level witnesses ``H_i`` (diagnostics / experiments)."""
        return [instance.witness() for instance in self.instances]

    def memory_cells(self) -> int:
        """Total 1-sparse cells across all levels."""
        return sum(instance.memory_cells() for instance in self.instances)
