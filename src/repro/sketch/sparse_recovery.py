"""k-sparse recovery — ``k-RECOVERY`` of Theorem 2.2.

Recovers a vector ``x ∈ Z^N`` exactly (w.h.p.) whenever it has at most
``k`` non-zero entries, and reports FAIL otherwise.  The structure is an
invertible-Bloom-lookup-table: ``rows`` hash tables of ``buckets ≈
1.4k`` 1-sparse cells each; every index lands in one bucket per row.

Decoding *peels*: find any cell passing the 1-sparse test, subtract the
recovered entry from all rows, repeat.  With ≥ 3 rows and a 1.3–1.5×
bucket factor, peeling succeeds w.h.p. for supports up to ``k`` — and
when the support exceeds ``k`` the peeling gets stuck and we raise
:class:`~repro.errors.RecoveryFailed`, matching the theorem's FAIL
semantics.  The two fingerprints per cell make a *wrong* successful
decode astronomically unlikely.

:class:`SparseRecoveryBank` packs ``groups × instances`` structures
into one numpy bank (one instance per node per subsampling level in the
SPARSIFICATION algorithm; ``SparseRecoveryBank(1, 1, N, k, source)`` is
a single structure) and supports decoding the *sum* of instances — the
``Σ_{u∈A} x^{u,j}`` trick of Fig. 3, step 4(c).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import RecoveryFailed
from ..hashing import MERSENNE31, HashSource, powmod
from .arena import ArenaBacked
from .bank import CellBank

__all__ = ["SparseRecoveryBank", "bucket_count_for"]


def bucket_count_for(k: int) -> int:
    """Buckets per row for capacity ``k`` (IBLT load factor ~1.4)."""
    return max(2, int(np.ceil(1.4 * k)) + 1)


class SparseRecoveryBank(ArenaBacked):
    """``groups × instances`` k-RECOVERY structures in one numpy bank.

    The SPARSIFICATION algorithm (Fig. 3) keeps one instance per
    *(subsampling level i, node u)* pair; a group here is a level, an
    instance a node.  Instances within a group share hash functions so
    that instance sums can be decoded (:meth:`decode_sum`).

    Parameters
    ----------
    groups, instances:
        Grid of structures.
    domain:
        Universe size ``N``.
    k:
        Per-instance recovery capacity.
    source:
        Seed source.
    rows:
        Hash tables per instance.
    """

    def __init__(
        self,
        groups: int,
        instances: int,
        domain: int,
        k: int,
        source: HashSource,
        rows: int = 3,
    ):
        if groups < 1 or instances < 1:
            raise ValueError("groups and instances must be positive")
        if k < 1:
            raise ValueError(f"capacity k must be >= 1, got {k}")
        if rows < 2:
            raise ValueError(f"need >= 2 rows for peeling, got {rows}")
        self.groups = groups
        self.instances = instances
        self.domain = domain
        self.k = k
        self.rows = rows
        self.buckets = bucket_count_for(k)
        self._bucket_source = source.derive(0xB)
        self._cells_per_instance = rows * self.buckets
        #: Seed of the constructing source (used by sketch serialisation).
        self.source_seed = getattr(source, "seed", None)
        self.bank = CellBank(
            groups * instances * self._cells_per_instance, domain, source.derive(0xC)
        )

    def _bucket_key(self, items: np.ndarray, group_ids: np.ndarray, row: int) -> np.ndarray:
        return (items * self.groups + group_ids) * self.rows + row

    def update(
        self,
        group_ids: np.ndarray,
        instance_ids: np.ndarray,
        items: np.ndarray,
        deltas: np.ndarray,
    ) -> None:
        """Apply ``x_{g,s}[item] += delta`` for each parallel entry."""
        group_ids = np.asarray(group_ids, dtype=np.int64)
        instance_ids = np.asarray(instance_ids, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if items.size == 0:
            return
        base = (group_ids * self.instances + instance_ids) * self._cells_per_instance
        cells_per_row = []
        for r in range(self.rows):
            bucket = np.asarray(
                self._bucket_source.bucket(
                    self._bucket_key(items, group_ids, r), self.buckets
                ),
                dtype=np.int64,
            )
            cells_per_row.append(base + r * self.buckets + bucket)
        self.bank.scatter_multi(cells_per_row, items, deltas)

    def _cell_banks(self) -> list[CellBank]:
        return [self.bank]

    def _params(self) -> dict:
        return {"groups": self.groups, "instances": self.instances,
                "domain": self.domain, "k": self.k, "rows": self.rows}

    def _instance_cells(self, group: int, instance: int) -> np.ndarray:
        start = (group * self.instances + instance) * self._cells_per_instance
        return np.arange(start, start + self._cells_per_instance, dtype=np.int64)

    def decode(self, group: int, instance: int) -> dict[int, int]:
        """Recover instance ``(group, instance)`` as ``{index: value}``.

        Exact whenever the vector has at most ``k`` non-zeros (w.h.p.);
        raises :class:`~repro.errors.RecoveryFailed` otherwise.
        """
        return self.decode_sum(group, [instance])

    def decode_sum(self, group: int, instance_ids: list[int]) -> dict[int, int]:
        """Decode the sum ``Σ_s x_{g,s}`` over the given instances.

        Fig. 3 step 4(c): summing the per-node sketches over a shore
        ``A`` cancels internal edges and leaves exactly the edges
        crossing the cut — then k-RECOVERY reads them out.
        """
        if not instance_ids:
            raise ValueError("instance_ids must be non-empty")
        idx2d = np.stack([self._instance_cells(group, s) for s in instance_ids])
        phi, iota, fp1, fp2 = self.bank.summed_cells(idx2d)

        def bucket_of(index: int, row: int) -> int:
            key = (index * self.groups + group) * self.rows + row
            return int(self._bucket_source.bucket(key, self.buckets))

        return _peel(
            phi.copy(),
            iota.copy(),
            fp1.copy(),
            fp2.copy(),
            self.rows,
            self.buckets,
            self.domain,
            self.bank.z1,
            self.bank.z2,
            bucket_of,
            self.k,
        )

    def memory_cells(self) -> int:
        """Total 1-sparse cells — the space unit reported by experiments."""
        return self.bank.memory_cells()


def _peel(
    phi: np.ndarray,
    iota: np.ndarray,
    fp1: np.ndarray,
    fp2: np.ndarray,
    rows: int,
    buckets: int,
    domain: int,
    z1: int,
    z2: int,
    bucket_of: Callable[[int, int], int],
    k: int,
) -> dict[int, int]:
    """Shared IBLT peeling decoder over raw cell arrays.

    ``bucket_of(index, row)`` must reproduce the bucket routing used at
    update time so recovered entries can be subtracted from all rows.
    """
    recovered: dict[int, int] = {}
    max_iter = 4 * (rows * buckets + k + 8)
    for _ in range(max_iter):
        if not ((phi != 0) | (iota != 0) | (fp1 != 0) | (fp2 != 0)).any():
            if len(recovered) > k:
                raise RecoveryFailed(
                    f"decoded {len(recovered)} items, beyond capacity {k}"
                )
            return recovered
        progressed = False
        for c in range(rows * buckets):
            if phi[c] == 0:
                continue
            if iota[c] % phi[c] != 0:
                continue
            index = int(iota[c] // phi[c])
            if not 0 <= index < domain:
                continue
            value = int(phi[c])
            want1 = value % MERSENNE31 * powmod(z1, index) % MERSENNE31
            want2 = value % MERSENNE31 * powmod(z2, index) % MERSENNE31
            if fp1[c] != want1 or fp2[c] != want2:
                continue
            for r in range(rows):
                cell = r * buckets + bucket_of(index, r)
                phi[cell] -= value
                iota[cell] -= index * value
                fp1[cell] = (fp1[cell] - want1) % MERSENNE31
                fp2[cell] = (fp2[cell] - want2) % MERSENNE31
            recovered[index] = recovered.get(index, 0) + value
            if recovered[index] == 0:
                del recovered[index]
            progressed = True
            if len(recovered) > k:
                raise RecoveryFailed(
                    f"decoded more than capacity k={k} items; vector is not k-sparse"
                )
            break
        if not progressed:
            raise RecoveryFailed("peeling stuck: vector has more than k non-zeros")
    raise RecoveryFailed("peeling did not converge")
