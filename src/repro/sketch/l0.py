"""ℓ₀ sampling (Theorem 2.1, Jowhari–Sağlam–Tardos style).

An ℓ₀ sampler of ``x ∈ Z^N`` returns, with probability ``1 - δ``, a
pair ``(i, x_i)`` with ``i`` (near-)uniform over ``support(x)``; it may
also return FAIL (raised here as :class:`~repro.errors.SamplerFailed`).

Construction.  Each index is assigned a geometric *level*
``ℓ(i) = trailing_zeros(h(i))`` and participates in levels
``0..ℓ(i)`` (so level ``j`` subsamples the support at rate ``2^-j``).
Each level is a small grid of ``rows × buckets`` 1-sparse cells; an
index lands in one bucket per row.  To sample, decode every cell and
return the recovered index with the **deepest level** (ties broken by
hash) — that index is the argmax of a uniform hash over the support,
hence a uniform sample, whenever it is isolated in some cell at its
level, which happens with constant probability per level grid.

:class:`L0SamplerBank` stores ``families × samplers`` samplers in one
:class:`~repro.sketch.bank.CellBank`; ``L0SamplerBank(1, 1, N, source)``
is a single sampler.  All samplers of one *family* share hash
functions, so they can be summed (the AGM supernode trick); distinct
families are independent (fresh randomness per Borůvka round / per
estimator repetition).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..errors import SamplerFailed
from ..hashing import HashSource
from ..kernels import get as _get_kernel
from ..util import ceil_log2
from .arena import ArenaBacked
from .bank import CellBank, decode_cells

__all__ = ["L0SamplerBank"]

_K_DECODE_ALL = _get_kernel("decode_all")


def _default_levels(domain: int) -> int:
    """Number of subsampling levels: enough to isolate any support size."""
    return ceil_log2(max(domain, 2)) + 2


class L0SamplerBank(ArenaBacked):
    """``families × samplers`` ℓ₀ samplers in one vectorised bank.

    Within a family all samplers share hash functions — their cell
    arrays can be *summed* to obtain the sampler of a sum of vectors
    (:meth:`sample_sum`), the key trick behind AGM connectivity.
    Distinct families use independent hashes.

    Parameters
    ----------
    families:
        Number of independent hash families ``F``.
    samplers:
        Samplers per family ``S`` (e.g. one per graph node).
    domain:
        Universe size ``N`` of each sketched vector.
    source:
        Seed source for the whole bank.
    rows, buckets:
        Per-level cell grid; memory per sampler is
        ``(levels+1) * rows * buckets`` cells.
    """

    def __init__(
        self,
        families: int,
        samplers: int,
        domain: int,
        source: HashSource,
        rows: int = 2,
        buckets: int = 4,
    ):
        if families < 1 or samplers < 1:
            raise ValueError("families and samplers must be positive")
        self.families = families
        self.samplers = samplers
        self.domain = domain
        self.rows = rows
        self.buckets = buckets
        self.levels = _default_levels(domain)
        #: Seed of the constructing source (used by sketch serialisation).
        self.source_seed = getattr(source, "seed", None)
        self._level_source = source.derive(0xA)
        self._bucket_source = source.derive(0xB)
        self._cells_per_sampler = (self.levels + 1) * rows * buckets
        self.bank = CellBank(
            families * samplers * self._cells_per_sampler, domain, source.derive(0xC)
        )

    # -- updates ---------------------------------------------------------------

    def update(
        self,
        family_ids: np.ndarray,
        sampler_ids: np.ndarray,
        items: np.ndarray,
        deltas: np.ndarray,
    ) -> None:
        """Apply ``x_{f,s}[item] += delta`` for each parallel entry.

        The level expansion (each item participates in levels
        ``0..ℓ(i)``) happens here; expected blow-up is 2×.
        """
        family_ids = np.asarray(family_ids, dtype=np.int64)
        sampler_ids = np.asarray(sampler_ids, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if items.size == 0:
            return
        top = self._levels_of(family_ids, items)
        lengths = top + 1
        total = int(lengths.sum())
        rep_f = np.repeat(family_ids, lengths)
        rep_s = np.repeat(sampler_ids, lengths)
        rep_i = np.repeat(items, lengths)
        rep_d = np.repeat(deltas, lengths)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        rep_lv = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
        self._scatter_rows(rep_f, rep_s, rep_lv, rep_i, rep_d)

    def _levels_of(self, family_ids: np.ndarray, items: np.ndarray) -> np.ndarray:
        keys = items * self.families + family_ids
        return np.asarray(self._level_source.levels(keys, self.levels), dtype=np.int64)

    def _scatter_rows(
        self,
        fams: np.ndarray,
        samps: np.ndarray,
        lvs: np.ndarray,
        items: np.ndarray,
        deltas: np.ndarray,
    ) -> None:
        base = (
            (fams * self.samplers + samps) * (self.levels + 1) + lvs
        ) * self.rows
        cells_per_row = []
        for row in range(self.rows):
            key = ((items * self.families + fams) * (self.levels + 1) + lvs) * self.rows + row
            bucket = np.asarray(
                self._bucket_source.bucket(key, self.buckets), dtype=np.int64
            )
            cells_per_row.append((base + row) * self.buckets + bucket)
        self.bank.scatter_multi(cells_per_row, items, deltas)

    def _cell_banks(self) -> list[CellBank]:
        return [self.bank]

    def _params(self) -> dict:
        return {"families": self.families, "samplers": self.samplers,
                "domain": self.domain, "rows": self.rows,
                "buckets": self.buckets}

    # -- queries ---------------------------------------------------------------

    def _check_ids(self, family: int, samplers: tuple[int, ...]) -> None:
        """Refuse a family or sampler id outside the bank, naming it: its
        cells would be a neighbour's."""
        if not 0 <= family < self.families:
            raise ValueError(f"family {family} outside [0, {self.families})")
        for sampler in samplers:
            if not 0 <= sampler < self.samplers:
                raise ValueError(
                    f"sampler {sampler} outside [0, {self.samplers})"
                )

    def _sampler_cells(self, family: int, sampler: int) -> np.ndarray:
        self._check_ids(family, (sampler,))
        start = (family * self.samplers + sampler) * self._cells_per_sampler
        return np.arange(start, start + self._cells_per_sampler, dtype=np.int64)

    def sample(self, family: int, sampler: int) -> tuple[int, int]:
        """Return ``(index, value)`` for a (near-)uniform support element.

        The returned index is the argmax of ``(level(i), hash(i))``
        over the items that decode from sampler ``(family, sampler)``'s
        cells.

        Raises
        ------
        SamplerFailed
            With ``vector_is_zero=True`` when every cell is empty (the
            sketched vector is zero w.h.p.), else a recovery failure.
        """
        idx = self._sampler_cells(family, sampler)
        return self._sample_from(family, self.bank.cells_view(idx))

    def sample_sum(self, family: int, sampler_ids: list[int]) -> tuple[int, int]:
        """Sample from the *sum* of several samplers of one family.

        Equivalent to sketching ``Σ_s x_{f,s}`` directly — exact, not
        approximate, by linearity.  Used to sample an outgoing edge of a
        graph component from the sum of its nodes' incidence sketches.
        """
        if not sampler_ids:
            raise ValueError("sampler_ids must be non-empty")
        status, items, values = self.sample_many(family, [sampler_ids])
        if int(status[0]) == 0:
            return int(items[0]), int(values[0])
        err = SamplerFailed(
            "sketched vector is zero" if int(status[0]) == 1
            else "no cell decoded to a single item"
        )
        err.vector_is_zero = int(status[0]) == 1
        raise err

    def sample_many(
        self, family: int, member_groups: list[list[int]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`sample_sum` over many member groups at once.

        Decodes the summed sampler of every group in one whole-bank
        kernel call (``decode_all``) instead of one Python round-trip
        per group.  The kernel gathers each member's cells as one row
        per field, sums only the groups of several members, and tests
        only the summed cells with ``φ ≠ 0``.  Returns parallel
        ``(status, items, values)`` arrays: status ``0`` = decoded (a
        sample of ``Σ_s x_{f,s}`` identical to :meth:`sample_sum`'s),
        ``1`` = zero vector, ``2`` = recovery failure, with ``items``
        and ``values`` ``0`` unless decoded.

        Raises ``ValueError`` for an empty group, or a family or member
        outside the bank.
        """
        sizes = np.fromiter(
            (len(g) for g in member_groups), dtype=np.int64,
            count=len(member_groups),
        )
        members = np.fromiter(
            chain.from_iterable(member_groups), dtype=np.int64,
            count=int(sizes.sum()),
        )
        return self.sample_segments(
            family, members, np.concatenate(([0], np.cumsum(sizes)))
        )

    def sample_segments(
        self, family: int, members: np.ndarray, seg_offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`sample_many` over groups laid out as arrays.

        ``members`` holds the groups' sampler ids one group after the
        other, and group ``c`` is ``members[seg_offsets[c]:seg_offsets[c
        + 1]]``; ``seg_offsets`` starts at ``0``, ends at
        ``members.size`` and increases strictly.  The Borůvka extraction
        of :class:`~repro.core.forest.SpanningForestSketch` decodes each
        round's components this way.  Raises ``ValueError`` as
        :meth:`sample_many` does.
        """
        self._check_ids(family, (int(members.min()), int(members.max()))
                        if members.size else ())
        if seg_offsets[0] != 0 or seg_offsets[-1] != members.size or bool(
            (np.diff(seg_offsets) < 1).any()
        ):
            raise ValueError("every member group must be non-empty")
        return _K_DECODE_ALL(self, family, members, seg_offsets)

    def _sample_from(
        self,
        family: int,
        cells: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> tuple[int, int]:
        phi, iota, fp1, fp2 = cells
        nonzero = (phi != 0) | (iota != 0) | (fp1 != 0) | (fp2 != 0)
        if not bool(nonzero.any()):
            err = SamplerFailed("sketched vector is zero")
            err.vector_is_zero = True
            raise err
        ok, index, value = decode_cells(
            phi, iota, fp1, fp2, self.domain, self.bank.z1, self.bank.z2
        )
        if not bool(ok.any()):
            err = SamplerFailed("no cell decoded to a single item")
            err.vector_is_zero = False
            raise err
        cand_idx = index[ok]
        cand_val = value[ok]
        fam_arr = np.full(cand_idx.shape, family, dtype=np.int64)
        cand_lv = self._levels_of(fam_arr, cand_idx)
        # Tie-break by hash so the argmax is deterministic per seed.
        tiebreak = np.asarray(
            self._level_source.hash64(cand_idx * self.families + family),
            dtype=np.uint64,
        )
        order = np.lexsort((tiebreak, cand_lv))
        best = order[-1]
        return int(cand_idx[best]), int(cand_val[best])

    def is_zero(self, family: int, sampler: int) -> bool:
        """Whether sampler ``(family, sampler)``'s vector is zero (w.h.p.)."""
        idx = self._sampler_cells(family, sampler)
        phi, iota, fp1, fp2 = self.bank.cells_view(idx)
        return not bool(((phi != 0) | (iota != 0) | (fp1 != 0) | (fp2 != 0)).any())

    def memory_cells(self) -> int:
        """Total 1-sparse cells — the space unit reported by experiments."""
        return self.bank.memory_cells()
