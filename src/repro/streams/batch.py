"""Columnar view of a dynamic graph stream.

Every sketch in this library reduces a stream token to the same three
numbers — the canonical endpoints ``(lo, hi)`` and the signed delta —
plus, almost always, the token's *pair rank* (the coordinate of edge
``{lo, hi}`` in the sketched vector, see :func:`repro.util.pair_rank`).
Re-deriving those from Python :class:`~repro.streams.update.EdgeUpdate`
objects is the single largest ingestion cost once the scatter kernels
are vectorised: ``EdgeConnectivitySketch`` used to re-materialise the
token list once per forest group, and the hierarchy sketches once per
subsampling level.

:class:`StreamBatch` materialises the stream once into four contiguous
``int64`` columns shared by every consumer.  Batches are immutable
(the arrays are marked read-only) so one cached instance can be handed
to any number of sketches, levels, and adaptive-spanner passes without
copies; :meth:`DynamicGraphStream.as_batch` owns the cache and
invalidates it when the stream grows.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import StreamError
from ..util import pair_rank_array

__all__ = ["StreamBatch"]


class StreamBatch:
    """Read-only columnar snapshot of a dynamic graph stream.

    The public constructor refuses a token outside the stream model
    (``lo >= hi``, an endpoint outside ``[0, n)``, or ``delta == 0``)
    with :class:`~repro.errors.StreamError`: a reversed deletion would
    otherwise add to its insertion instead of cancelling it.

    Attributes
    ----------
    n:
        Node universe size of the originating stream.
    lo, hi:
        Canonical endpoints per token (``lo < hi``), ``int64``.
    delta:
        Signed multiplicity change per token, ``int64``.
    ranks:
        Precomputed pair rank ``lo·n − lo(lo+1)/2 + (hi − lo − 1)`` per
        token — the coordinate of the edge in every ``C(n,2)``-domain
        sketch vector.
    """

    __slots__ = ("n", "lo", "hi", "delta", "ranks")

    def __init__(
        self,
        n: int,
        lo: np.ndarray,
        hi: np.ndarray,
        delta: np.ndarray,
        ranks: np.ndarray | None = None,
    ):
        if n < 2:
            raise StreamError(f"node universe must have at least 2 nodes, got {n}")
        self.n = n
        self.lo = self._column(lo)
        self.hi = self._column(hi)
        self.delta = self._column(delta)
        if not (self.lo.size == self.hi.size == self.delta.size):
            raise StreamError("batch columns must have equal length")
        bad = np.flatnonzero(
            (self.lo >= self.hi) | (self.lo < 0) | (self.hi >= n)
            | (self.delta == 0)
        )
        if bad.size:
            i = int(bad[0])
            raise StreamError(
                f"token {i} (lo={int(self.lo[i])}, hi={int(self.hi[i])}, "
                f"delta={int(self.delta[i])}) is outside the stream model: "
                f"need 0 <= lo < hi < n={n} and a nonzero delta"
            )
        if ranks is None:
            ranks = pair_rank_array(self.lo, self.hi, n)
        self.ranks = self._column(ranks)

    @staticmethod
    def _column(values: np.ndarray) -> np.ndarray:
        col = np.ascontiguousarray(values, dtype=np.int64)
        if col is values or col.base is not None:
            # Never freeze (or alias) a caller-owned buffer.
            col = col.copy()
        col.setflags(write=False)
        return col

    @classmethod
    def _from_owned(
        cls,
        n: int,
        lo: np.ndarray,
        hi: np.ndarray,
        delta: np.ndarray,
        ranks: np.ndarray,
    ) -> "StreamBatch":
        """Internal: wrap just-allocated ``int64`` arrays without copying."""
        batch = cls.__new__(cls)
        batch.n = n
        for name, col in (("lo", lo), ("hi", hi), ("delta", delta),
                          ("ranks", ranks)):
            col.setflags(write=False)
            setattr(batch, name, col)
        return batch

    @classmethod
    def from_updates(cls, n: int, updates: Iterable) -> "StreamBatch":
        """Materialise validated :class:`EdgeUpdate` tokens into columns."""
        if n < 2:
            raise StreamError(f"node universe must have at least 2 nodes, got {n}")
        updates = list(updates)
        m = len(updates)
        lo = np.fromiter((u.lo for u in updates), dtype=np.int64, count=m)
        hi = np.fromiter((u.hi for u in updates), dtype=np.int64, count=m)
        delta = np.fromiter((u.delta for u in updates), dtype=np.int64, count=m)
        return cls._from_owned(n, lo, hi, delta, pair_rank_array(lo, hi, n))

    def __len__(self) -> int:
        return self.lo.size

    def select(self, mask: np.ndarray) -> "StreamBatch":
        """A new batch containing the tokens where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        return StreamBatch._from_owned(
            self.n, self.lo[mask], self.hi[mask], self.delta[mask],
            self.ranks[mask],
        )

    def slice(self, start: int, stop: int) -> "StreamBatch":
        """A new batch holding tokens ``[start, stop)`` (chunked feeding).

        The columns are views into this batch's (already read-only)
        arrays — no copies.
        """
        return StreamBatch._from_owned(
            self.n,
            self.lo[start:stop],
            self.hi[start:stop],
            self.delta[start:stop],
            self.ranks[start:stop],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamBatch(n={self.n}, tokens={len(self)})"
