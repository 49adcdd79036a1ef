"""Shared numeric and combinatorial helpers.

Small, dependency-free utilities used across the package: integer bit
tricks, combinatorial ranking/unranking (the *combinatorial number
system* used to index the columns of the induced-subgraph matrix in
Section 4 of the paper), and validation helpers.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ceil_log2",
    "floor_log2",
    "trailing_zeros",
    "trailing_zeros_array",
    "comb",
    "pair_count",
    "pair_rank",
    "pair_unrank",
    "pair_rank_array",
    "subset_rank",
    "subset_unrank",
    "check_node",
    "check_probability",
    "stable_unique_pairs",
]


def ceil_log2(x: int) -> int:
    """Return ``ceil(log2(x))`` for a positive integer ``x``.

    ``ceil_log2(1) == 0``.  Raises :class:`ValueError` for ``x <= 0``.
    """
    if x <= 0:
        raise ValueError(f"ceil_log2 requires a positive integer, got {x}")
    return (x - 1).bit_length()


def floor_log2(x: int) -> int:
    """Return ``floor(log2(x))`` for a positive integer ``x``."""
    if x <= 0:
        raise ValueError(f"floor_log2 requires a positive integer, got {x}")
    return x.bit_length() - 1


def trailing_zeros(x: int) -> int:
    """Number of trailing zero bits of a positive integer ``x``.

    Used to assign geometric ℓ₀-sampler levels: a uniform 64-bit value
    has ``P(trailing_zeros >= j) = 2^-j``.
    """
    if x <= 0:
        raise ValueError(f"trailing_zeros requires a positive integer, got {x}")
    return (x & -x).bit_length() - 1


def trailing_zeros_array(x: np.ndarray) -> np.ndarray:
    """Vectorised :func:`trailing_zeros` of 64-bit values (int64 result).

    Isolates each value's lowest set bit (``x & (~x + 1)`` in unsigned
    arithmetic) and reads its exponent from the float64 bit pattern: a
    power of two ``2^k`` converts to float64 exactly, with biased
    exponent field ``k + 1023`` and a zero mantissa, so the result is
    exact for all 64 bit positions.  Zero entries, which have no set
    bit, give a negative value.
    """
    x = np.asarray(x).astype(np.uint64)
    low = x & (~x + np.uint64(1))
    return (low.astype(np.float64).view(np.int64) >> 52) - 1023


def comb(n: int, k: int) -> int:
    """Binomial coefficient ``C(n, k)`` (0 when out of range)."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def pair_count(n: int) -> int:
    """Number of unordered node pairs on ``n`` nodes, ``C(n, 2)``.

    This is the dimension of the edge-multiplicity vector ``A`` that all
    graph sketches in the paper are linear measurements of.
    """
    return n * (n - 1) // 2


def pair_rank(u: int, v: int, n: int) -> int:
    """Rank of the unordered pair ``{u, v}`` in the lexicographic order.

    Pairs ``(0,1), (0,2), ..., (0,n-1), (1,2), ...`` are numbered
    ``0, 1, ..., C(n,2)-1``.  The rank serves as the coordinate of edge
    ``{u, v}`` in the sketched vector.
    """
    if u == v:
        raise ValueError(f"self pair ({u}, {v}) has no rank")
    if u > v:
        u, v = v, u
    if u < 0 or v >= n:
        raise ValueError(f"pair ({u}, {v}) outside universe [0, {n})")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def pair_unrank(r: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`pair_rank`: recover ``(u, v)`` with ``u < v``."""
    total = pair_count(n)
    if not 0 <= r < total:
        raise ValueError(f"pair rank {r} outside [0, {total})")
    # Row u owns ranks [offset(u), offset(u) + n - 1 - u).  Solve the
    # quadratic exactly in integers (float sqrt loses whole rows once
    # 8·total exceeds 2^53), then fix up boundary effects — at most one
    # step each way.
    u = n - 2 - (math.isqrt(8 * (total - 1 - r) + 1) - 1) // 2
    u = max(0, min(u, n - 2))
    while u * n - u * (u + 1) // 2 > r:
        u -= 1
    while (u + 1) * n - (u + 1) * (u + 2) // 2 <= r:
        u += 1
    v = r - (u * n - u * (u + 1) // 2) + u + 1
    return u, v


def pair_rank_array(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Vectorised :func:`pair_rank` for arrays of endpoints.

    ``u`` and ``v`` need not be ordered; they must be elementwise
    distinct.  Returns an int64 array of pair ranks.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)


def subset_rank(subset: Sequence[int], n: int) -> int:
    """Rank of a sorted k-subset of ``[0, n)`` in combinatorial order.

    Uses the combinatorial number system: the rank of a sorted subset
    ``s_0 < s_1 < ... < s_{k-1}`` equals ``sum_i C(s_i, i+1)``.  Section 4
    of the paper indexes the columns of the matrix ``X_G`` by k-subsets;
    this rank is that column index.
    """
    rank = 0
    prev = -1
    for i, s in enumerate(subset):
        if s <= prev:
            raise ValueError(f"subset {subset!r} is not strictly increasing")
        if not 0 <= s < n:
            raise ValueError(f"subset element {s} outside universe [0, {n})")
        rank += math.comb(s, i + 1)
        prev = s
    return rank


def subset_unrank(rank: int, n: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`subset_rank`: the sorted k-subset with ``rank``."""
    total = comb(n, k)
    if not 0 <= rank < total:
        raise ValueError(f"subset rank {rank} outside [0, {total})")
    subset: list[int] = []
    r = rank
    for i in range(k, 0, -1):
        # Largest s with C(s, i) <= r.
        s = i - 1
        while math.comb(s + 1, i) <= r:
            s += 1
        subset.append(s)
        r -= math.comb(s, i)
    subset.reverse()
    return tuple(subset)


def check_node(node: int, n: int) -> None:
    """Validate a node id against the universe ``[0, n)``."""
    if not 0 <= node < n:
        raise ValueError(f"node {node} outside universe [0, {n})")


def check_probability(p: float, name: str = "probability") -> None:
    """Validate that ``p`` lies in ``(0, 1]``."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {p}")


def stable_unique_pairs(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Deduplicate unordered pairs preserving first-seen order."""
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for u, v in pairs:
        key = (u, v) if u <= v else (v, u)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out
