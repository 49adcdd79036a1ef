"""Nisan's pseudorandom generator for space-bounded computation.

Section 3.4 of the paper derandomises the sketch constructions by
replacing the fully random hash bits with the output of Nisan's PRG
[Nisan, Combinatorica 1992]: any algorithm running in space ``S`` with
one-way access to ``R`` random bits can instead use ``O(S log R)``
truly random bits, expanded on the fly.

Construction.  Pick ``l`` independent pairwise-independent hash
functions ``h_1, ..., h_l : {0,1}^m -> {0,1}^m`` and a random block
``x ∈ {0,1}^m``.  The generator is defined recursively::

    G_0(x)        = x
    G_i(x)        = G_{i-1}(x) || G_{i-1}(h_i(x))

so ``G_l`` outputs ``2^l`` blocks of ``m`` bits from a seed of
``m + 2 l m`` bits.  Blocks are produced left to right; the ``j``-th
block is computed by walking the recursion tree using the bits of ``j``
— block ``j`` equals ``h_{i_1}(...h_{i_t}(x))`` where ``i_1 < ... <
i_t`` are the positions of the set bits of ``j`` (from least to most
significant recursion level).  This gives O(1) random access per block
without materialising the whole output, which is exactly the "implicitly
stored measurement" property the sketches need.

The :class:`NisanPRG` exposes the same ``hash64``-style protocol as the
other hash backends so the sketch machinery can be run end-to-end on
pseudorandom bits (experiment E8 does this).
"""

from __future__ import annotations

import numpy as np

from ..util import trailing_zeros_array
from .field import MERSENNE31, mulmod
from .mix import HashSource

__all__ = ["NisanPRG"]


class NisanPRG:
    """Nisan's generator over ``m = 61``-bit blocks... practically 31-bit field.

    Parameters
    ----------
    levels:
        Number of recursion levels ``l``; the generator produces
        ``2**levels`` blocks.
    source:
        Seed source supplying the truly random seed: one field element
        for the start block plus an (a, b) pair per level for the
        pairwise-independent functions ``h_i(x) = a_i x + b_i mod p``.

    Notes
    -----
    We work over ``GF(p)`` with ``p = 2^31 - 1`` rather than bit-blocks;
    affine maps over a prime field are the standard pairwise-independent
    family and keep everything vectorisable.  Each block therefore
    carries ~31 bits of output.
    """

    __slots__ = ("depth", "x0", "a", "b")

    def __init__(self, levels: int, source: HashSource):
        if not 1 <= levels <= 62:
            raise ValueError(f"levels must be in [1, 62], got {levels}")
        self.depth = levels
        self.x0 = int(source.derive(0).hash64(0)) % MERSENNE31
        self.a = []
        self.b = []
        for i in range(levels):
            a_i = int(source.derive(1, i).hash64(0)) % MERSENNE31
            if a_i == 0:
                a_i = 1  # keep h_i a bijection
            b_i = int(source.derive(2, i).hash64(0)) % MERSENNE31
            self.a.append(a_i)
            self.b.append(b_i)

    @property
    def num_blocks(self) -> int:
        """Total number of 31-bit pseudorandom blocks available."""
        return 1 << self.depth

    def block(self, j: int) -> int:
        """Return the ``j``-th output block (31-bit value).

        Random access: walks the recursion tree following the set bits
        of ``j``.  Matches sequential expansion of the classic
        construction.
        """
        if not 0 <= j < self.num_blocks:
            raise ValueError(f"block index {j} outside [0, {self.num_blocks})")
        x = self.x0
        for i in range(self.depth):
            if (j >> i) & 1:
                x = (self.a[i] * x + self.b[i]) % MERSENNE31
        return x

    def blocks(self, idx: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`block` for an int64 array of indices."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_blocks):
            raise ValueError("block index outside generator range")
        x = np.full(idx.shape, self.x0, dtype=np.int64)
        for i in range(self.depth):
            take = ((idx >> i) & 1).astype(bool)
            if np.any(take):
                x[take] = (mulmod(self.a[i], x[take]) + self.b[i]) % MERSENNE31
        return x

    # -- hash-protocol adaptor ------------------------------------------------
    # Treat the PRG output stream as a hash table indexed by key: key -> block.
    # This realises the paper's §3.4 argument operationally: the "random bits
    # for edge e" are the PRG blocks at positions derived from e, read once.

    def hash64(self, x: np.ndarray | int) -> np.ndarray | int:
        """Map keys to pseudorandom 62-bit values (two blocks glued)."""
        mask = self.num_blocks - 1
        if isinstance(x, (int, np.integer)):
            lo = self.block((2 * int(x)) & mask)
            hi = self.block((2 * int(x) + 1) & mask)
            return (hi << 31) | lo
        idx = np.asarray(x, dtype=np.int64)
        lo = self.blocks((2 * idx) & mask)
        hi = self.blocks((2 * idx + 1) & mask)
        return (hi.astype(np.uint64) << np.uint64(31)) | lo.astype(np.uint64)

    def uniform(self, x: np.ndarray | int) -> np.ndarray | float:
        """Map keys to pseudorandom floats in ``[0, 1)``."""
        h = self.hash64(x)
        if isinstance(h, (int, np.integer)):
            return int(h) / 2.0**62
        return h.astype(np.float64) / 2.0**62

    def bucket(self, x: np.ndarray | int, buckets: int) -> np.ndarray | int:
        """Map keys to ``[0, buckets)``."""
        h = self.hash64(x)
        if isinstance(h, (int, np.integer)):
            return int(h) % buckets
        return (np.asarray(h, dtype=np.uint64) % np.uint64(buckets)).astype(np.int64)

    def bernoulli(self, x: np.ndarray | int, p: float) -> np.ndarray | bool:
        """Consistent pseudorandom Bernoulli(p) coin per key."""
        u = self.uniform(x)
        if isinstance(u, float):
            return u < p
        return u < p

    def levels_of(self, x: np.ndarray | int, max_level: int) -> np.ndarray | int:
        """Geometric levels from trailing zero bits of the block value."""
        h = self.hash64(x)
        scalar = isinstance(h, (int, np.integer))
        arr = np.atleast_1d(np.asarray(h, dtype=np.uint64)) | np.uint64(1 << 61)
        lev = np.minimum(trailing_zeros_array(arr), max_level)
        if scalar:
            return int(lev[0])
        return lev

    # The sketch machinery calls ``levels``; keep both names.
    levels = levels_of

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NisanPRG(levels={self.depth}, blocks={self.num_blocks})"
