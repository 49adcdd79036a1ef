"""Seeded 64-bit mixing — the library's "random oracle" stand-in.

The paper's analysis (Sections 2–3) assumes fully independent random
hash functions and then removes the assumption with Nisan's generator
(Section 3.4).  In practice — as in every deployed sketch system — a
strong seeded mixer is used instead.  We implement the ``splitmix64``
finaliser, which passes standard avalanche tests, fully vectorised over
numpy ``uint64`` arrays so that sketch banks can hash batches of edge
indices in one call.

Every sketch object owns a :class:`HashSource` created from a master
seed, and derives statistically independent sub-streams for each
logical hash function via :meth:`HashSource.derive`.
"""

from __future__ import annotations

import numpy as np

from ..util import trailing_zeros_array

__all__ = ["splitmix64", "HashSource"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray | int, seed: int = 0) -> np.ndarray | int:
    """Apply the splitmix64 finaliser to ``x`` offset by ``seed``.

    Deterministic, collision-free on 64-bit inputs for a fixed seed (it
    is a bijection), and statistically indistinguishable from random for
    sketching purposes.  Accepts scalars or numpy arrays; always computes
    in ``uint64`` with wrap-around semantics.
    """
    scalar = isinstance(x, (int, np.integer))
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        z = (z + _GOLDEN) * _MIX1
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    if scalar:
        return int(z)
    return z


class HashSource:
    """A tree of derivable, seeded hash functions.

    A ``HashSource`` wraps a 64-bit seed.  :meth:`derive` produces a
    child source whose seed is a mix of the parent seed and a label,
    giving a deterministic hierarchy: the same master seed always yields
    the same family of hash functions — the property that makes linear
    sketches *consistent* so that deletions cancel insertions.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    def derive(self, *labels: int) -> "HashSource":
        """Derive a child source from integer labels.

        ``source.derive(3, 7)`` is deterministic and distinct from
        ``source.derive(3, 8)`` or ``source.derive(7, 3)``.
        """
        seed = self.seed
        for label in labels:
            seed = int(splitmix64(int(label) & 0xFFFFFFFFFFFFFFFF, seed))
        return HashSource(seed)

    def hash64(self, x: np.ndarray | int) -> np.ndarray | int:
        """Hash 64-bit keys to uniform 64-bit values."""
        return splitmix64(x, self.seed)

    def uniform(self, x: np.ndarray | int) -> np.ndarray | float:
        """Hash keys to floats in ``[0, 1)``.

        Used for consistent Bernoulli sampling: an edge is "sampled with
        probability p" iff ``uniform(edge) < p``, which is stable across
        insertions and deletions of the same edge.
        """
        h = self.hash64(x)
        if isinstance(h, (int, np.integer)):
            return int(h) / 2.0**64
        return h.astype(np.float64) / 2.0**64

    def bucket(self, x: np.ndarray | int, buckets: int) -> np.ndarray | int:
        """Hash keys to ``[0, buckets)``.

        The scalar and array paths must agree bit-for-bit: sketch banks
        hash in bulk at update time but re-derive single buckets when
        peeling, and any divergence silently corrupts decoding.
        """
        h = self.hash64(x)
        if isinstance(h, (int, np.integer)):
            return ((int(h) >> 17) % buckets)
        shifted = np.asarray(h, dtype=np.uint64) >> np.uint64(17)
        if buckets & (buckets - 1) == 0:
            # Power-of-two bucket counts (the default) take a mask —
            # identical residues, a fraction of the integer-divide cost.
            return (shifted & np.uint64(buckets - 1)).astype(np.int64)
        return (shifted % np.uint64(buckets)).astype(np.int64)

    def bernoulli(self, x: np.ndarray | int, p: float) -> np.ndarray | bool:
        """Consistent Bernoulli(p) coin for each key."""
        u = self.uniform(x)
        if isinstance(u, float):
            return u < p
        return u < p

    def levels(self, x: np.ndarray | int, max_level: int) -> np.ndarray | int:
        """Geometric level of each key: ``P(level >= j) = 2^-j``.

        Computed as the number of trailing zero bits of the 64-bit hash,
        capped at ``max_level``.  This drives the nested subsampling
        hierarchy ``G = G_0 ⊇ G_1 ⊇ ...`` of the MINCUT and
        SPARSIFICATION algorithms as well as the ℓ₀ sampler levels.
        """
        h = self.hash64(x)
        if isinstance(h, (int, np.integer)):
            h = int(h) | (1 << 63)  # guarantee a set bit
            return min((h & -h).bit_length() - 1, max_level)
        h = np.asarray(h, dtype=np.uint64) | np.uint64(1 << 63)
        return np.minimum(trailing_zeros_array(h), max_level)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashSource(seed=0x{self.seed:016x})"
