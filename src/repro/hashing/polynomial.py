"""k-wise independent hash families over ``GF(2^31 - 1)``.

The classical limited-independence construction: a uniformly random
polynomial of degree ``k - 1`` over a prime field, evaluated at the key,
is a k-wise independent function.  The paper states its preliminary
results (Theorems 2.1–2.3) assuming full independence and discharges the
assumption via Nisan's PRG; this module provides the intermediate,
widely used option so users can trade independence for seed size
explicitly.  The family is pluggable wherever :class:`~repro.hashing.mix.
HashSource` is used, via the shared ``hash64 / uniform / bucket /
levels`` protocol.
"""

from __future__ import annotations

import numpy as np

from ..util import trailing_zeros_array
from .field import MERSENNE31, horner_mod
from .mix import HashSource

__all__ = ["KWiseHash"]


class KWiseHash:
    """A k-wise independent hash function ``[p] -> [p]``.

    Parameters
    ----------
    k:
        Independence parameter; ``k = 2`` gives the pairwise-independent
        family used inside Nisan's generator.
    source:
        Seed source used to draw the polynomial's coefficients
        deterministically.

    Notes
    -----
    Keys must be smaller than ``p = 2^31 - 1``; all edge-coordinate
    universes in this package (``C(n, 2)`` for n up to 65536, and the
    induced-subgraph column universes used in tests) satisfy this.
    """

    __slots__ = ("k", "coeffs", "_coeff_arr")

    def __init__(self, k: int, source: HashSource):
        if k < 1:
            raise ValueError(f"independence k must be >= 1, got {k}")
        self.k = k
        raw = [int(source.derive(i).hash64(0)) % MERSENNE31 for i in range(k)]
        # Leading coefficient non-zero keeps the polynomial degree exact.
        if raw[0] == 0:
            raw[0] = 1
        self.coeffs = tuple(raw)
        self._coeff_arr = np.asarray(raw, dtype=np.int64)

    def hash64(self, x: np.ndarray | int) -> np.ndarray | int:
        """Evaluate the polynomial; output in ``[0, 2^31 - 1)``.

        Named ``hash64`` for protocol compatibility with
        :class:`~repro.hashing.mix.HashSource`; outputs occupy only the
        low 31 bits.
        """
        scalar = isinstance(x, (int, np.integer))
        vals = horner_mod(self._coeff_arr, np.atleast_1d(np.asarray(x, dtype=np.int64)))
        if scalar:
            return int(vals[0])
        return vals

    def uniform(self, x: np.ndarray | int) -> np.ndarray | float:
        """Map keys to ``[0, 1)`` with k-wise independent values."""
        h = self.hash64(x)
        if isinstance(h, (int, np.integer)):
            return h / MERSENNE31
        return h.astype(np.float64) / MERSENNE31

    def bucket(self, x: np.ndarray | int, buckets: int) -> np.ndarray | int:
        """Map keys to ``[0, buckets)``."""
        h = self.hash64(x)
        if isinstance(h, (int, np.integer)):
            return h % buckets
        return h % buckets

    def bernoulli(self, x: np.ndarray | int, p: float) -> np.ndarray | bool:
        """Consistent Bernoulli(p) coin for each key."""
        u = self.uniform(x)
        if isinstance(u, float):
            return u < p
        return u < p

    def levels(self, x: np.ndarray | int, max_level: int) -> np.ndarray | int:
        """Geometric levels from the hash's trailing zero bits."""
        h = self.hash64(x)
        scalar = isinstance(h, (int, np.integer))
        arr = np.atleast_1d(np.asarray(h, dtype=np.int64)) | (1 << 30)
        lev = np.minimum(trailing_zeros_array(arr), max_level)
        if scalar:
            return int(lev[0])
        return lev

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KWiseHash(k={self.k})"
