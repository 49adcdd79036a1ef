"""Vectorised banks of 1-sparse cells.

Every sketch algorithm in the paper maintains *many* small sketches:
``O(log n)`` ℓ₀ samplers per node per Borůvka round, per subsampling
level, per connectivity group...  Naive per-object Python sketches are
two orders of magnitude too slow, so this module stores all cells of a
bank in four contiguous ``int64`` arrays —

* ``phi``   — ``Σ x_i`` per cell,
* ``iota``  — ``Σ i·x_i`` per cell,
* ``fp1``, ``fp2`` — two polynomial fingerprints mod ``p = 2^31 - 1`` —

and applies updates with ``np.add.at`` scatter operations, touching all
affected (sampler, level, row) cells of a batch in a handful of numpy
calls.  A cell whose vector has one non-zero entry ``x_i = v`` holds
``phi = v`` and ``iota = i·v``, so ``i = iota / phi``, and both
fingerprints equal ``v·z^i mod p``; a vector that only looks 1-sparse
passes a fingerprint with probability below ``N/p``.  Decoding is
vectorised like updates: :func:`decode_cells` runs this test for whole
cell blocks at once.

The four field arrays are always views into one contiguous ``int64``
buffer: a bank is born with its own field-major block, and a
:class:`~repro.sketch.arena.SketchArena` may later *adopt* the bank —
re-pointing the views into a whole-sketch buffer shared with sibling
banks.  Every mutating method here therefore writes strictly in place
(no array rebinding), so bank-level and arena-level operations see the
same cells.
"""

from __future__ import annotations

import numpy as np

from ..errors import SketchCompatibilityError
from ..hashing import MERSENNE31, HashSource
from ..hashing.field import mod_mersenne31, mulmod, powmod_windowed
from ..kernels import get as _get_kernel

__all__ = ["CellBank", "decode_cells"]

_K_SCATTER = _get_kernel("scatter_multi")


class CellBank:
    """A flat array of 1-sparse cells sharing fingerprint generators.

    Parameters
    ----------
    size:
        Total number of cells.
    domain:
        Index universe of the sketched vector(s); decoded indices are
        validated against it.
    source:
        Seed source; determines the two fingerprint generators shared by
        every cell in the bank (sharing is sound — each cell's test is a
        separate polynomial identity).
    """

    __slots__ = ("size", "domain", "z1", "z2", "phi", "iota", "fp1", "fp2")

    def __init__(self, size: int, domain: int, source: HashSource):
        if size < 1:
            raise ValueError(f"bank needs at least one cell, got {size}")
        if domain < 1:
            raise ValueError(f"domain must be positive, got {domain}")
        self.size = size
        self.domain = domain
        self.z1 = 2 + int(source.derive(1).hash64(0)) % (MERSENNE31 - 2)
        self.z2 = 2 + int(source.derive(2).hash64(0)) % (MERSENNE31 - 2)
        # Field-major views into one contiguous block, so a lone bank is
        # already arena-shaped; SketchArena.adopt re-points these views
        # into a whole-sketch buffer.
        storage = np.zeros(4 * size, dtype=np.int64)
        self.phi = storage[:size]
        self.iota = storage[size:2 * size]
        self.fp1 = storage[2 * size:3 * size]
        self.fp2 = storage[3 * size:]

    def scatter(
        self, cells: np.ndarray, items: np.ndarray, deltas: np.ndarray
    ) -> None:
        """Apply ``x[items] += deltas`` routed into ``cells``.

        All three arrays are parallel; the same cell may appear multiple
        times (contributions accumulate).  This is the single hot path
        of the library.
        """
        self.scatter_multi([cells], items, deltas)

    def scatter_multi(
        self, cells_per_row: list[np.ndarray], items: np.ndarray, deltas: np.ndarray
    ) -> None:
        """Scatter one ``(items, deltas)`` payload through several routings.

        Equivalent to calling :meth:`scatter` once per entry of
        ``cells_per_row``, but the fingerprint contributions are
        computed once per entry (powers by lookup in the memoised
        tables of :func:`~repro.hashing.field.powmod_windowed`) and
        shared across rows, and the modular reduction of the
        fingerprint arrays runs once per call.  Routed through the
        ``scatter_multi`` kernel of :mod:`repro.kernels`.

        Raises ``ValueError`` before any cell is written if an item
        lies outside ``[0, domain)``: such an item leaves cells that
        never decode.
        """
        items = np.asarray(items, dtype=np.int64)
        if items.size and (
            int(items.min()) < 0 or int(items.max()) >= self.domain
        ):
            bad = int(items[(items < 0) | (items >= self.domain)][0])
            raise ValueError(
                f"index {bad} outside domain [0, {self.domain})"
            )
        _K_SCATTER(self, cells_per_row, items, deltas)

    def _require_combinable(self, other: "CellBank", op: str = "merge") -> None:
        if (
            other.size != self.size
            or other.domain != self.domain
            or other.z1 != self.z1
            or other.z2 != self.z2
        ):
            raise SketchCompatibilityError(
                f"cannot {op} banks: shape or seed differs"
            )

    def merge(self, other: "CellBank") -> None:
        """Cell-wise addition of a bank with identical seed and shape."""
        self._require_combinable(other)
        self.phi += other.phi
        self.iota += other.iota
        self.fp1[:] = mod_mersenne31(self.fp1 + other.fp1)
        self.fp2[:] = mod_mersenne31(self.fp2 + other.fp2)

    def subtract(self, other: "CellBank") -> None:
        """Cell-wise subtraction: afterwards this bank sketches ``x - y``.

        The temporal-decomposition primitive: a sketch of stream prefix
        ``[0, t2)`` minus a sketch of ``[0, t1)`` is *exactly* the
        sketch of the window ``[t1, t2)`` — same linearity that makes
        :meth:`merge` exact.  Fingerprints live in ``GF(2^31 - 1)``, so
        the difference is taken mod ``p`` (both operands are already
        reduced, hence ``+ p`` keeps the fold input non-negative).
        """
        self._require_combinable(other, op="subtract")
        self.phi -= other.phi
        self.iota -= other.iota
        self.fp1[:] = mod_mersenne31(self.fp1 - other.fp1 + MERSENNE31)
        self.fp2[:] = mod_mersenne31(self.fp2 - other.fp2 + MERSENNE31)

    def negate(self) -> None:
        """In-place negation: afterwards this bank sketches ``-x``."""
        np.negative(self.phi, out=self.phi)
        np.negative(self.iota, out=self.iota)
        self.fp1[:] = mod_mersenne31(MERSENNE31 - self.fp1)
        self.fp2[:] = mod_mersenne31(MERSENNE31 - self.fp2)

    def cells_view(
        self, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Gather ``(phi, iota, fp1, fp2)`` for the given cell indices."""
        return self.phi[idx], self.iota[idx], self.fp1[idx], self.fp2[idx]

    def summed_cells(
        self, idx2d: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sum cells across the first axis of a 2-D index array.

        ``idx2d`` has shape ``(groups, cells)``; the result is the
        cell-wise sum over the ``groups`` axis — the linear-combination
        trick of the AGM sketch: the sketch of a supernode is the sum of
        its members' sketches.
        """
        phi = self.phi[idx2d].sum(axis=0)
        iota = self.iota[idx2d].sum(axis=0)
        fp1 = mod_mersenne31(self.fp1[idx2d].sum(axis=0))
        fp2 = mod_mersenne31(self.fp2[idx2d].sum(axis=0))
        return phi, iota, fp1, fp2

    def memory_cells(self) -> int:
        """Number of cells — the space-accounting unit of EXPERIMENTS.md."""
        return self.size


def decode_cells(
    phi: np.ndarray,
    iota: np.ndarray,
    fp1: np.ndarray,
    fp2: np.ndarray,
    domain: int,
    z1: int,
    z2: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised 1-sparse decoding of a block of cells.

    Returns ``(ok, index, value)`` arrays with the block's shape; where
    ``ok`` is True the cell verifiably holds exactly one non-zero entry
    ``x[index] = value``.  Cells failing any test (zero, multi-item, or
    fingerprint mismatch) have ``ok = False``.
    """
    phi = np.asarray(phi)
    iota = np.asarray(iota)
    ok = phi != 0
    safe_phi = np.where(ok, phi, 1)
    ok &= np.mod(iota, safe_phi) == 0
    index = np.where(ok, iota // safe_phi, 0)
    ok &= (index >= 0) & (index < domain)
    idx_clipped = np.clip(index, 0, domain - 1)
    phimod = np.mod(phi, MERSENNE31)
    ok &= fp1 == mulmod(phimod, powmod_windowed(z1, idx_clipped))
    ok &= fp2 == mulmod(phimod, powmod_windowed(z2, idx_clipped))
    return ok, index, phi
