"""Contiguous sketch-state arena — the whole sketch as one vector.

The paper treats a graph sketch as a single linear measurement vector:
merging distributed sites (Section 1.1), subtracting epoch checkpoints,
and shipping bytes are all the *same* vector operation.  Before this
module, our in-memory layout disagreed — every sketch class scattered
its state across per-bank numpy arrays, so ``merge``/``subtract``/
``dump_sketch`` looped over banks and re-packed arrays on the hot path
of both the distributed coordinator and the temporal engine.

:class:`SketchArena` restores the paper's view.  It owns **one**
contiguous ``int64`` buffer holding every cell of every constituent
:class:`~repro.sketch.bank.CellBank`, laid out field-major::

    [ phi of bank 0 | phi of bank 1 | ... ]   cells [0, C)
    [ iota ...                            ]   cells [C, 2C)
    [ fp1 ...                             ]   cells [2C, 3C)
    [ fp2 ...                             ]   cells [3C, 4C)

with ``C`` the total cell count.  Each bank's ``phi``/``iota``/``fp1``/
``fp2`` become *views* into the buffer, so every existing per-bank code
path (scatters, decoding, sampling) works unchanged — while whole-sketch
linear algebra collapses to a handful of whole-buffer vector ops:

* ``merge``/``subtract`` — one add/sub on the count half, one modular
  fold on the fingerprint half, regardless of how many banks the sketch
  has (a MINCUT hierarchy has hundreds);
* serialisation — the payload *is* ``buffer.tobytes()``: no per-bank
  gather, no re-concatenation (see :mod:`repro.sketch.serialize`).

Arenas attach lazily: a sketch's banks are born with small contiguous
self-storage, and the first whole-sketch operation adopts them into a
shared buffer.  Adoption is idempotent and self-healing — if a nested
sketch (say one forest group inside a ``k-EDGECONNECT``) is later used
as a top-level object, its banks are re-adopted into a fresh buffer and
any arena left pointing at the old storage detects the detachment and
rebuilds on next use.  Bank views are the single source of truth; an
arena is only ever *used* while all of its banks still view its buffer.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SketchCompatibilityError
from ..kernels import get as _get_kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .bank import CellBank

__all__ = ["SketchArena", "ArenaBacked", "ensure_arena", "slot_bytes"]

_K_FOLD = _get_kernel("arena_fold")
_K_FOLD_SPARSE = _get_kernel("arena_fold_sparse")
_K_NEGATE = _get_kernel("arena_negate")


class SketchArena:
    """One contiguous ``int64`` buffer backing a list of cell banks.

    Build with :meth:`adopt`; the constructor is internal.  ``buffer``
    has length ``4 * cells``; ``layout`` is the per-bank shape/seed
    signature ``(size, domain, z1, z2)`` used for combinability checks.
    """

    __slots__ = ("buffer", "cells", "banks", "layout")

    def __init__(
        self,
        buffer: np.ndarray,
        cells: int,
        banks: tuple["CellBank", ...],
        layout: tuple[tuple[int, int, int, int], ...],
    ):
        self.buffer = buffer
        self.cells = cells
        self.banks = banks
        self.layout = layout

    @classmethod
    def adopt(cls, banks: Sequence["CellBank"]) -> "SketchArena":
        """Move the given banks' cells into one fresh contiguous buffer.

        Current cell contents are preserved (copied in), and each bank's
        four field arrays are re-pointed to views of the buffer.  The
        bank order is the serialisation order — it must be deterministic
        for a given sketch class (see ``_cell_banks`` implementations).
        """
        banks = tuple(banks)
        if not banks:
            raise ValueError("an arena needs at least one cell bank")
        cells = sum(b.size for b in banks)
        # np.zeros maps copy-on-write zero pages, and a bank that is
        # still all-zero (any freshly built sketch) skips its copy — so
        # adopting an empty hierarchy sketch touches no page at all.
        # The distributed coordinator builds one such sketch (hundreds
        # of MB for the hierarchy classes) per merge; this keeps that
        # construction O(nnz folded in later), not O(cells).
        buffer = np.zeros(4 * cells, dtype=np.int64)
        offset = 0
        for bank in banks:
            end = offset + bank.size
            views = tuple(
                buffer[f * cells + offset:f * cells + end] for f in range(4)
            )
            if bank.phi.any() or bank.iota.any() or bank.fp1.any() \
                    or bank.fp2.any():
                np.copyto(views[0], bank.phi)
                np.copyto(views[1], bank.iota)
                np.copyto(views[2], bank.fp1)
                np.copyto(views[3], bank.fp2)
            bank.phi, bank.iota, bank.fp1, bank.fp2 = views
            offset = end
        layout = tuple((b.size, b.domain, b.z1, b.z2) for b in banks)
        return cls(buffer, cells, banks, layout)

    @classmethod
    def adopt_external(
        cls, banks: Sequence["CellBank"], buffer: np.ndarray
    ) -> "SketchArena":
        """Re-point the banks at an externally-owned buffer, copy-free.

        The buffer's *current contents* become the sketch state — the
        caller zeroes or preloads it.  This is the process-mode seam:
        a worker adopts its warm sketch's banks onto a slot of a
        ``multiprocessing.shared_memory`` segment and folds stream
        deltas directly into coordinator-visible memory.  The buffer
        may itself be a view (e.g. a slice of a larger shared
        segment); it must be one writable C-contiguous ``int64``
        vector of exactly ``4 * total_cells`` elements.
        """
        banks = tuple(banks)
        if not banks:
            raise ValueError("an arena needs at least one cell bank")
        cells = sum(b.size for b in banks)
        if (
            buffer.ndim != 1
            or buffer.dtype != np.int64
            or buffer.size != 4 * cells
            or not buffer.flags.c_contiguous
            or not buffer.flags.writeable
        ):
            raise SketchCompatibilityError(
                "external arena buffer must be one writable contiguous "
                f"int64 vector of {4 * cells} elements"
            )
        offset = 0
        for bank in banks:
            end = offset + bank.size
            views = tuple(
                buffer[f * cells + offset:f * cells + end] for f in range(4)
            )
            bank.phi, bank.iota, bank.fp1, bank.fp2 = views
            offset = end
        layout = tuple((b.size, b.domain, b.z1, b.z2) for b in banks)
        return cls(buffer, cells, banks, layout)

    def attached(self) -> bool:
        """Whether every bank still views this buffer.

        False after any of the banks was re-adopted by another arena
        (nested sketch used as top level, or vice versa); the owner then
        rebuilds via :func:`ensure_arena`.

        When the buffer is itself a view of a larger array (an
        :meth:`adopt_external` slot inside a shared segment), numpy
        collapses view chains — a bank's ``base`` is the *root* array,
        not this buffer — so the check compares against the root and
        additionally pins the first bank's address: two slots of the
        same segment share a root, and only the address tells a bank
        re-adopted onto a different slot apart.
        """
        buffer = self.buffer
        root = buffer if buffer.base is None else buffer.base
        first = self.banks[0].phi
        if first.base is not buffer and first.base is not root:
            return False
        if (
            first.__array_interface__["data"][0]
            != buffer.__array_interface__["data"][0]
        ):
            return False
        return all(
            b.phi.base is buffer or b.phi.base is root for b in self.banks
        )

    # -- whole-buffer linear algebra -------------------------------------------

    def _require_combinable(self, other: "SketchArena", op: str = "merge") -> None:
        if other.layout != self.layout:
            raise SketchCompatibilityError(
                f"cannot {op} arenas: bank layout or fingerprint seeds differ"
            )

    def merge(self, other: "SketchArena") -> None:
        """Cell-wise addition of an identically-laid-out arena."""
        self._require_combinable(other)
        self._combine_raw(other.buffer, subtract=False)

    def subtract(self, other: "SketchArena") -> None:
        """Cell-wise subtraction (the temporal-window primitive)."""
        self._require_combinable(other, op="subtract")
        self._combine_raw(other.buffer, subtract=True)

    def _combine_raw(self, raw: np.ndarray, subtract: bool) -> None:
        """Fold a raw buffer (same layout, already validated) into this one.

        Routed through the ``arena_fold`` kernel — identical cell for
        cell to the per-bank ``CellBank.merge``/``subtract`` it
        replaces, without per-bank Python overhead or DRAM-sized
        temporaries.
        """
        _K_FOLD(self.buffer, raw, self.cells, subtract)

    def _combine_sparse(
        self, idx: np.ndarray, values: np.ndarray, subtract: bool
    ) -> None:
        """Fold a sparse (index, value) payload into this arena.

        ``idx`` must be strictly increasing positions into the buffer
        (so indices are unique and fancy assignment is well-defined) and
        fingerprint values already reduced — both validated by the
        serialisation layer.  Cost is ``O(nnz)``, not ``O(cells)``: the
        coordinator-merge win for lightly-loaded site sketches.  Routed
        through the ``arena_fold_sparse`` kernel.
        """
        _K_FOLD_SPARSE(self.buffer, self.cells, idx, values, subtract)

    def negate(self) -> None:
        """In-place negation: afterwards the arena sketches ``-x``."""
        _K_NEGATE(self.buffer, self.cells)

    # -- accounting -------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Size of the backing buffer in bytes."""
        return int(self.buffer.nbytes)

    def memory_cells(self) -> int:
        """Total 1-sparse cells held (space accounting)."""
        return self.cells

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SketchArena(banks={len(self.banks)}, cells={self.cells}, "
            f"bytes={self.nbytes})"
        )


def slot_bytes(nnz: int, cells: int) -> int:
    """Bytes a coordinator reads to fold one site's ``cells``-cell sketch.

    ``nnz`` counts the nonzero entries of the site's ``4 * cells``
    buffer.  A site hands over 16 bytes per nonzero ``(index, value)``
    entry while at most half the buffer is nonzero, and the dense
    buffer, 32 bytes per cell, otherwise — so the figure never exceeds
    the dense one.  Every site-to-coordinator handoff is counted this
    way (the sharded runner's slots, the adaptive spanner's banks).
    """
    return 16 * nnz if 2 * nnz <= 4 * cells else 32 * cells


def ensure_arena(sketch) -> SketchArena:
    """The sketch's arena, (re)building it if absent or detached.

    ``sketch`` must implement ``_cell_banks()`` returning its cell banks
    in deterministic serialisation order.  The arena is cached on the
    object; a cached arena whose banks were stolen by another adoption
    is detected via :meth:`SketchArena.attached` and rebuilt.
    """
    arena = getattr(sketch, "_arena", None)
    if arena is None or not arena.attached():
        arena = SketchArena.adopt(sketch._cell_banks())
        sketch._arena = arena
    return arena


class ArenaBacked:
    """Mixin for sketch classes whose linear ops run on a shared arena.

    Subclasses implement ``_cell_banks()`` (deterministic order, same
    list their serialisation codec uses) and get a lazily-attached
    :class:`SketchArena` via :attr:`arena`.
    """

    #: Query capabilities the class declares for the :mod:`repro.api`
    #: capability registry (e.g. ``"connectivity"``, ``"mincut"``).
    #: Empty by default; each registry sketch class overrides it with
    #: the queries its post-processing surface can actually answer.
    CAPABILITIES: frozenset[str] = frozenset()

    _arena: SketchArena | None = None

    def _cell_banks(self) -> list["CellBank"]:
        raise NotImplementedError

    @property
    def arena(self) -> SketchArena:
        """The contiguous cell-state arena (created on first use)."""
        return ensure_arena(self)
