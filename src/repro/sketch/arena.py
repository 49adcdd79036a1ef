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

import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SketchCompatibilityError, incompatible
from ..kernels import get as _get_kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..streams import StreamBatch
    from .bank import CellBank

__all__ = [
    "SketchArena", "ArenaBacked", "check_params", "ensure_arena", "slot_bytes",
]

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


#: The rule for each constructor keyword of a registry kind:
#: ``name -> (type, bound, bound excluded)``.  An ``int`` parameter
#: takes a Python ``int`` — not a ``bool``, and not a numpy integer,
#: which a JSON blob header cannot hold — at or above its bound.  A
#: ``float`` parameter takes a finite ``int`` or ``float`` above (or,
#: if the bound is not excluded, at) its bound.
_PARAM_RULES: dict[str, tuple[type, int, bool]] = {
    "n": (int, 2, False),
    "k": (int, 1, False),
    "rounds": (int, 1, False),
    "rows": (int, 1, False),
    "buckets": (int, 1, False),
    "samplers": (int, 1, False),
    "max_weight": (int, 1, False),
    "order": (int, 1, False),
    "levels": (int, 0, False),
    "epsilon": (float, 0, False),
    "c_k": (float, 0, True),
    "c_rough": (float, 0, True),
    "c_level": (float, 0, True),
    "weight_scale": (float, 1, False),
    # The adaptive spanner drivers' constants.
    "sample_copies": (int, 1, False),
    "c_buckets": (float, 0, True),
    "c_deg": (float, 0, True),
}
#: Parameters a constructor derives itself when given ``None``.
_DERIVED_WHEN_NONE = frozenset({"rounds", "levels"})


def check_params(**params: object) -> None:
    """Refuse any constructor keyword whose value its rule does not admit.

    Every registry sketch constructor calls this on its keywords first,
    so :meth:`~repro.api.SketchSpec.build`, the codec's rebuild of a
    blob header and serve's tenant creation all refuse the same values
    with the same :class:`ValueError`, which names the field.  What a
    kind adds on top (a hierarchy's ``epsilon`` in ``(0, 1]``, a
    subgraph order of 3..5) stays in that kind's constructor.
    """
    for name, value in params.items():
        if value is None and name in _DERIVED_WHEN_NONE:
            continue
        expected, bound, excluded = _PARAM_RULES[name]
        if expected is int:
            if type(value) is not int:
                raise ValueError(f"{name} must be a Python int, got {value!r}")
            if value < bound:
                raise ValueError(f"{name} must be >= {bound}, got {value!r}")
        # ``abs(value) <= max`` fails for NaN, ±inf and an int past
        # the float range alike.
        elif isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not abs(value) <= sys.float_info.max \
                or value < bound or (excluded and value == bound):
            raise ValueError(
                f"{name} must be a finite real {'>' if excluded else '>='} "
                f"{bound}, got {value!r}"
            )


class ArenaBacked:
    """Base of every sketch whose state is one arena: the sketch algebra.

    A subclass names its state and its measurement matrix once each:

    * ``_cell_banks()`` — its cell banks in deterministic order, which
      is the arena order and the serialised payload order;
    * ``_params()`` — the JSON-able constructor parameters that, with
      ``source_seed``, fix the measurement matrix (for a registry kind
      these are exactly the blob header's parameter fields).

    and inherits the linear algebra: :meth:`merge`, :meth:`subtract`
    and :meth:`negate` on the lazily-attached :attr:`arena`.  Two
    sketches combine iff they are the same class with equal
    ``_params()``, equal seeds, and equal arena layouts — the one rule
    the codec's ``like=`` checks and byte combines apply as well, so
    every path accepts and refuses the same pairs.
    """

    #: Query capabilities the class declares for the :mod:`repro.api`
    #: capability registry (e.g. ``"connectivity"``, ``"mincut"``).
    #: Empty by default; each registry sketch class overrides it with
    #: the queries its post-processing surface can actually answer.
    CAPABILITIES: frozenset[str] = frozenset()

    _arena: SketchArena | None = None

    #: Seed of the constructing source; part of the measurement matrix.
    source_seed: int | None

    #: Node universe of a graph sketch (the banks have none).
    n: int

    def _cell_banks(self) -> list["CellBank"]:
        raise NotImplementedError

    def _params(self) -> dict:
        raise NotImplementedError

    @property
    def arena(self) -> SketchArena:
        """The contiguous cell-state arena (created on first use)."""
        return ensure_arena(self)

    def _check_universe(self, batch: "StreamBatch") -> None:
        """Refuse a batch over another node universe than the sketch's."""
        if batch.n != self.n:
            raise ValueError("batch and sketch node universes differ")

    def _spec(self) -> dict:
        """``_params()`` plus the seed: what a combinable sketch shares."""
        spec = self._params()
        spec["seed"] = self.source_seed
        return spec

    def _mismatches(self, spec: dict) -> list[tuple[str, object, object]]:
        """``(field, ours, theirs)`` for each field of :meth:`_spec` that
        ``spec`` (another sketch's, or a blob header) disagrees on."""
        return [
            (field, ours, spec.get(field))
            for field, ours in self._spec().items()
            if spec.get(field) != ours
        ]

    def _require_combinable(self, other: "ArenaBacked", op: str = "merge") -> None:
        name = type(self).__name__
        if type(other) is not type(self):
            raise SketchCompatibilityError(
                f"cannot {op} {name} with a {type(other).__name__}"
            )
        mismatched = self._mismatches(other._spec())
        if mismatched:
            raise incompatible(name, *mismatched[0], op=op)

    def merge(self, other: "ArenaBacked") -> None:
        """Add an identically-built sketch (distributed streams, §1.1)."""
        self._require_combinable(other)
        self.arena.merge(other.arena)

    def subtract(self, other: "ArenaBacked") -> None:
        """Subtract an identically-built sketch (temporal windows)."""
        self._require_combinable(other, op="subtract")
        self.arena.subtract(other.arena)

    def negate(self) -> None:
        """Negate the sketched vector in place."""
        self.arena.negate()
