"""One warm twin: an all-zero sketch kept between the reads of one source.

A linear sketch applies one seed-fixed measurement matrix (Section
1.1), so every window of an epoch timeline and every span of an epoch
store is a vector with the same layout, and a read only folds the
O(nnz) cells of its payloads into a zeroed buffer of that layout.  A
fresh buffer per read costs more than the fold: constructing the
sketch, adopting its banks into an arena and first-touching the pages
its cells land in.  :class:`WarmTwin` keeps one such sketch between
reads.  :meth:`WarmTwin.lend` hands a :class:`Fold` the idle twin; the
fold adds and subtracts payloads with the byte combines, keeping the
positions each one named, and leaving the ``with`` block zeroes exactly
those positions and parks the sketch again.  The engine owns one for
its window queries, and each :class:`~repro.temporal.EpochStore` one
for its appends and compaction.  A fold takes blobs and the decoded
cells a store keeps of what it just wrote alike.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Iterator
from typing import Any

import numpy as np

from .arena import ensure_arena
from .serialize import (
    _SKETCH_KIND_PREFIX,
    SketchCells,
    _combine_cells,
    _load,
    _load_cells,
    _read_header,
    merge_sketch_bytes,
    read_cells,
    sketch_kind_of,
    subtract_sketch_bytes,
)

__all__ = ["Fold", "WarmTwin"]

#: What a fold folds: a sketch blob, or the cells one encodes.
Payload = bytes | SketchCells

#: A release fills the whole buffer once the folded payloads name at
#: least ``1 / _FILL_SHARE`` of its entries, and zeroes each payload's
#: positions below that.  On forest arenas of n = 32 .. 256 (86k to
#: 1.5M entries, 2 vCPUs) a scattered zero cost 1.4 to 5.1 ns a
#: position and a fill 0.28 to 0.35 ns an entry; the two met near one
#: tenth of the buffer at n = 128 and 256, and near one sixth at n = 32
#: and 64, where either takes under 0.07 ms.
_FILL_SHARE = 10


def _of_spec(sketch: Any, payload: Payload) -> bool:
    """Whether ``payload``'s header names exactly ``sketch``'s spec.

    That is its kind, and each field of its ``_spec()`` (parameters and
    seed) with the same type and value.  :func:`load_sketch` would then
    build a twin of ``sketch`` from ``payload``.  A header that does not
    parse, or names anything else, is left to the load path.
    """
    if isinstance(payload, SketchCells):
        header = payload.header
    else:
        try:
            header = _read_header(payload)[0]
        except ValueError:
            return False
    if header.get("__kind__") != _SKETCH_KIND_PREFIX + sketch_kind_of(sketch):
        return False
    return all(
        type(header.get(field)) is type(value) and header.get(field) == value
        for field, value in sketch._spec().items()
    )


class Fold:
    """Payloads folded into one sketch, and the positions they named.

    A payload is a sketch blob or the :class:`~repro.sketch.serialize.
    SketchCells` one encodes; cells fold without a read, under the same
    spec rule and compatibility check as bytes.  ``sketch`` is the twin
    a :class:`WarmTwin` lent, or ``None``; the first :meth:`merge` then
    builds a fresh sketch, which the caller owns when the fold was made
    without a :class:`WarmTwin`.
    """

    __slots__ = ("sketch", "_touched")

    def __init__(self, sketch: Any = None) -> None:
        self.sketch = sketch
        self._touched: list[np.ndarray | None] = []

    def _twin_for(self, payload: Payload) -> Any:
        """The lent twin when it is of ``payload``'s spec, else ``None``."""
        twin = self.sketch
        return twin if twin is not None and _of_spec(twin, payload) else None

    def read(self, data: bytes) -> SketchCells:
        """``data``'s cells, checked against the lent twin's layout when
        the twin is of their spec; nothing is folded."""
        return read_cells(data, into=self._twin_for(data))

    def merge(self, payload: Payload) -> None:
        """Add one payload.

        The first is loaded: :func:`load_sketch`'s path, with its checks
        and errors, assigns its cells into the lent twin when the header
        names the twin's exact spec, and into a fresh sketch otherwise.
        Into zeros, that assignment is a merge, byte for byte: stored
        fingerprints are canonical residues already.
        """
        if self._touched:
            self._touched.append(self._combine(payload, subtract=False))
            return
        into = self._twin_for(payload)
        if isinstance(payload, SketchCells):
            self.sketch, positions = _load_cells(payload, into=into)
        else:
            self.sketch, positions = _load(payload, into=into)
        self._touched.append(positions)

    def subtract(self, payload: Payload) -> None:
        """Subtract one payload from the sketch the merges started."""
        self._touched.append(self._combine(payload, subtract=True))

    def _combine(self, payload: Payload, subtract: bool) -> np.ndarray | None:
        if isinstance(payload, SketchCells):
            return _combine_cells(self.sketch, payload, subtract)
        if subtract:
            return subtract_sketch_bytes(self.sketch, payload)
        return merge_sketch_bytes(self.sketch, payload)

    def _zero(self) -> None:
        """Zero every position a payload named: all zeros again.

        Below ``1 / _FILL_SHARE`` of the buffer only the pages the
        payloads wrote are written, so a sparse window keeps only those
        pages of the arena resident.  Past it, and after a dense
        payload, which wrote every page, one fill is cheaper.
        """
        buffer = ensure_arena(self.sketch).buffer
        named = sum(
            buffer.size if positions is None else positions.size
            for positions in self._touched
        )
        if named * _FILL_SHARE >= buffer.size:
            buffer.fill(0)
            return
        for positions in self._touched:
            buffer[positions] = 0


class WarmTwin:
    """At most one all-zero sketch, lent to one :class:`Fold` at a time."""

    __slots__ = ("_idle", "_lock")

    def __init__(self) -> None:
        self._idle: Any = None
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def lend(self) -> Iterator[Fold]:
        """A fold over the idle twin, zeroed and parked again on exit.

        While one fold holds the twin, another (a second thread's query,
        say) starts a fresh sketch instead, and only one of the two is
        parked afterwards.  The sketch must not change outside the
        fold's payloads: a query reads it, a dump reads it.  An
        exception in the block, while folding, answering or dumping,
        drops the fold's sketch.
        """
        with self._lock:
            fold = Fold(self._idle)
            self._idle = None
        yield fold
        if fold.sketch is not None:
            fold._zero()
            with self._lock:
                if self._idle is None:
                    self._idle = fold.sketch

    def release(self) -> None:
        """Drop the idle twin; the next fold builds a fresh one."""
        with self._lock:
            self._idle = None
