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
for its appends and compaction.
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
    _load,
    _read_header,
    merge_sketch_bytes,
    sketch_kind_of,
    subtract_sketch_bytes,
)

__all__ = ["Fold", "WarmTwin"]


def _of_spec(sketch: Any, data: bytes) -> bool:
    """Whether ``data``'s header names exactly ``sketch``'s spec.

    That is its kind, and each field of its ``_spec()`` (parameters and
    seed) with the same type and value.  :func:`load_sketch` would then
    build a twin of ``sketch`` from ``data``.  A header that does not
    parse, or names anything else, is left to the load path.
    """
    try:
        header = _read_header(data)[0]
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

    ``sketch`` is the twin a :class:`WarmTwin` lent, or ``None``; the
    first :meth:`merge` then builds a fresh sketch, which the caller
    owns when the fold was made without a :class:`WarmTwin`.
    """

    __slots__ = ("sketch", "_touched")

    def __init__(self, sketch: Any = None) -> None:
        self.sketch = sketch
        self._touched: list[np.ndarray | None] = []

    def merge(self, data: bytes) -> None:
        """Add one payload.

        The first goes into the lent twin only when its header names the
        twin's exact spec; otherwise :func:`load_sketch`'s path, with
        its checks and errors, loads it into a fresh sketch.  Into
        zeros, a merge is that load, byte for byte.
        """
        if self._touched or (
            self.sketch is not None and _of_spec(self.sketch, data)
        ):
            self._touched.append(merge_sketch_bytes(self.sketch, data))
        else:
            self.sketch, positions = _load(data)
            self._touched.append(positions)

    def subtract(self, data: bytes) -> None:
        """Subtract one payload from the sketch the merges started."""
        self._touched.append(subtract_sketch_bytes(self.sketch, data))

    def _zero(self) -> None:
        """Zero every position a payload named: all zeros again.

        Only pages the payloads wrote are written, so a sparse window
        keeps only those pages of the arena resident; a dense payload
        wrote every one, and the whole buffer is zeroed after it.
        """
        buffer = ensure_arena(self.sketch).buffer
        for positions in self._touched:
            if positions is None:
                buffer.fill(0)
                return
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
