"""Window materialisation over an epoch timeline or a durable store.

:func:`materialise_window` answers "what did the graph look like between
checkpoints t1 and t2?" by *sketch subtraction*: load the cumulative
checkpoint at ``t2``, subtract the one at ``t1``, and the result is —
exactly, by linearity — the sketch a fresh instance would have produced
consuming only the window's tokens.  The materialised window sketch is
an ordinary sketch object, so the engine's ``query()`` dispatch (and
every sketch class's own query surface) applies unchanged.

A caveat inherent to *delta* windows: a window that deletes edges
inserted before ``t1`` sketches a vector with negative entries.  The
algebra stays exact (the equivalence suite pins byte-identity), but
graph-shaped answers are about the window's net effect, not a graph
state.  For state-at-a-time questions, query a prefix window
``[0, t)`` — see ``examples/temporal_forensics.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Union

from ..errors import StoreCorruptionError
from ..sketch.serialize import (
    load_sketch,
    merge_sketch_bytes,
    subtract_sketch_bytes,
)
from .epochs import require_window
from .store import EpochStore

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .epochs import EpochTimeline

    WindowSource = Union[EpochTimeline, EpochStore]
else:
    WindowSource = Any

__all__ = [
    "materialise_window",
    "require_window",
    "window_payload_bytes",
    "window_tokens",
]


def materialise_window(source: WindowSource, t1: int, t2: int) -> Any:
    """The sketch of exactly the tokens in epochs ``t1+1 .. t2``.

    ``source`` is either an in-memory :class:`~repro.temporal.epochs.
    EpochTimeline` (one checkpoint load for a prefix window, two loads
    and a subtraction otherwise) or a durable :class:`~repro.temporal.
    store.EpochStore` (O(log T) dyadic span loads merged, no
    subtraction) — both exact by linearity, and byte-identical to each
    other.  Both sources validate the range (:func:`require_window`).

    Store segments are CRC-verified at page-in, so a store window whose
    segments then fail to load or combine raises
    :class:`~repro.errors.StoreCorruptionError`; timeline windows raise
    the codec's :class:`ValueError` unchanged.
    """
    merge, subtract = source.window_payloads(t1, t2)
    try:
        sketch = load_sketch(merge[0])
        for payload in merge[1:]:
            merge_sketch_bytes(sketch, payload)
        for payload in subtract:
            # In-arena subtraction of the earlier checkpoint's bytes —
            # no second twin sketch is materialised.
            subtract_sketch_bytes(sketch, payload)
    except ValueError as err:
        if not isinstance(source, EpochStore):
            raise
        raise StoreCorruptionError(
            f"window [{t1}, {t2}) failed to materialise from verified "
            f"segments: {err}"
        ) from err
    return sketch


def window_payload_bytes(source: WindowSource, t1: int, t2: int) -> int:
    """Checkpoint bytes :func:`materialise_window` loads for ``[t1, t2)``."""
    return int(source.window_payload_bytes(t1, t2))


def window_tokens(source: WindowSource, t1: int, t2: int) -> int:
    """Number of stream tokens the epoch window ``[t1, t2)`` spans."""
    require_window(source.epochs, t1, t2)
    boundaries = source.boundaries
    start = boundaries[t1 - 1] if t1 else 0
    return int(boundaries[t2 - 1] - start)
