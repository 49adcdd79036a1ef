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
from ..sketch.twin import Fold
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


def materialise_window(
    source: WindowSource, t1: int, t2: int, twin: Fold | None = None
) -> Any:
    """The sketch of exactly the tokens in epochs ``t1+1 .. t2``.

    ``source`` is either an in-memory :class:`~repro.temporal.epochs.
    EpochTimeline` (one checkpoint load for a prefix window, two loads
    and a subtraction otherwise) or a durable :class:`~repro.temporal.
    store.EpochStore` (O(log T) dyadic span loads merged, no
    subtraction) — both exact by linearity, and byte-identical to each
    other.  Both sources validate the range (:func:`require_window`).

    Without ``twin`` the window is a fresh sketch that the caller owns.
    With ``twin``, a :class:`~repro.sketch.twin.Fold` lent by a
    :class:`~repro.sketch.twin.WarmTwin`, the payloads are folded into
    the lent all-zero sketch instead, and the result is valid until the
    lender's ``with`` block ends (the engine answers its query inside
    it).  Either way the sketch and every error are the same.

    A store hands the spans its tail holds as decoded cells, which fold
    without a read.  Store segments are CRC-verified at page-in, so a
    store window whose segments then fail to load or combine raises
    :class:`~repro.errors.StoreCorruptionError`; timeline windows raise
    the codec's :class:`ValueError` unchanged.
    """
    merge, subtract = source.window_payloads(t1, t2)
    fold = Fold() if twin is None else twin
    try:
        for payload in merge:
            fold.merge(payload)
        for payload in subtract:
            # In-arena subtraction of the earlier checkpoint's bytes —
            # no second twin sketch is materialised.
            fold.subtract(payload)
    except ValueError as err:
        if not isinstance(source, EpochStore):
            raise
        raise StoreCorruptionError(
            f"window [{t1}, {t2}) failed to materialise from verified "
            f"segments: {err}"
        ) from err
    return fold.sketch


def window_payload_bytes(source: WindowSource, t1: int, t2: int) -> int:
    """Checkpoint bytes :func:`materialise_window` loads for ``[t1, t2)``."""
    return int(source.window_payload_bytes(t1, t2))


def window_tokens(source: WindowSource, t1: int, t2: int) -> int:
    """Number of stream tokens the epoch window ``[t1, t2)`` spans."""
    require_window(source.epochs, t1, t2)
    boundaries = source.boundaries
    start = boundaries[t1 - 1] if t1 else 0
    return int(boundaries[t2 - 1] - start)
