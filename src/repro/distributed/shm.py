"""Shared-memory segments for process-mode site execution.

Process mode used to pickle numpy columns into every worker and pickle
serialised sketch payloads back out — faithful to the paper's
communication accounting, but it pushed ~2× the sketch bytes through
pipes on every run and made ``mode="process"`` *slower* than
sequential.  This module is the zero-copy alternative: the coordinator
owns a small set of named ``multiprocessing.shared_memory`` segments,
each worker maps them once and folds its site's deltas straight into a
per-site slot, and the only thing a site "ships" back through the pool
is a ``(site, tokens, nbytes, seconds, header)`` tuple, ``header``
being its sketch's kind, parameters and seed.  Sequential mode runs
the same site step over plain arrays and needs no segment.

Segment naming
--------------
``rsk<pid hex>-<seq hex>`` — the creating process id plus a
module-level monotonic counter.  Unique within a machine without
consulting an RNG (unseeded randomness is banned repo-wide, REP-D001)
and comfortably inside macOS's ~31-character POSIX shm name limit.
Growing a segment allocates a *new* name (a generation bump): workers
detect staleness by comparing names, never by guessing whether an old
mapping moved or resized underneath them.

Lifetime and crash cleanup
--------------------------
A :class:`SegmentRegistry` is the single owner of every segment it
creates.  ``close()`` unlinks deterministically; a ``weakref.finalize``
covers registries that are garbage-collected without ``close()``; and
because the creating process keeps its ``resource_tracker``
registration, segments are unlinked even if the coordinator process
dies hard.  Workers only *attach*, and attaching stays ownership-free
without any extra bookkeeping: pool children inherit the parent's
resource-tracker process, whose per-type ledger is a *set* of names —
the attach-side ``register`` of an already-registered name is a no-op,
a worker's death triggers nothing (only the tracker's own shutdown
sweeps leaks), and the one ``unregister`` happens exactly once, inside
the coordinator's ``unlink``.  (The bpo-38119 double-unlink bug needs
an attacher with a *separate* tracker — an unrelated process — which
the pool never creates.)
"""

from __future__ import annotations

import contextlib
import os
import weakref
from itertools import count
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SegmentRegistry",
    "active_segment_names",
    "reset_worker_cache",
    "worker_view",
]

#: Monotonic per-process counter feeding :func:`_segment_name`.
_SEQUENCE = count()

#: Names of segments currently owned by live registries in this
#: process, in creation order (introspection/test surface).
_LIVE_NAMES: list[str] = []

#: Unlinked segments whose local mapping is still pinned by exported
#: numpy views (e.g. an exception traceback keeping a run frame — and
#: its slot view — alive).  Holding them here stops ``__del__`` from
#: retrying ``close()`` mid-GC and warning; they are reaped on the
#: next release once the views are gone.
_ZOMBIES: list[shared_memory.SharedMemory] = []


def _segment_name() -> str:
    """A fresh, deterministic, tracker-friendly segment name."""
    return f"rsk{os.getpid():x}-{next(_SEQUENCE):x}"


def _reap_zombies() -> None:
    """Close any graveyard segment whose pinning views have since died."""
    survivors = []
    while _ZOMBIES:
        seg = _ZOMBIES.pop()
        try:
            seg.close()
        except BufferError:
            survivors.append(seg)
    _ZOMBIES.extend(survivors)


def _release(
    segments: dict[str, shared_memory.SharedMemory],
    views: dict[str, np.ndarray],
) -> None:
    """Unlink every owned segment (the close() and GC-finalizer path)."""
    views.clear()
    while segments:
        _role, seg = segments.popitem()
        with contextlib.suppress(FileNotFoundError):
            seg.unlink()
        if seg.name in _LIVE_NAMES:
            _LIVE_NAMES.remove(seg.name)
        try:
            # A still-exported numpy view pins the local mapping; the
            # unlink above removed the *name* regardless, and a pinned
            # mapping is parked until its views die (or the process
            # exits, which frees it unconditionally).
            seg.close()
        except BufferError:
            _ZOMBIES.append(seg)
    _reap_zombies()


class SegmentRegistry:
    """Coordinator-owned shared segments, one per role.

    Roles are short strings (``"input"``, ``"result"``); each maps to
    one named segment plus a whole-segment ``int64`` view.  Segments
    grow by *replacement* under a new name, and every creation path is
    paired with a guaranteed unlink: explicit :meth:`close`, the
    ``weakref.finalize`` below, or — for a hard coordinator crash —
    the process's resource tracker.
    """

    __slots__ = ("_segments", "_views", "_finalizer", "__weakref__")

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._views: dict[str, np.ndarray] = {}
        self._finalizer = weakref.finalize(
            self, _release, self._segments, self._views
        )

    def ensure(self, role: str, elements: int) -> np.ndarray:
        """An ``int64`` view of ``elements`` cells backing ``role``.

        Creates the segment on first use and re-creates it under a new
        name when ``elements`` outgrows the current one; an adequate
        existing segment is reused as-is (its contents are whatever the
        last run left — callers overwrite their region).
        """
        nbytes = max(8 * int(elements), 8)
        seg = self._segments.get(role)
        if seg is not None and seg.size < nbytes:
            _release(
                {role: self._segments.pop(role)},
                {role: self._views.pop(role)},
            )
            seg = None
        if seg is None:
            seg = shared_memory.SharedMemory(
                create=True, size=nbytes, name=_segment_name()
            )
            self._segments[role] = seg
            self._views[role] = np.frombuffer(seg.buf, dtype=np.int64)
            _LIVE_NAMES.append(seg.name)
        return self._views[role][: int(elements)]

    def name(self, role: str) -> str:
        """The current segment name backing ``role``."""
        return self._segments[role].name

    def close(self) -> None:
        """Unlink every owned segment now.  Idempotent."""
        _release(self._segments, self._views)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        roles = ", ".join(
            f"{role}={seg.name}" for role, seg in self._segments.items()
        )
        return f"SegmentRegistry({roles})"


def active_segment_names() -> list[str]:
    """Names of registry-owned segments still linked by this process."""
    return list(_LIVE_NAMES)


# -- worker (attach) side -------------------------------------------------------

#: Per-process attachment cache: role -> (segment, whole-segment view).
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}

#: Evicted segments whose mappings are still pinned by live views (the
#: worker's warm sketch state); parked here so their ``__del__`` does
#: not retry ``close()`` and warn.  Reclaimed when the views die.
_PINNED: list[shared_memory.SharedMemory] = []


def worker_view(role: str, name: str) -> np.ndarray:
    """This process's ``int64`` view of segment ``name``, cached per role.

    A cached attachment for ``role`` under an older name is a stale
    generation (the coordinator grew the segment): it is dropped — or
    parked if live views still pin it — and the new name attached.
    Attaching never takes ownership: the worker shares the
    coordinator's resource tracker, where the attach-side registration
    of an existing name is a set no-op (see the module docstring), so
    worker exit — clean, crashed, or terminated — cannot unlink
    coordinator state.
    """
    cached = _ATTACHED.get(role)
    if cached is not None:
        seg, view = cached
        if seg.name == name:
            return view
        del _ATTACHED[role]
        try:
            seg.close()
        except BufferError:
            _PINNED.append(seg)
    seg = shared_memory.SharedMemory(name=name)
    view = np.frombuffer(seg.buf, dtype=np.int64)
    _ATTACHED[role] = (seg, view)
    return view


def reset_worker_cache() -> None:
    """Drop every cached attachment.

    For tests that exercise the worker path in-process; a real pool
    worker keeps its cache for its whole life.
    """
    while _ATTACHED:
        _role, (seg, _view) = _ATTACHED.popitem()
        _PINNED.append(seg)
    survivors = []
    while _PINNED:
        seg = _PINNED.pop()
        try:
            seg.close()
        except BufferError:
            # Still pinned (a warm sketch's views may die in a later GC
            # pass); keep the reference so ``__del__`` stays quiet.
            survivors.append(seg)
    _PINNED.extend(survivors)
