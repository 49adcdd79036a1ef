"""The capability registry: which sketch kind answers which queries.

Every registry sketch class declares the queries it supports in its
``CAPABILITIES`` class attribute (e.g. ``frozenset({"connectivity"})``
on :class:`~repro.core.forest.SpanningForestSketch`); this module
collects those declarations into one table with an entry for every
kind of the serialisation codec registry (same kind name, same class),
plus the two adaptive spanner drivers (which are multi-batch
*builders*, not serialisable linear state, and therefore support
neither epochs nor snapshots).

:class:`~repro.api.GraphSketchEngine` consults the table on every
``query()`` — a query whose capability the kind does not declare raises
:class:`~repro.errors.NotSupportedError` — and future backends register
the same way (:func:`register_capability`), which is what keeps the
facade open for new sketch families without touching the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import BaswanaSenSpanner, RecurseConnectSpanner
from ..errors import NotSupportedError
from ..sketch.serialize import serializable_sketch_kinds, sketch_codec
from .queries import CAPABILITIES

__all__ = [
    "CapabilityEntry",
    "capability_entry",
    "kind_of_sketch",
    "register_capability",
    "registered_kinds",
]


@dataclass(frozen=True)
class CapabilityEntry:
    """One registered sketch kind.

    Attributes
    ----------
    kind:
        Stable kind name (identical to the codec-registry name for the
        serialisable classes).
    cls:
        The sketch class; built from a spec as
        ``cls(n, source=HashSource(seed), **params)``.
    queries:
        Capability names the class declares (its ``CAPABILITIES``).
    serialisable:
        Whether the kind has a registered codec — i.e. supports
        snapshots, sharded byte-shipping, and epoch checkpoints.
    adaptive:
        Whether the kind is a multi-batch driver that must see a
        replayable stream (the spanner builders).
    """

    kind: str
    cls: type
    queries: frozenset[str]
    serialisable: bool = True
    adaptive: bool = False


_REGISTRY: dict[str, CapabilityEntry] = {}
_KIND_BY_CLASS: dict[type, str] = {}


def register_capability(entry: CapabilityEntry) -> None:
    """Register a sketch kind (idempotent for identical re-registration).

    Refuses unknown capability names — the query vocabulary is closed
    over :data:`~repro.api.queries.CAPABILITIES` so a typo in a class
    declaration fails at import time, not at first dispatch.
    """
    unknown = entry.queries - set(CAPABILITIES)
    if unknown:
        raise ValueError(
            f"kind {entry.kind!r} declares unknown capabilities "
            f"{sorted(unknown)}; known: {', '.join(CAPABILITIES)}"
        )
    existing = _REGISTRY.get(entry.kind)
    if existing is not None and existing != entry:
        raise ValueError(
            f"kind {entry.kind!r} already registered for "
            f"{existing.cls.__name__} with a different entry; "
            "re-registration must be identical"
        )
    _REGISTRY[entry.kind] = entry
    _KIND_BY_CLASS[entry.cls] = entry.kind


def capability_entry(kind: str) -> CapabilityEntry:
    """Look a kind up, with the known-kind list in the error."""
    entry = _REGISTRY.get(kind)
    if entry is None:
        raise NotSupportedError(
            f"unknown sketch kind {kind!r}; "
            f"known kinds: {', '.join(sorted(_REGISTRY))}"
        )
    return entry


def registered_kinds() -> tuple[str, ...]:
    """Every registered kind name, sorted."""
    return tuple(sorted(_REGISTRY))


def kind_of_sketch(sketch: object) -> str:
    """The registered kind of a live sketch instance."""
    kind = _KIND_BY_CLASS.get(type(sketch))
    if kind is None:
        raise NotSupportedError(
            f"{type(sketch).__name__} is not a capability-registry class"
        )
    return kind


def _register_builtin() -> None:
    """One entry per codec kind, plus the two adaptive spanner drivers."""
    for kind in serializable_sketch_kinds():
        cls = sketch_codec(kind).cls
        register_capability(CapabilityEntry(
            kind=kind, cls=cls, queries=frozenset(cls.CAPABILITIES),
        ))
    for kind, cls in (
        ("baswana_sen_spanner", BaswanaSenSpanner),
        ("recurse_connect_spanner", RecurseConnectSpanner),
    ):
        register_capability(CapabilityEntry(
            kind=kind, cls=cls, queries=frozenset(cls.CAPABILITIES),
            serialisable=False, adaptive=True,
        ))


_register_builtin()
