"""Epoch checkpointing of cumulative sketches.

An *epoch* is a contiguous run of stream tokens; sealing an epoch
serialises the manager's cumulative sketch — the sketch of the whole
prefix ``[0, boundary)`` — into an immutable checkpoint payload.
Checkpoints are deliberately cumulative rather than per-epoch deltas:
any window ``[t1, t2)`` then needs exactly *two* checkpoint loads and
one subtraction, instead of ``t2 - t1`` delta merges.

Checkpoints are plain :func:`repro.sketch.dump_sketch` payloads with
epoch metadata attached, so everything the serialisation layer already
verifies (parameters, seed, cell layout, fingerprint range, payload
CRC) applies to temporal storage too, and a checkpoint can be loaded,
merged, or subtracted like any shipped sketch.  With the arena codec,
sealing is a single buffer snapshot (early, lightly-loaded epochs ship
as sparse ``(position, value)`` pairs) and the query engine folds an
earlier checkpoint's *bytes* straight into a materialised window —
see :func:`repro.sketch.subtract_sketch_bytes`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import EpochStoreError, SketchCompatibilityError, StoreCorruptionError
from ..sketch.serialize import (
    _is_int,
    dump_epoch_manifest,
    dump_sketch,
    load_epoch_manifest,
    load_sketch,
    peek_sketch_meta,
)
from ..streams import DynamicGraphStream, StreamBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports us)
    from .store import EpochStore

__all__ = [
    "EpochCheckpoint",
    "EpochManager",
    "EpochTimeline",
    "epoch_boundaries",
    "normalize_boundaries",
    "require_window",
]


def epoch_boundaries(tokens: int, epochs: int) -> list[int]:
    """Evenly spaced epoch-end token positions (last one == ``tokens``)."""
    if epochs < 1:
        raise ValueError(f"need at least one epoch, got {epochs}")
    return [tokens * (e + 1) // epochs for e in range(epochs)]


def require_window(epochs: int, t1: int, t2: int) -> None:
    """Validate the half-open epoch range ``[t1, t2)`` against ``epochs``."""
    if not (0 <= t1 < t2 <= epochs):
        raise ValueError(
            f"window [{t1}, {t2}) is not a valid epoch range within "
            f"[0, {epochs}]"
        )


@dataclass(frozen=True, slots=True)
class EpochCheckpoint:
    """One sealed epoch: the cumulative sketch of the prefix ``[0, end)``.

    Attributes
    ----------
    epoch:
        1-based epoch index; checkpoint ``e`` covers epochs ``1..e``.
    tokens:
        Tokens consumed during this epoch alone.
    cumulative_tokens:
        Tokens in the whole checkpointed prefix.
    payload:
        ``dump_sketch`` bytes (with ``epoch`` metadata in the header).
    """

    epoch: int
    tokens: int
    cumulative_tokens: int
    payload: bytes


def _check_epoch(index: int, checkpoint: EpochCheckpoint) -> None:
    """Refuse a checkpoint at position ``index`` that does not seal epoch
    ``index + 1``."""
    if checkpoint.epoch != index + 1:
        raise ValueError(
            f"checkpoint {index} carries epoch id {checkpoint.epoch}, "
            f"expected {index + 1} — out-of-order or missing epochs"
        )


class EpochTimeline:
    """An immutable, ordered sequence of cumulative epoch checkpoints.

    The temporal analogue of a shipped sketch: everything a query
    engine needs to materialise any epoch-aligned window, bundled into
    one manifest blob by :meth:`to_bytes` and restored — with full
    integrity checking — by :meth:`from_bytes`.
    """

    def __init__(self, n: int, checkpoints: Sequence[EpochCheckpoint]):
        if not checkpoints:
            raise ValueError("a timeline needs at least one checkpoint")
        for i, chk in enumerate(checkpoints):
            _check_epoch(i, chk)
        self.n = n
        self.checkpoints: tuple[EpochCheckpoint, ...] = tuple(checkpoints)

    def extended(self, checkpoint: EpochCheckpoint) -> "EpochTimeline":
        """This timeline with ``checkpoint`` sealed after its last epoch.

        Only the new checkpoint's epoch id is checked: this timeline's
        were checked when it was built.
        """
        _check_epoch(self.epochs, checkpoint)
        timeline = object.__new__(type(self))
        timeline.n = self.n
        timeline.checkpoints = (*self.checkpoints, checkpoint)
        return timeline

    @property
    def epochs(self) -> int:
        """Number of sealed epochs ``E``."""
        return len(self.checkpoints)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Cumulative token position at the end of each epoch."""
        return tuple(c.cumulative_tokens for c in self.checkpoints)

    @property
    def total_payload_bytes(self) -> int:
        """Total checkpoint storage held by the timeline."""
        return sum(len(c.payload) for c in self.checkpoints)

    @property
    def sketch_kind(self) -> str:
        """Registered kind name of the checkpointed sketch class."""
        return str(peek_sketch_meta(self.checkpoints[0].payload)["__kind__"])

    def checkpoint(self, epoch: int) -> EpochCheckpoint:
        """The checkpoint sealing epoch ``epoch`` (1-based)."""
        if not 1 <= epoch <= self.epochs:
            raise ValueError(
                f"epoch {epoch} outside the timeline's [1, {self.epochs}]"
            )
        return self.checkpoints[epoch - 1]

    def window_payloads(self, t1: int, t2: int) -> tuple[list[bytes], list[bytes]]:
        """Payloads to merge / subtract for the window ``[t1, t2)``.

        The cumulative representation answers every window from the
        ``t2`` checkpoint minus (when ``t1 > 0``) the ``t1`` checkpoint.
        Same duck-typed surface as :meth:`repro.temporal.store.
        EpochStore.window_payloads`, whose second list is always empty.
        """
        require_window(self.epochs, t1, t2)
        subtract = [self.checkpoint(t1).payload] if t1 > 0 else []
        return [self.checkpoint(t2).payload], subtract

    def window_payload_bytes(self, t1: int, t2: int) -> int:
        """Checkpoint bytes a window materialisation loads for ``[t1, t2)``."""
        merge, subtract = self.window_payloads(t1, t2)
        return sum(len(p) for p in merge) + sum(len(p) for p in subtract)

    def to_bytes(self) -> bytes:
        """Serialise the timeline into one epoch-manifest blob."""
        return dump_epoch_manifest(
            [c.payload for c in self.checkpoints],
            epoch_ids=[c.epoch for c in self.checkpoints],
            meta={
                "n": self.n,
                "epoch_tokens": [c.tokens for c in self.checkpoints],
                "boundaries": list(self.boundaries),
            },
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EpochTimeline":
        """Restore a timeline from :meth:`to_bytes` output.

        Truncated payload bytes, out-of-order epoch ids, and mixed
        sketch kinds/seeds are all refused by the manifest loader
        (:class:`ValueError` / :class:`~repro.errors.
        SketchCompatibilityError`) — a timeline that loads is internally
        consistent.
        """
        header, payloads = load_epoch_manifest(data)
        epoch_tokens = header.get("epoch_tokens")
        boundaries = header.get("boundaries")
        n = header.get("n", 0)
        if (
            not isinstance(epoch_tokens, list)
            or not isinstance(boundaries, list)
            or len(epoch_tokens) != len(payloads)
            or len(boundaries) != len(payloads)
        ):
            raise ValueError(
                "epoch manifest lacks consistent epoch_tokens/boundaries"
            )
        if not all(map(_is_int, [n, *epoch_tokens, *boundaries])):
            raise ValueError(
                "epoch manifest header holds a non-integer n, epoch_tokens "
                "or boundaries value"
            )
        checkpoints = [
            EpochCheckpoint(epoch, tokens, cumulative, payload)
            for epoch, tokens, cumulative, payload in zip(
                header["epoch_ids"], epoch_tokens, boundaries, payloads
            )
        ]
        return cls(n, checkpoints)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EpochTimeline(n={self.n}, epochs={self.epochs}, "
            f"bytes={self.total_payload_bytes})"
        )


class EpochManager:
    """Consume a stream epoch by epoch, sealing cumulative checkpoints.

    Parameters
    ----------
    factory:
        Zero-argument callable returning a fresh, *seeded* sketch (the
        same contract as the distributed runner's factory: the seed
        must be recorded so checkpoints can be serialised and later
        verified against each other).

    Streaming usage::

        manager = EpochManager(factory)
        manager.extend(batch_1)      # any number of columnar batches
        manager.seal_epoch()         # checkpoint prefix so far
        manager.extend(batch_2)
        manager.seal_epoch()
        timeline = manager.timeline()

    or one-shot over a whole stream with an epoch grid:
    :meth:`consume`.

    With ``store=`` the manager runs *durable*: every sealed checkpoint
    is appended straight to an :class:`~repro.temporal.store.EpochStore`
    and **not** retained in memory, so RAM stays bounded by one live
    sketch no matter how many epochs are sealed.  Query the store (or
    :func:`~repro.temporal.query.materialise_window` over it) instead of
    :meth:`timeline`, and continue an interrupted run from disk with
    :meth:`resume`.
    """

    def __init__(
        self,
        factory: Callable[[], object],
        store: "EpochStore | None" = None,
    ):
        self._sketch = factory()
        if not hasattr(self._sketch, "consume_batch"):
            raise TypeError(
                f"{type(self._sketch).__name__} has no consume_batch; the "
                "epoch manager requires the columnar ingestion path"
            )
        if store is not None and store.epochs > 0:
            raise EpochStoreError(
                f"store at {store.root!s} already holds {store.epochs} "
                "epochs; use EpochManager.resume(store) to continue it "
                "instead of attaching a fresh manager"
            )
        self._store = store
        #: The in-memory timeline, extended by each seal; ``None`` until
        #: the first seal or when store-backed.
        self._timeline: EpochTimeline | None = None
        self._epoch_tokens = 0
        self._cumulative_tokens = 0

    @property
    def n(self) -> int:
        """Node universe of the managed sketch."""
        return int(self._sketch.n)

    @property
    def sealed_epochs(self) -> int:
        """Number of checkpoints sealed so far."""
        if self._store is not None:
            return self._store.epochs
        return 0 if self._timeline is None else self._timeline.epochs

    @property
    def store(self) -> "EpochStore | None":
        """The attached durable store, when running store-backed."""
        return self._store

    def extend(self, batch: StreamBatch) -> "EpochManager":
        """Feed one columnar batch into the open epoch."""
        self._sketch.consume_batch(batch)
        self._epoch_tokens += len(batch)
        self._cumulative_tokens += len(batch)
        return self

    def seal_epoch(self) -> EpochCheckpoint:
        """Close the open epoch and checkpoint the cumulative sketch.

        Empty epochs are legal (the checkpoint simply equals the
        previous one); the returned checkpoint is immutable and already
        appended to the manager's timeline — or, store-backed, durably
        appended to the store and *not* retained in memory.
        """
        epoch = self.sealed_epochs + 1
        payload = dump_sketch(
            self._sketch,
            epoch_meta={
                "epoch": epoch,
                "tokens": self._epoch_tokens,
                "cumulative_tokens": self._cumulative_tokens,
            },
        )
        checkpoint = EpochCheckpoint(
            epoch=epoch,
            tokens=self._epoch_tokens,
            cumulative_tokens=self._cumulative_tokens,
            payload=payload,
        )
        if self._store is not None:
            self._store.append_checkpoint(checkpoint)
        elif self._timeline is None:
            self._timeline = EpochTimeline(self.n, [checkpoint])
        else:
            self._timeline = self._timeline.extended(checkpoint)
        self._epoch_tokens = 0
        return checkpoint

    def timeline(self) -> EpochTimeline:
        """The timeline of every checkpoint sealed so far.

        Only for in-memory managers: a store-backed manager deliberately
        does not hold its checkpoints (that is the point), so query the
        attached :class:`~repro.temporal.store.EpochStore` instead.
        """
        if self._store is not None:
            raise EpochStoreError(
                "manager is store-backed; checkpoints live in the store at "
                f"{self._store.root!s} — query it directly instead of "
                "materialising an in-memory timeline"
            )
        if self._timeline is None:
            # No epoch is sealed: the constructor refuses the empty timeline.
            return EpochTimeline(self.n, [])
        return self._timeline

    @classmethod
    def resume(
        cls,
        factory: Callable[[], object],
        store: "EpochStore",
    ) -> "EpochManager":
        """Continue sealing epochs into a non-empty store.

        The cumulative sketch is the store's head checkpoint (exact —
        the head *is* the serialised cumulative state), so epochs sealed
        from here extend the stored timeline seamlessly; windows
        spanning the restart stay byte-identical to an uninterrupted
        run.  The head is loaded with ``like=factory()``: a factory
        whose sketch does not combine with it (another kind,
        parameters or seed) is refused with :class:`~repro.errors.
        EpochStoreError`, as :meth:`~repro.temporal.store.EpochStore.
        append_checkpoint` refuses such a checkpoint, and a head that
        fails to load with :class:`~repro.errors.StoreCorruptionError`.
        """
        if store.epochs == 0:
            raise EpochStoreError(
                f"store at {store.root!s} is empty; build a fresh "
                "EpochManager(factory, store=store) instead of resuming"
            )
        manager = cls(factory)
        try:
            manager._sketch = load_sketch(
                store.head_payload(), like=manager._sketch
            )
        except SketchCompatibilityError as err:
            raise EpochStoreError(
                f"factory does not combine with the head of the store at "
                f"{store.root!s}: {err}"
            ) from err
        except ValueError as err:
            raise StoreCorruptionError(
                f"head checkpoint of the store at {store.root!s} failed to "
                f"load: {err}"
            ) from err
        manager._store = store
        manager._cumulative_tokens = store.boundaries[-1]
        return manager

    @classmethod
    def consume(
        cls,
        factory: Callable[[], object],
        stream: DynamicGraphStream,
        epochs: int | None = None,
        boundaries: Sequence[int] | None = None,
        store: "EpochStore | None" = None,
    ) -> "EpochTimeline | EpochStore":
        """Checkpoint a whole stream along an epoch grid.

        Exactly one of ``epochs`` (evenly spaced) or ``boundaries``
        (explicit epoch-end token positions; non-decreasing, ending at
        ``len(stream)``) must be given.  Consumption goes through the
        shared columnar batch, sliced per epoch — no token-level Python.
        With ``store=`` the checkpoints are sealed durably and the
        store itself is returned instead of an in-memory timeline.
        """
        bounds = normalize_boundaries(len(stream), epochs, boundaries)
        manager = cls(factory, store=store)
        batch = stream.as_batch()
        start = 0
        for end in bounds:
            manager.extend(batch.slice(start, end))
            manager.seal_epoch()
            start = end
        if store is not None:
            return store
        return manager.timeline()


def normalize_boundaries(
    tokens: int,
    epochs: int | None,
    boundaries: Sequence[int] | None,
) -> list[int]:
    """Normalise the ``(epochs | boundaries)`` argument pair.

    Exactly one must be given; explicit boundaries must be
    non-decreasing epoch-end token positions finishing at ``tokens``.
    Shared by :meth:`EpochManager.consume` and the sharded epoch runner.
    """
    if (epochs is None) == (boundaries is None):
        raise ValueError("pass exactly one of epochs= or boundaries=")
    if boundaries is None:
        return epoch_boundaries(tokens, epochs)
    bounds = [int(b) for b in boundaries]
    if not bounds:
        raise ValueError("boundaries must name at least one epoch end")
    previous = 0
    for b in bounds:
        if b < previous:
            raise ValueError(f"boundaries must be non-decreasing, got {bounds}")
        previous = b
    if bounds[-1] != tokens:
        raise ValueError(
            f"final boundary {bounds[-1]} must equal the stream length "
            f"{tokens} (every token belongs to some epoch)"
        )
    return bounds
