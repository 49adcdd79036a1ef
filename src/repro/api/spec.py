"""Declarative sketch specifications.

A :class:`SketchSpec` is everything needed to build an
identically-seeded sketch anywhere — this process, a worker process, a
remote site: the registry ``kind``, the node universe ``n``, the master
``seed``, and the (kind-specific) constructor parameters.  Specs are
frozen, hashable, and picklable, which is what lets one spec drive all
three deployment modes of :class:`~repro.api.GraphSketchEngine`: the
sharded runner ships ``functools.partial(build_sketch, spec)`` to its
sites, and linearity demands every site build the *same* measurement
matrix — the spec is that guarantee made explicit.  :meth:`SketchSpec.
build` goes through the one constructor the codec also rebuilds stored
sketches with, so a spec and a blob header naming the same parameters
and seed build the same matrix.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from ..sketch.serialize import _construct

__all__ = ["SketchSpec", "build_sketch"]


@dataclass(frozen=True)
class SketchSpec:
    """A declarative recipe for one sketch instance.

    Attributes
    ----------
    kind:
        Capability-registry kind name (``"spanning_forest"``,
        ``"mincut"``, ...; see :func:`repro.api.registered_kinds`).
    n:
        Node universe size.
    seed:
        Master hash seed; two sketches built from equal specs are
        identically seeded and therefore mergeable/subtractable.
    params:
        Kind-specific constructor keywords, stored as a sorted tuple
        of ``(name, value)`` pairs so the spec stays hashable; pass a
        dict (or use :meth:`of`) and it is normalised.  A spec restored
        from stored bytes carries every constructor keyword of the
        stored sketch's ``_params()``, not only the ones set by hand.
    """

    kind: str
    n: int
    seed: int = 0
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        params = self.params
        if isinstance(params, Mapping):
            pairs = params.items()
        else:
            pairs = tuple(params)
        object.__setattr__(
            self, "params",
            tuple(sorted((str(k), v) for k, v in pairs)),
        )

    @classmethod
    def of(cls, kind: str, n: int, seed: int = 0, **params: Any) -> "SketchSpec":
        """Build a spec with keyword constructor parameters."""
        return cls(kind, n, seed, tuple(params.items()))

    def param_dict(self) -> dict[str, Any]:
        """The constructor parameters as a plain dict."""
        return dict(self.params)

    @property
    def capabilities(self) -> frozenset[str]:
        """Queries the spec's sketch class declares it can answer."""
        from .capabilities import capability_entry

        return capability_entry(self.kind).queries

    def build(self) -> Any:
        """Construct the fresh, empty, seeded sketch the spec describes.

        ``cls(source=HashSource(seed), n=n, **params)`` through the one
        constructor the codec rebuilds blobs with; unknown or missing
        parameters, and values the parameter rules refuse
        (:func:`~repro.sketch.arena.check_params`), raise
        :class:`ValueError` naming the field.
        """
        from .capabilities import capability_entry

        params = self.param_dict()
        if "n" in params:
            raise ValueError(
                f"cannot build a {self.kind!r} sketch: spec params repeat "
                "n, which the spec already names"
            )
        return _construct(
            capability_entry(self.kind).cls, self.seed, {"n": self.n, **params}
        )


def build_sketch(spec: SketchSpec) -> Any:
    """Module-level spec factory (picklable for ``mode="process"`` sites)."""
    return spec.build()
