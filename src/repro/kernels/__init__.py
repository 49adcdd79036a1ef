"""Named kernels for the sketch hot loops.

Every numeric hot loop of the sketch layer — the columnar cell scatter,
the whole-bank one-sparse decode, the arena fold/negate vector ops, and
the per-level sparsifier routing — is owned by a named *kernel* in this
package instead of being inlined at its call site.  A kernel is a plain
numpy function in :mod:`repro.kernels.reference`; call sites bind a
handle to it once, at import time, with :func:`get`.

There is one backend, ``numpy``.  :func:`use`, :func:`backend_name` and
:func:`available_backends` stay so that code naming a backend keeps
working: ``auto`` and ``numpy`` select it, and any other name warns
(``RuntimeWarning``) and selects it too.

Telemetry
---------
Every call through a handle records a per-kernel call count and
wall-clock seconds; :func:`kernel_stats` exposes the counters, one row
per kernel with its ``backend``, and ``repro.serve`` renders them on
``/metrics``.
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Callable

from . import reference

__all__ = [
    "KERNEL_NAMES",
    "available_backends",
    "backend_name",
    "get",
    "kernel_stats",
    "reset_kernel_stats",
    "use",
]

#: Every registered kernel name.
KERNEL_NAMES: tuple[str, ...] = tuple(sorted(reference.KERNELS))

_BACKEND = "numpy"


def available_backends() -> tuple[str, ...]:
    """Names of the selectable backends: always ``("numpy",)``."""
    return (_BACKEND,)


def use(backend: str) -> str:
    """Select a backend by name; returns the effective one, ``"numpy"``.

    ``auto`` and ``numpy`` (any case, surrounding blanks ignored) select
    it silently; any other name warns and selects it as well.
    """
    requested = (backend or "auto").strip().lower()
    if requested not in ("auto", _BACKEND):
        warnings.warn(
            f"unknown kernel backend {requested!r} "
            f"(available: {_BACKEND}); using {_BACKEND}",
            RuntimeWarning,
            stacklevel=2,
        )
    return _BACKEND


def backend_name() -> str:
    """Name of the active backend, ``"numpy"``."""
    return _BACKEND


#: ``kernel -> [calls, seconds]``.
_STATS: dict[str, list[float]] = {}


class Kernel:
    """Callable handle for one named kernel.

    Calls the implementation and records call-count and seconds
    telemetry under the kernel's name.
    """

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[..., Any]):
        self.name = name
        self._fn = fn

    @property
    def backend(self) -> str:
        """Backend that implements the calls."""
        return _BACKEND

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        try:
            return self._fn(*args, **kwargs)
        finally:
            stat = _STATS.get(self.name)
            if stat is None:
                _STATS[self.name] = stat = [0, 0.0]
            stat[0] += 1
            stat[1] += time.perf_counter() - t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernel({self.name!r})"


_HANDLES: dict[str, Kernel] = {}


def get(name: str) -> Kernel:
    """The named kernel as a telemetry-recording callable.

    Raises ``KeyError`` for unregistered names; the handle is cached, so
    call sites may bind it once at import time.
    """
    handle = _HANDLES.get(name)
    if handle is None:
        if name not in reference.KERNELS:
            raise KeyError(
                f"unknown kernel {name!r} (registered: {', '.join(KERNEL_NAMES)})"
            )
        _HANDLES[name] = handle = Kernel(name, reference.KERNELS[name])
    return handle


def kernel_stats() -> list[dict[str, Any]]:
    """Per-kernel telemetry rows: kernel, backend, calls, seconds."""
    return [
        {"kernel": k, "backend": _BACKEND, "calls": int(c), "seconds": float(s)}
        for k, (c, s) in sorted(_STATS.items())
    ]


def reset_kernel_stats() -> None:
    """Zero all telemetry counters (benchmark / test isolation)."""
    _STATS.clear()
