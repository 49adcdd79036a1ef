"""The kernel registry: selection, fallback, telemetry, and parity.

:mod:`repro.kernels` is a performance knob, never a correctness knob —
this module pins the knob's contract:

* the registry resolves every published kernel name and nothing else;
* backend selection degrades loudly-but-safely (unavailable ``numba``
  and unknown names warn ``RuntimeWarning`` and land on an available
  backend, so ``REPRO_KERNELS`` can never break an install);
* on a numba-less interpreter the fallback is *clean*: the package
  imports, records why numba is out, and serves numpy — proven here
  without numba ever being importable;
* telemetry counts calls and seconds per (kernel, implementing
  backend) and resets to empty;
* every available backend is byte-identical on the scatter kernel for
  a deterministic workload (the deep cross-backend sweep is the
  hypothesis harness in ``tests/test_temporal_equivalence.py``).
"""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro import kernels
from repro.core import SpanningForestSketch
from repro.hashing import HashSource
from repro.sketch import dump_sketch
from repro.streams import DynamicGraphStream
from repro.util import pair_rank_array

N = 8


@pytest.fixture(autouse=True)
def restore_backend():
    previous = kernels.backend_name()
    yield
    kernels.use(previous)


def _workload_stream() -> DynamicGraphStream:
    stream = DynamicGraphStream(N)
    for u in range(N):
        for v in range(u + 1, N):
            if (u * 7 + v * 3) % 4 != 0:
                stream.insert(u, v)
    stream.delete(0, 3)
    return stream


class TestRegistry:
    def test_every_published_name_resolves(self):
        assert kernels.KERNEL_NAMES
        for name in kernels.KERNEL_NAMES:
            handle = kernels.get(name)
            assert handle.name == name
            assert handle.backend in kernels.available_backends()

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            kernels.get("definitely_not_a_kernel")

    def test_handles_are_cached(self):
        assert kernels.get("scatter_multi") is kernels.get("scatter_multi")

    def test_numpy_always_available(self):
        assert "numpy" in kernels.available_backends()


class TestSelection:
    def test_explicit_numpy(self):
        assert kernels.use("numpy") == "numpy"
        assert kernels.backend_name() == "numpy"

    def test_auto_prefers_numba_when_available(self):
        expected = (
            "numba" if "numba" in kernels.available_backends() else "numpy"
        )
        assert kernels.use("auto") == expected

    def test_unknown_backend_warns_and_falls_back(self):
        with pytest.warns(RuntimeWarning, match="unknown kernel backend"):
            selected = kernels.use("fortran")
        assert selected in kernels.available_backends()

    def test_case_and_whitespace_insensitive(self):
        assert kernels.use("  NumPy ") == "numpy"

    @pytest.mark.skipif(
        "numba" in kernels.available_backends(),
        reason="numba importable here; the fallback path cannot trigger",
    )
    def test_numba_unavailable_warns_and_serves_numpy(self):
        """The documented degradation: request numba, get numpy + warning."""
        assert "numba" in kernels.UNAVAILABLE
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            assert kernels.use("numba") == "numpy"
        # auto on this interpreter is numpy, silently.
        assert kernels.use("auto") == "numpy"


class TestNumbaAbsentImport:
    @pytest.mark.skipif(
        importlib.util.find_spec("numba") is not None,
        reason="numba is installed; absence cannot be proven in-process",
    )
    def test_package_imports_cleanly_without_numba(self):
        """A fresh interpreter without numba imports the package warning-
        free, records the import failure, and selects numpy."""
        code = (
            "import warnings\n"
            "with warnings.catch_warnings():\n"
            "    warnings.simplefilter('error')\n"
            "    from repro import kernels\n"
            "assert kernels.backend_name() == 'numpy'\n"
            "assert kernels.available_backends() == ('numpy',)\n"
            "assert 'numba' in kernels.UNAVAILABLE\n"
            "print('fallback-ok')\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {
            k: v for k, v in os.environ.items() if k != "REPRO_KERNELS"
        }
        env["PYTHONPATH"] = src
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout

    def test_unavailable_reason_is_a_string(self):
        for backend, reason in kernels.UNAVAILABLE.items():
            assert isinstance(backend, str) and isinstance(reason, str)
            assert reason  # an empty diagnosis helps nobody


class TestTelemetry:
    def test_calls_and_seconds_accumulate(self):
        kernels.reset_kernel_stats()
        assert kernels.kernel_stats() == []
        sketch = SpanningForestSketch(N, HashSource(9))
        sketch.consume_batch(_workload_stream().as_batch())
        rows = kernels.kernel_stats()
        assert rows, "ingest must flow through at least one kernel"
        by_kernel = {row["kernel"]: row for row in rows}
        assert "forest_scatter" in by_kernel
        for row in rows:
            assert row["backend"] in kernels.available_backends()
            assert row["calls"] >= 1
            assert row["seconds"] >= 0.0

    def test_reset_zeroes_everything(self):
        kernels.get("level_route")(np.zeros(4, dtype=np.int64), 3)
        assert kernels.kernel_stats()
        kernels.reset_kernel_stats()
        assert kernels.kernel_stats() == []


class TestCrossBackendParity:
    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_ingest_bytes_identical_under_each_backend(self, backend):
        """One deterministic workload, serialised bytes per backend —
        all equal to the numpy reference."""
        batch = _workload_stream().as_batch()

        def ingest() -> bytes:
            sketch = SpanningForestSketch(N, HashSource(42))
            sketch.consume_batch(batch)
            return dump_sketch(sketch)

        kernels.use("numpy")
        reference = ingest()
        kernels.use(backend)
        assert ingest() == reference, (
            f"backend {backend!r} drifted from the numpy reference"
        )


def _forest_payload(n: int, m: int, seed: int):
    """``m`` random canonical edges, then repeats and a cancelling pair.

    Five edges come back with their own deltas (repeated edges fold
    into the same cells), and the pair ``(0, n - 1)`` arrives as ``+3``
    and then ``-3``, so its net contribution is exactly zero.
    """
    rng = np.random.default_rng(seed)
    lo = rng.integers(0, n - 2, size=m)
    hi = lo + 1 + rng.integers(0, n - 2 - lo)
    delta = rng.choice(np.array([1, 2, -1]), size=m)
    lo = np.concatenate([lo, lo[:5], [0, 0]]).astype(np.int64)
    hi = np.concatenate([hi, hi[:5], [n - 1, n - 1]]).astype(np.int64)
    delta = np.concatenate([delta, delta[:5], [3, -3]]).astype(np.int64)
    return lo, hi, delta, pair_rank_array(lo, hi, n)


def _expected_branch(sketch: SpanningForestSketch, items: np.ndarray) -> str:
    """The ``forest_scatter`` branch a payload takes, from its sizes."""
    bank = sketch.bank
    fam = np.arange(bank.families, dtype=np.int64)
    top = bank._level_source.levels(items[:, None] * bank.families + fam, bank.levels)
    entries = int((np.asarray(top) + 1).sum()) * bank.rows * 2
    if entries <= kernels.reference._RAGGED_MAX:
        return "ragged"
    if entries * kernels.reference._DENSE_RATIO < bank.bank.fp1.size:
        return "levels-touched"
    return "levels-whole-bank"


class TestForestScatterBranches:
    """Every ``forest_scatter`` branch equals the generic sampler update.

    The reference is ``L0SamplerBank.update`` fed the explicit signed
    expansion — ``(family, lo, item, +delta)`` and ``(family, hi, item,
    -delta)`` for every edge and family — which reaches the cells
    through ``scatter_multi`` instead.
    """

    @pytest.mark.parametrize(
        "n,m,kwargs,branch",
        [
            (128, 64, {}, "ragged"),
            (512, 4000, {"rounds": 3, "buckets": 16}, "levels-touched"),
            (128, 2048, {}, "levels-whole-bank"),
        ],
    )
    def test_branch_matches_expanded_sampler_update(
        self, monkeypatch, n, m, kwargs, branch
    ):
        kernels.use("numpy")
        lo, hi, delta, items = _forest_payload(n, m, seed=n + m)
        fused = SpanningForestSketch(n, HashSource(5), **kwargs)
        assert _expected_branch(fused, items) == branch
        taken = []
        for name in ("_forest_scatter_levels", "_reduce_bank_fp"):
            original = getattr(kernels.reference, name)

            def spy(*args, _name=name, _original=original):
                taken.append(_name)
                return _original(*args)

            monkeypatch.setattr(kernels.reference, name, spy)
        fused.update_edges(lo, hi, delta, items=items)
        monkeypatch.undo()
        assert ("_forest_scatter_levels" in taken) == (branch != "ragged")
        assert ("_reduce_bank_fp" in taken) == (branch == "levels-whole-bank")

        expanded = SpanningForestSketch(n, HashSource(5), **kwargs)
        families = expanded.bank.families
        fam = np.tile(np.arange(families, dtype=np.int64), lo.size)
        expanded.bank.update(
            np.concatenate([fam, fam]),
            np.concatenate([np.repeat(lo, families), np.repeat(hi, families)]),
            np.concatenate([np.repeat(items, families)] * 2),
            np.concatenate(
                [np.repeat(delta, families), -np.repeat(delta, families)]
            ),
        )
        assert dump_sketch(fused) == dump_sketch(expanded)

    def test_cancelling_pair_leaves_the_empty_sketch(self):
        n = 128
        lo = np.array([0, 0, 5], dtype=np.int64)
        hi = np.array([n - 1, n - 1, 9], dtype=np.int64)
        delta = np.array([3, -3, 1], dtype=np.int64)
        sketch = SpanningForestSketch(n, HashSource(5))
        sketch.update_edges(lo, hi, delta)
        sketch.update_edges(lo[2:], hi[2:], -delta[2:])
        assert dump_sketch(sketch) == dump_sketch(SpanningForestSketch(n, HashSource(5)))
