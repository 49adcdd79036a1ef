"""repro.analysis — the repo-specific invariant linter.

Pure-Python :mod:`ast` passes (plus one import-and-introspect registry
cross-check) that enforce the invariants every correctness claim in
this reproduction rests on: deterministic seeded randomness, complete
four-site registration of every sketch kind, batched hot paths, and a
fully-annotated public API.  See
``docs/INVARIANTS.md`` for the full catalogue and rationale, and run
``python -m repro.analysis --check`` for the CI gate.
"""

from __future__ import annotations

from .baseline import Baseline, compare_to_baseline
from .cli import main
from .engine import AnalysisReport, default_source_root, run_analysis
from .findings import (
    FAMILIES,
    FAMILY_DETERMINISM,
    FAMILY_HYGIENE,
    FAMILY_PURITY,
    FAMILY_REGISTRY,
    ZERO_TOLERANCE_FAMILIES,
    Finding,
)
from .registry import check_registries

__all__ = [
    "AnalysisReport",
    "Baseline",
    "FAMILIES",
    "FAMILY_DETERMINISM",
    "FAMILY_HYGIENE",
    "FAMILY_PURITY",
    "FAMILY_REGISTRY",
    "Finding",
    "ZERO_TOLERANCE_FAMILIES",
    "check_registries",
    "compare_to_baseline",
    "default_source_root",
    "main",
    "run_analysis",
]
