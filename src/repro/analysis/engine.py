"""The analysis engine: parse once, run every rule, collect findings.

:func:`run_analysis` walks a source root (by default the installed
:mod:`repro` package itself), parses each module once, and dispatches
the tree to every per-module rule; the live-registry introspection
checks run on top when analysing the real package (they import it).
Fixture trees in the test suite run through the same entry point with
``introspect=False``.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from . import determinism, hygiene, purity, registry
from .astutil import ImportMap
from .findings import FAMILIES, Finding

__all__ = ["AnalysisReport", "default_source_root", "run_analysis"]

#: Per-module rule entry points, in report order.
_MODULE_CHECKS: tuple[
    Callable[[str, ast.Module, ImportMap], Iterable[Finding]], ...
] = (
    determinism.check_module,
    registry.check_module,
    purity.check_module,
    hygiene.check_module,
)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one analysis run produced.

    Attributes
    ----------
    findings:
        All findings, sorted by (path, line, rule).
    files_scanned:
        Number of ``.py`` files parsed.
    source_root:
        The directory the relative finding paths are anchored to.
    """

    findings: tuple[Finding, ...]
    files_scanned: int
    source_root: str

    def family_counts(self) -> dict[str, int]:
        """Finding count per family, every family always present."""
        counts = {family: 0 for family in FAMILIES}
        for finding in self.findings:
            counts[finding.family] += 1
        return counts

    def to_dict(self) -> dict[str, object]:
        """JSON-able report (the ``--json`` payload)."""
        return {
            "source_root": self.source_root,
            "files_scanned": self.files_scanned,
            "family_counts": self.family_counts(),
            "findings": [f.to_dict() for f in self.findings],
        }


def default_source_root() -> Path:
    """The :mod:`repro` package directory this module was imported from."""
    return Path(__file__).resolve().parents[1]


def iter_source_files(source_root: Path) -> Iterator[Path]:
    """Every ``.py`` file under ``source_root``, deterministic order."""
    yield from sorted(source_root.rglob("*.py"))


def run_analysis(
    source_root: Path | None = None, introspect: bool = True
) -> AnalysisReport:
    """Run every rule over the tree rooted at ``source_root``.

    Parameters
    ----------
    source_root:
        Directory to scan; defaults to the live ``repro`` package.
        Finding paths are relative to it, POSIX separators.
    introspect:
        Also run the import-and-introspect registry cross-checks
        (:func:`repro.analysis.registry.check_registries`).  Leave off
        when analysing fixture trees that are not the real package.

    Raises
    ------
    ValueError
        For a file that does not parse — the analyser refuses to
        silently skip code it cannot see.
    """
    root = (source_root or default_source_root()).resolve()
    findings: list[Finding] = []
    files_scanned = 0
    for path in iter_source_files(root):
        relpath = path.relative_to(root).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError as err:
            raise ValueError(
                f"{relpath} does not parse ({err.msg} at line {err.lineno}); "
                "fix the syntax error before analysing"
            ) from err
        files_scanned += 1
        imports = ImportMap(tree)
        for check in _MODULE_CHECKS:
            findings.extend(check(relpath, tree, imports))
    if introspect:
        findings.extend(registry.check_registries())
    findings.sort()
    return AnalysisReport(
        findings=tuple(findings),
        files_scanned=files_scanned,
        source_root=str(root),
    )
