"""``python -m repro.analysis`` — the invariant linter's command line.

Modes
-----
``python -m repro.analysis``
    Report every finding; exit 1 if there are any (plain linter mode,
    no baseline allowance).
``python -m repro.analysis --check``
    The CI gate: exit 0 when every finding is either fixed or within
    the committed baseline, with determinism/registry findings always
    fatal.  A baseline bucket that grew fails; one that shrank prints
    an advisory to regenerate.
``python -m repro.analysis --json``
    Machine-readable report on stdout (combinable with ``--check``).
``python -m repro.analysis --write-baseline``
    Regenerate the baseline file from the current findings (excluding
    the zero-tolerance families, which are never baselined).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baseline import Baseline, compare_to_baseline
from .engine import AnalysisReport, default_source_root, run_analysis
from .findings import FAMILIES

__all__ = ["main"]

_BASELINE_NAME = "analysis_baseline.json"


def _find_default_baseline(start: Path) -> Path | None:
    """Walk up from ``start`` looking for the committed baseline file."""
    for directory in (start, *start.parents):
        candidate = directory / _BASELINE_NAME
        if candidate.is_file():
            return candidate
        if (directory / "pyproject.toml").is_file():
            # Repo root reached; the baseline lives here or nowhere.
            return candidate if candidate.is_file() else None
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Repo-specific invariant linter for the sketch stack: "
            "determinism, registry completeness, hot-path purity and API "
            "hygiene (see docs/INVARIANTS.md)."
        ),
    )
    parser.add_argument(
        "--src",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "source root to analyse (default: the imported repro package "
            "directory)"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "gate mode: exit 0 iff findings are within the baseline and "
            "the zero-tolerance families are clean"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON on stdout",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            f"baseline file (default: {_BASELINE_NAME} found by walking up "
            "from the current directory)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit",
    )
    parser.add_argument(
        "--no-introspect",
        action="store_true",
        help=(
            "skip the import-and-introspect registry cross-checks (for "
            "analysing trees that are not the live repro package)"
        ),
    )
    return parser


def _print_report(report: AnalysisReport) -> None:
    for finding in report.findings:
        print(finding.render())
    counts = report.family_counts()
    summary = ", ".join(f"{family}={counts[family]}" for family in FAMILIES)
    print(
        f"repro.analysis: {len(report.findings)} finding(s) across "
        f"{report.files_scanned} file(s) [{summary}]"
    )


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    baseline_path = args.baseline or _find_default_baseline(Path.cwd())

    report = run_analysis(
        source_root=args.src or default_source_root(),
        introspect=not args.no_introspect,
    )

    if args.write_baseline:
        target = args.baseline or baseline_path or Path.cwd() / _BASELINE_NAME
        Baseline.from_findings(report.findings).dump(target)
        print(
            f"repro.analysis: wrote baseline ({len(report.findings)} "
            f"finding(s) considered) to {target}"
        )
        return 0

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        _print_report(report)

    if not args.check:
        return 1 if report.findings else 0

    baseline = (
        Baseline.load(baseline_path)
        if baseline_path is not None and baseline_path.is_file()
        else Baseline()
    )
    blocking, notes = compare_to_baseline(report.findings, baseline)
    for note in notes:
        print(f"repro.analysis: note: {note}")
    if blocking:
        if not args.json:
            print(
                f"repro.analysis: FAIL — {len(blocking)} finding(s) not "
                "covered by the baseline (determinism/registry findings "
                "are never baselined):"
            )
            for finding in blocking:
                print(f"  {finding.render()}")
        return 1
    print("repro.analysis: OK — all invariants hold")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
