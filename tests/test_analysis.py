"""Tests for :mod:`repro.analysis` — the repo-specific invariant linter.

Covers, per ISSUE 6:

* one violating and one clean fixture tree per rule family
  (``tests/fixtures/analysis/``);
* the live-registry introspection checks, including the "delete a
  CAPABILITIES declaration / a ``_cell_banks`` override / a registry
  entry and the linter goes red" guarantees;
* the "delete a seeding argument and the linter goes red" guarantee;
* the baseline ratchet: growth blocks, shrinkage passes with a note,
  determinism/registry findings block even when baselined;
* the self-check: ``python -m repro.analysis --check`` exits 0 on this
  repository.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    check_registries,
    compare_to_baseline,
    default_source_root,
    run_analysis,
)
from repro.analysis.cli import main as analysis_main

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"

REPO_ROOT = Path(__file__).resolve().parents[1]


def rules_of(report) -> set[str]:
    return {finding.rule for finding in report.findings}


def analyse(fixture: str):
    return run_analysis(FIXTURES / fixture, introspect=False)


# -- fixture trees: one bad and one ok case per family -------------------------


@pytest.mark.parametrize(
    "fixture, expected_rules",
    [
        (
            "determinism_bad",
            {"REP-D001", "REP-D002", "REP-D003", "REP-D004"},
        ),
        ("registry_bad", {"REP-R004", "REP-R005"}),
        ("purity_bad", {"REP-P001", "REP-P002", "REP-P003"}),
        ("hygiene_bad", {"REP-H001", "REP-H002", "REP-H003"}),
    ],
)
def test_violating_fixture_trees_are_caught(fixture, expected_rules):
    report = analyse(fixture)
    assert rules_of(report) == expected_rules


@pytest.mark.parametrize(
    "fixture",
    [
        "determinism_ok",
        "registry_ok",
        "purity_ok",
        "hygiene_ok",
    ],
)
def test_clean_fixture_trees_pass(fixture):
    report = analyse(fixture)
    assert report.findings == ()


def test_finding_families_match_rule_prefixes():
    for fixture in ("determinism_bad", "registry_bad", "purity_bad",
                    "hygiene_bad"):
        for finding in analyse(fixture).findings:
            assert finding.rule.startswith("REP-")
            assert finding.line > 0
            assert finding.path.endswith(".py")


def test_deleting_a_seeding_argument_goes_red(tmp_path):
    """The acceptance-criterion scenario: drop the seed, linter fails."""
    seeded = tmp_path / "seeded" / "core"
    seeded.mkdir(parents=True)
    (seeded / "sampler.py").write_text(
        "import numpy as np\n"
        "def make(seed):\n"
        "    return np.random.default_rng(seed)\n"
    )
    assert run_analysis(tmp_path / "seeded", introspect=False).findings == ()

    unseeded = tmp_path / "unseeded" / "core"
    unseeded.mkdir(parents=True)
    (unseeded / "sampler.py").write_text(
        "import numpy as np\n"
        "def make(seed):\n"
        "    return np.random.default_rng()\n"
    )
    report = run_analysis(tmp_path / "unseeded", introspect=False)
    assert rules_of(report) == {"REP-D001"}


def test_syntax_error_is_refused_not_skipped(tmp_path):
    (tmp_path / "broken.py").write_text("def oops(:\n")
    with pytest.raises(ValueError, match="broken.py"):
        run_analysis(tmp_path, introspect=False)


# -- live-registry introspection ----------------------------------------------


def test_live_registries_are_complete():
    assert check_registries() == []


def test_deleting_capabilities_declaration_goes_red(monkeypatch):
    from repro.core.forest import SpanningForestSketch

    monkeypatch.delattr(SpanningForestSketch, "CAPABILITIES")
    findings = check_registries()
    assert any(
        f.rule == "REP-R001" and "spanning_forest" in f.message
        for f in findings
    )


def test_deleting_cell_banks_override_goes_red(monkeypatch):
    from repro.core.forest import SpanningForestSketch
    from repro.sketch.arena import ArenaBacked

    monkeypatch.setattr(
        SpanningForestSketch, "_cell_banks", ArenaBacked._cell_banks
    )
    findings = check_registries()
    assert any(
        f.rule == "REP-R002" and "spanning_forest" in f.message
        for f in findings
    )


def test_unreachable_codec_kind_goes_red(monkeypatch):
    from repro.api import capabilities

    registry = dict(capabilities._REGISTRY)
    registry.pop("mincut")
    monkeypatch.setattr(capabilities, "_REGISTRY", registry)
    findings = check_registries()
    assert any(
        f.rule == "REP-R003" and "mincut" in f.message for f in findings
    )


def test_capability_kind_without_codec_goes_red(monkeypatch):
    from repro.api import capabilities
    from repro.core.mincut import MinCutSketch

    registry = dict(capabilities._REGISTRY)
    registry["phantom_kind"] = capabilities.CapabilityEntry(
        kind="phantom_kind",
        cls=MinCutSketch,
        queries=frozenset({"mincut"}),
        serialisable=True,
    )
    monkeypatch.setattr(capabilities, "_REGISTRY", registry)
    findings = check_registries()
    assert any(
        f.rule == "REP-R003" and "phantom_kind" in f.message
        for f in findings
    )


# -- the baseline ratchet ------------------------------------------------------


def _hygiene_finding(path="api/surface.py", line=7) -> Finding:
    return Finding(path, line, "REP-H001", "hygiene", "missing annotations")


def _determinism_finding() -> Finding:
    return Finding("core/x.py", 3, "REP-D001", "determinism", "unseeded rng")


def test_baseline_allows_exactly_the_recorded_counts():
    baseline = Baseline.from_findings([_hygiene_finding()])
    blocking, notes = compare_to_baseline([_hygiene_finding()], baseline)
    assert blocking == [] and notes == []


def test_baseline_growth_blocks():
    baseline = Baseline.from_findings([_hygiene_finding()])
    blocking, _ = compare_to_baseline(
        [_hygiene_finding(line=7), _hygiene_finding(line=20)], baseline
    )
    assert len(blocking) == 1  # the count beyond the budget, not both


def test_baseline_shrink_passes_with_a_note():
    baseline = Baseline.from_findings(
        [_hygiene_finding(line=7), _hygiene_finding(line=20)]
    )
    blocking, notes = compare_to_baseline([_hygiene_finding()], baseline)
    assert blocking == []
    assert len(notes) == 1 and "--write-baseline" in notes[0]


def test_zero_tolerance_families_cannot_be_baselined():
    finding = _determinism_finding()
    baseline = Baseline.from_findings([finding])
    assert baseline.counts == {}  # never written into a baseline
    hand_edited = Baseline({"REP-D001:core/x.py": 5})
    blocking, _ = compare_to_baseline([finding], hand_edited)
    assert blocking == [finding]  # and ignored even if hand-added


def test_baseline_roundtrip_and_validation(tmp_path):
    path = tmp_path / "analysis_baseline.json"
    Baseline.from_findings([_hygiene_finding()]).dump(path)
    assert Baseline.load(path).counts == {"REP-H001:api/surface.py": 1}
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(ValueError):
        Baseline.load(path)
    path.write_text(json.dumps({"version": 1, "counts": {"k": -2}}))
    with pytest.raises(ValueError):
        Baseline.load(path)


# -- the CLI -------------------------------------------------------------------


def test_cli_check_fails_on_violating_tree(capsys):
    code = analysis_main([
        "--src", str(FIXTURES / "determinism_bad"),
        "--no-introspect", "--check",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "REP-D001" in out and "FAIL" in out


def test_cli_json_report(capsys):
    code = analysis_main([
        "--src", str(FIXTURES / "purity_bad"), "--no-introspect", "--json",
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_scanned"] == 1
    assert {f["rule"] for f in payload["findings"]} == {
        "REP-P001", "REP-P002", "REP-P003",
    }
    assert payload["family_counts"]["purity"] == 4


def test_cli_write_baseline_then_check_passes(tmp_path, capsys):
    baseline = tmp_path / "analysis_baseline.json"
    src = FIXTURES / "hygiene_bad"
    code = analysis_main([
        "--src", str(src), "--no-introspect",
        "--baseline", str(baseline), "--write-baseline",
    ])
    assert code == 0 and baseline.is_file()
    capsys.readouterr()
    code = analysis_main([
        "--src", str(src), "--no-introspect",
        "--baseline", str(baseline), "--check",
    ])
    assert code == 0
    assert "OK" in capsys.readouterr().out


def test_cli_baselined_determinism_still_fails(tmp_path, capsys):
    baseline = tmp_path / "analysis_baseline.json"
    src = FIXTURES / "determinism_bad"
    analysis_main([
        "--src", str(src), "--no-introspect",
        "--baseline", str(baseline), "--write-baseline",
    ])
    capsys.readouterr()
    code = analysis_main([
        "--src", str(src), "--no-introspect",
        "--baseline", str(baseline), "--check",
    ])
    assert code == 1  # zero-tolerance families ignore the baseline


# -- the self-check: this repository holds its own invariants ------------------


def test_repo_passes_its_own_linter():
    """Zero findings beyond the committed (shrink-only) baseline."""
    report = run_analysis(default_source_root(), introspect=True)
    baseline = Baseline.load(REPO_ROOT / "analysis_baseline.json")
    blocking, _notes = compare_to_baseline(report.findings, baseline)
    assert blocking == [], "\n".join(f.render() for f in blocking)
    assert report.files_scanned > 80


def test_cli_check_exits_zero_on_repo():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--check"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout
