"""Tests for the eval harness (tables, metrics, workloads, runners) and CLI."""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import main
from repro.eval import (
    EXPERIMENTS,
    Table,
    WORKLOADS,
    make_workload,
    relative_error,
    run_experiment,
    summarize,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestTable:
    def test_render_contains_rows(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_row("x", True)
        out = t.render()
        assert "### demo" in out
        assert "| a" in out
        assert "2.5" in out
        assert "yes" in out

    def test_row_width_mismatch(self):
        t = Table("demo", ["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)

    def test_notes_rendered(self):
        t = Table("demo", ["a"])
        t.add_row(1)
        t.add_note("caveat")
        assert "> caveat" in t.render()

    def test_float_formatting(self):
        t = Table("demo", ["v"])
        t.add_row(0.000001)
        t.add_row(123456.0)
        t.add_row(0.25)
        out = t.render()
        assert "1e-06" in out
        assert "0.25" in out


class TestMetrics:
    def test_relative_error(self):
        assert relative_error(11, 10) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0
        assert relative_error(1, 0) == float("inf")

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.median == 2.0
        assert s.maximum == 3.0
        assert s.runs == 3

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_consistency(self, name):
        """Every workload's stream must end exactly at its graph."""
        wl = make_workload(name, seed=1)
        wl.stream.validate()
        from repro.baselines import graph_from_stream

        assert graph_from_stream(wl.stream) == wl.graph

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            make_workload("nope")

    def test_seeds_change_workload(self):
        a = make_workload("er-small", seed=1)
        b = make_workload("er-small", seed=2)
        assert sorted(a.graph.edges()) != sorted(b.graph.edges())


class TestExperimentRunners:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {f"e{i}" for i in range(1, 13)}

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("e99")

    @pytest.mark.parametrize("exp_id", ["e8", "e9"])
    def test_fast_experiments_produce_rows(self, exp_id):
        table = run_experiment(exp_id, quick=True, seed=0)
        assert table.rows
        assert table.columns


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out and "workloads" in out

    def test_run_e9(self, capsys):
        assert main(["run", "e9"]) == 0
        out = capsys.readouterr().out
        assert "E9" in out and "completed" in out

    def test_run_unknown_experiment_exits_cleanly(self, capsys):
        """``run e99`` must fail with a clear message, not a KeyError."""
        assert main(["run", "e99"]) == 2
        captured = capsys.readouterr()
        assert "unknown experiment 'e99'" in captured.err
        for exp_id in EXPERIMENTS:
            assert exp_id in captured.err
        assert "all" in captured.err

    def test_run_accepts_uppercase_id(self, capsys):
        assert main(["run", "E9"]) == 0
        assert "E9" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_e11_reports_bytes(self, capsys):
        assert main(["run", "e11"]) == 0
        out = capsys.readouterr().out
        assert "E11" in out and "sketch B/site" in out
        assert "yes" in out and "| no " not in out  # merged==direct everywhere

    def test_distribute_rejects_bad_strategy(self, capsys):
        assert main(["distribute", "--strategy", "bogus"]) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_distribute_rejects_bad_sites(self, capsys):
        assert main(["distribute", "--sites", "0"]) == 2
        assert "--sites" in capsys.readouterr().err


class TestCliDemo:
    def test_demo_runs_end_to_end(self, capsys):
        assert main(["demo", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "min cut" in out and "spanner" in out


class TestCliTemporal:
    def test_epochs_prints_checkpoints(self, capsys):
        assert main(["epochs", "--epochs", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 epochs" in out
        assert "checkpoint-bytes" in out
        assert "manifest:" in out

    def test_epochs_sharded_matches_format(self, capsys):
        assert main(["epochs", "--epochs", "2", "--sites", "3"]) == 0
        out = capsys.readouterr().out
        assert "sharded across 3 sites" in out

    def test_epochs_rejects_bad_args(self, capsys):
        assert main(["epochs", "--epochs", "0"]) == 2
        assert "--epochs" in capsys.readouterr().err
        assert main(["epochs", "--sites", "0"]) == 2
        assert "--sites" in capsys.readouterr().err

    def test_epochs_explicit_boundaries(self, capsys):
        # Demo stream is 487 tokens; an increasing grid ending there works.
        assert main(["epochs", "--boundaries", "100,300,487"]) == 0
        assert "3 explicit epochs" in capsys.readouterr().out
        assert main([
            "epochs", "--boundaries", "100,300,487", "--sites", "2",
        ]) == 0
        assert "sharded across 2 sites" in capsys.readouterr().out

    def test_epochs_rejects_bad_boundary_grids(self, capsys):
        """A bad grid exits 2 with a clear message, never a traceback."""
        assert main(["epochs", "--boundaries", "300,100,487"]) == 2
        assert "non-decreasing" in capsys.readouterr().err
        assert main(["epochs", "--boundaries", "100,300"]) == 2
        assert "final boundary" in capsys.readouterr().err
        assert main(["epochs", "--boundaries", "100,abc"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err
        assert main(["epochs", "--boundaries", ""]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_window_query_roundtrip_through_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "forest.manifest"
        assert main(["epochs", "--epochs", "4", "--out", str(manifest)]) == 0
        assert manifest.exists()
        capsys.readouterr()
        assert main([
            "window-query", "--manifest", str(manifest),
            "--from", "1", "--to", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "window [1, 3)" in out
        assert "2 loads + subtraction" in out
        assert "components" in out

    def test_window_query_demo_timeline(self, capsys):
        assert main(["window-query", "--epochs", "3", "--from", "0"]) == 0
        out = capsys.readouterr().out
        assert "window [0, 3)" in out and "1 load" in out

    def test_window_query_rejects_bad_window(self, capsys):
        assert main(["window-query", "--epochs", "3", "--from", "5"]) == 2
        assert "not a valid epoch range" in capsys.readouterr().err

    def test_window_query_rejects_bad_epoch_count(self, capsys):
        assert main(["window-query", "--epochs", "0"]) == 2
        assert "--epochs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [b"not a manifest at all",
         (FIXTURES / "forest_epochs_v1.manifest").read_bytes()],
        ids=["garbage", "codec-v1-fixture"],
    )
    def test_window_query_rejects_garbage_manifest(
        self, tmp_path, capsys, data
    ):
        bad = tmp_path / "bad.manifest"
        bad.write_bytes(data)
        assert main(["window-query", "--manifest", str(bad)]) == 2
        assert "cannot load manifest" in capsys.readouterr().err

    def test_run_e12_reports_equivalence(self, capsys):
        assert main(["run", "e12"]) == 0
        out = capsys.readouterr().out
        assert "E12" in out and "sub==replay" in out
        assert "yes" in out and "| no " not in out
