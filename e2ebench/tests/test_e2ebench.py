"""Self-test of the end-to-end benchmark, at a tiny size.

Run from the root of a checkout::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import metrics, oracles  # noqa: E402
from e2ebench.run import WORKLOADS, measure  # noqa: E402
from e2ebench.tracer import Tracer  # noqa: E402
from e2ebench.workloads import CONFIGS, run_workload, tiny  # noqa: E402

SECONDS = 0.3


def _measure(workload, tmp_path, trace=0, seed=3):
    return measure(workload, tiny(CONFIGS[workload]), seed, SECONDS, trace,
                   workroot=tmp_path / "work")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result = _measure(workload, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0  # error_ratio is 0
    assert result["attempted"] >= 1
    units = {name: unit for name, unit, _ in metrics.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    result = _measure(workload, tmp_path, trace=1)
    assert result["correct"]
    units = {row[0]: row[1] for row in metrics.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_oracle_answer_counts_as_failed(workload, tmp_path, monkeypatch):
    real = oracles.expected_components
    calls = []

    def off_by_one_once(*args):
        calls.append(1)
        return real(*args) + (1 if len(calls) == 1 else 0)

    monkeypatch.setattr(oracles, "expected_components", off_by_one_once)
    result = _measure(workload, tmp_path)
    assert result["failed"] == 1 and not result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracer_restores_every_wrapped_object(workload, tmp_path):
    import repro.api.engine
    import repro.temporal.epochs
    from repro.serve.app import ServeApp
    from repro.streams import StreamBatch

    sentinels = [
        (repro.api.engine, "load_sketch"),
        (repro.temporal.epochs, "dump_sketch"),
        (ServeApp, "__call__"),
        (StreamBatch, "from_updates"),
        (os, "fsync"),
        (os, "replace"),
    ]
    before = [vars(owner)[name] for owner, name in sentinels]
    tracer = Tracer()
    run_workload(workload, tiny(CONFIGS[workload]), 5, SECONDS,
                 tracer=tracer, workdir=str(tmp_path))
    assert tracer.patched, "the traced run wrapped nothing"
    assert tracer.restored()
    after = [vars(owner)[name] for owner, name in sentinels]
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [row[:3] for row in metrics.PER_LAYER]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "store_history",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
