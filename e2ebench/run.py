"""End-to-end benchmark of the graph-sketch service.

Run one workload from the root of a checkout::

    python3 e2ebench/run.py --workload serve_small_batches --seed 1 \\
        --seconds 20 --trace 0

or every workload, untraced and then traced, with ``--workload all``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it are the human-readable report: environment, inputs,
every per-operation figure, and for traced runs the layer breakdown.

The benchmark builds nothing: the program is the pure-Python package
under ``src/`` of the checkout, imported from there.  It exits with
code 2, printing no result, when that package is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".e2ebench_work"
WORKLOADS = ("serve_small_batches", "store_history")


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _filesystem(path: pathlib.Path) -> str:
    """Type of the filesystem mounted under ``path`` (Linux mount table)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) > 2 and str(path).startswith(fields[1]) and \
                        len(fields[1]) > len(best):
                    best, fstype = fields[1], fields[2]
    except OSError:
        pass
    return fstype


def environment(workdir: pathlib.Path) -> dict:
    import numpy

    from repro import kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.backend_name(),
        "store_filesystem": _filesystem(workdir),
        "fsync_policy": "the store's own (EpochStore fsyncs every segment "
                        "and catalog write); the benchmark does not change it",
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _emit(line: str) -> None:
    print(line, flush=True)


def measure(
    workload: str,
    config,
    seed: int,
    seconds: float,
    trace: int,
    workroot: pathlib.Path = WORKDIR,
) -> dict:
    """Run one workload, print its report, return the result object."""
    from e2ebench import metrics, oracles
    from e2ebench.tracer import Tracer
    from e2ebench.workloads import run_workload, summarise

    workdir = workroot / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_workload(workload, config, seed, seconds,
                           tracer=Tracer() if trace else None,
                           workdir=str(workdir))
        _emit("env: " + json.dumps(environment(workdir), sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use, or already gone
            workroot.rmdir()

    plan = run.plan
    answers = [a for phase in run.phases for a in phase.answers]
    mismatches = oracles.check_connectivity(plan, answers)
    attempted = sum(p.attempted for p in run.phases)
    failed = sum(p.failed for p in run.phases) + mismatches
    _emit(f"inputs: seed={seed} n={config.n} batch={config.batch} "
          f"live_cap={config.cap} updates_generated={plan.updates} "
          f"deletion_share={plan.deletions / plan.updates:.3f}")
    _emit(f"oracle: {len(answers)} answers checked, {mismatches} mismatches")

    untraced = summarise(run.phases[0])
    figures = {
        "setup_s": statistics.median(run.setup_s),
        **untraced,
        "peak_rss_mb": run.peak_rss_mb,
        "steps": run.phases[0].steps,
        "wall_s": run.phases[0].wall,
    }
    if run.sealed_updates:
        figures["store_bytes_per_update"] = run.store_bytes / run.sealed_updates
    figures["error_ratio"] = failed / attempted
    _emit("  setup samples (s): " + " ".join(f"{t:.4f}" for t in run.setup_s))
    for name, value in figures.items():
        _emit(f"  {name:<24} {value:.6g}")
    if any(p.exhausted for p in run.phases):
        _emit("warning: the generated inputs ran out before the deadline")
    for op in ("ingest", "seal", "query"):
        if untraced.get(f"{op}_samples", 0) < 100:
            _emit(f"warning: {op}_p90_ms rests on fewer than 100 samples")

    if not trace:
        result = {
            name: _metric(figures[name], unit)
            for name, unit, _better in metrics.END_TO_END
        }
    else:
        traced = summarise(run.phases[1])
        layer = dict(run.trace)
        layer["trace.overhead_updates_per_s"] = (
            traced["updates_per_s"] / untraced["updates_per_s"]
        )
        layer["trace.overhead_query_p50"] = (
            traced["query_p50_ms"] / untraced["query_p50_ms"]
        )
        layer["temporal.store.bytes_per_update"] = figures.get(
            "store_bytes_per_update", 0.0
        )
        _report_layers(layer)
        result = {
            name: _metric(layer[name], unit)
            for name, unit, _better, _moves, _on in metrics.PER_LAYER
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }


def run_one(args: argparse.Namespace) -> int:
    from e2ebench.workloads import CONFIGS

    result = measure(args.workload, CONFIGS[args.workload], args.seed,
                     args.seconds, args.trace)
    _emit(json.dumps(result))
    return 0


def _report_layers(layer: dict) -> None:
    from e2ebench.metrics import KERNELS, LAYER_GROUPS, PER_LAYER

    for name, unit, _better, moves, on in PER_LAYER:
        _emit(f"  {name:<32} {layer[name]:12.6g} {unit:<9} "
              f"moves {moves} on {on}")
    wall = layer["trace.wall_s"]
    selves = {
        group: sum(layer[name] for name in names)
        for group, names in LAYER_GROUPS.items()
    }
    selves["kernels"] = sum(layer[f"kernels.{k}.s"] for k in KERNELS)
    _emit(f"layers (self seconds over a traced phase of {wall:.3f} s):")
    for group, seconds in sorted(selves.items(), key=lambda kv: -kv[1]):
        _emit(f"  {group:<10} {seconds:9.4f} s  {100 * seconds / wall:5.1f}%")
    _emit(f"  {'unattributed':<10} {layer['trace.unattributed_s']:9.4f} s  "
          f"{100 * layer['trace.unattributed_s'] / wall:5.1f}%")
    top = sorted(selves, key=lambda g: -selves[g])[:3]
    _emit("top layers: " + ", ".join(top))
    _emit(f"tracing overhead: updates_per_s x{layer['trace.overhead_updates_per_s']:.3f}, "
          f"query_p50_ms x{layer['trace.overhead_query_p50']:.3f} "
          "(traced phase vs the untraced phase of the same run)")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, untraced then traced."""
    combined: dict = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            _emit(f"== {workload} (trace {trace})")
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                combined[f"{workload}/{name}"] = metric
    _emit("== summary (end-to-end)")
    for key, metric in combined.items():
        if "." not in key.split("/", 1)[1]:
            _emit(f"  {key:<40} {metric['value']:.6g} {metric['unit']}")
    _emit(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
