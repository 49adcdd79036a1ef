"""Command-line interface: ``python -m repro.cli`` / ``repro-graph-sketches``.

Sub-commands:

* ``list`` — show the experiment registry and workloads;
* ``run <id> [--full] [--seed N]`` — run one experiment (e1–e12) and
  print its table (``all`` runs every experiment);
* ``demo`` — a 30-second end-to-end tour: build a churny stream and
  answer min-cut / sparsifier / triangle / spanner queries through one
  :class:`~repro.api.GraphSketchEngine` per spec;
* ``distribute --sites K`` — the Section 1.1 multi-site deployment:
  the same specs, deployed with ``.sharded(sites=K)`` — partition,
  consume locally, ship serialised sketches, merge, answer;
* ``epochs --epochs E`` — temporal checkpointing: the same spec with
  ``.epochs(...)``, sealing immutable cumulative checkpoints
  (optionally per-site with ``--sites K``), manifest written with
  ``--out``;
* ``window-query --from T1 --to T2`` — restore an engine from a
  manifest (or build a demo timeline) and answer the epoch window
  [T1, T2) by checkpoint subtraction;
* ``serve`` — run the :mod:`repro.serve` async ingestion/query service
  over HTTP (needs the ``repro[serve]`` extra for uvicorn; see
  ``docs/SERVING.md``).

All four demo-flavoured subcommands share one workload/spec helper
(:func:`_demo_setup`): the point of the engine API is that *the same
spec* drives every deployment mode.
"""

from __future__ import annotations

import argparse
import sys
import time

__all__ = ["main"]


def _print_error(err: Exception, context: str = "") -> None:
    """Print one CLI error line, surfacing the stable machine code.

    Library failures (:class:`~repro.errors.ReproError`) carry a stable
    ``code`` string — the same one the serve API returns in error
    bodies — so scripted callers can dispatch on ``error[CODE]:``
    without parsing prose.  Non-library errors print the plain prefix.
    """
    from .errors import ReproError

    prefix = f"error[{err.code}]" if isinstance(err, ReproError) else "error"
    lead = f"{context}: " if context else ""
    print(f"{prefix}: {lead}{err}", file=sys.stderr)


def _cmd_list(_args: argparse.Namespace) -> int:
    from .eval import EXPERIMENTS, WORKLOADS

    print("experiments:")
    for exp_id, (desc, _fn) in sorted(EXPERIMENTS.items()):
        print(f"  {exp_id}: {desc}")
    print("workloads:")
    for name in sorted(WORKLOADS):
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .eval import EXPERIMENTS, run_experiment

    requested = args.experiment.lower()
    if requested != "all" and requested not in EXPERIMENTS:
        valid = ", ".join(sorted(EXPERIMENTS))
        print(
            f"error: unknown experiment {args.experiment!r} "
            f"(choose from {valid}, or 'all')",
            file=sys.stderr,
        )
        return 2
    ids = sorted(EXPERIMENTS) if requested == "all" else [requested]
    for exp_id in ids:
        t0 = time.perf_counter()
        table = run_experiment(exp_id, quick=not args.full, seed=args.seed)
        dt = time.perf_counter() - t0
        print(table.render())
        print(f"\n[{exp_id} completed in {dt:.1f}s]\n")
    return 0


def _demo_setup(seed: int):
    """The shared demo workload and engine specs of every subcommand.

    One planted-partition churn stream plus one :class:`~repro.api.
    SketchSpec` per demo sketch — ``demo`` runs them locally,
    ``distribute`` shards the *same* specs, ``epochs``/``window-query``
    checkpoint them; nothing but the fluent deployment chain differs.
    """
    from .api import SketchSpec
    from .graphs import Graph
    from .streams import churn_stream, planted_partition_graph

    n = 36
    edges = planted_partition_graph(n, 0.6, 0.12, seed=seed)
    graph = Graph.from_edges(n, edges)
    stream = churn_stream(n, edges, seed=seed + 1)
    specs = {
        "forest": SketchSpec.of("spanning_forest", n, seed=seed + 2),
        "mincut": SketchSpec.of("mincut", n, seed=seed + 3, epsilon=0.5),
        "sparsifier": SketchSpec.of(
            "simple_sparsification", n, seed=seed + 4, epsilon=0.5, c_k=0.3
        ),
        "subgraph": SketchSpec.of(
            "subgraph_count", n, seed=seed + 5, order=3, samplers=96
        ),
        "spanner": SketchSpec.of("baswana_sen_spanner", n, seed=seed + 6, k=2),
    }
    return graph, stream, specs


def _cmd_demo(args: argparse.Namespace) -> int:
    from .api import (
        GraphSketchEngine,
        MinCutQuery,
        SpannerDistanceQuery,
        SparsifierQuery,
        SubgraphCountQuery,
    )
    from .core import TRIANGLE, cut_approximation_report, encoding_class
    from .graphs import gamma_exact, global_min_cut_value, measure_stretch

    seed = args.seed
    graph, stream, specs = _demo_setup(seed)
    print(f"workload: planted partition, n={stream.n}, m={graph.num_edges()}, "
          f"{len(stream)} stream tokens (with deletions)")

    mc = GraphSketchEngine.for_spec(specs["mincut"]).ingest(stream)
    res = mc.query(MinCutQuery())
    print(f"min cut: sketch={res.value} exact={global_min_cut_value(graph)} "
          f"(stop level {res.stop_level})")

    sp = GraphSketchEngine.for_spec(specs["sparsifier"]).ingest(stream)
    sparse = sp.query(SparsifierQuery())
    rep = cut_approximation_report(
        graph, sparse.sparsifier, sample_cuts=200, seed=seed
    )
    print(f"sparsifier: {sparse.edges}/{graph.num_edges()} edges, "
          f"max cut error {rep.max_relative_error:.3f}")

    sub = GraphSketchEngine.for_spec(specs["subgraph"]).ingest(stream)
    tri = sub.query(SubgraphCountQuery("triangle"))
    print(f"triangles: γ sketch={tri.gamma:.4f} "
          f"exact={gamma_exact(graph, encoding_class(TRIANGLE), 3):.4f}")

    span = GraphSketchEngine.for_spec(specs["spanner"]).ingest(stream)
    sd = span.query(SpannerDistanceQuery())
    sr = measure_stretch(graph, sd.spanner)
    print(f"spanner (k=2): {sd.edges} edges, max stretch {sr.max_stretch} "
          f"(bound {sd.stretch_bound:.0f}), batches {sd.batches}")
    return 0


def _cmd_distribute(args: argparse.Namespace) -> int:
    """Simulate the Section 1.1 multi-site deployment end to end."""
    from .api import (
        ConnectivityQuery,
        GraphSketchEngine,
        MinCutQuery,
        SpannerDistanceQuery,
        SparsifierQuery,
    )
    from .core import cut_approximation_report
    from .distributed import PARTITION_STRATEGIES
    from .graphs import global_min_cut_value, measure_stretch

    if args.sites < 1:
        print("error: --sites must be >= 1", file=sys.stderr)
        return 2
    if args.processes is not None and args.processes < 1:
        print("error: --processes must be >= 1", file=sys.stderr)
        return 2
    if args.strategy not in PARTITION_STRATEGIES:
        print(
            f"error: unknown strategy {args.strategy!r} "
            f"(choose from {', '.join(PARTITION_STRATEGIES)})",
            file=sys.stderr,
        )
        return 2

    seed = args.seed
    graph, stream, specs = _demo_setup(seed)
    print(
        f"workload: planted partition, n={stream.n}, m={graph.num_edges()}, "
        f"{len(stream)} tokens → {args.sites} site(s), "
        f"strategy={args.strategy}, mode={args.mode}"
    )
    # 3 × int64 per token on the wire, split across the sites.
    stream_bytes = 24 * len(stream) // args.sites
    print(f"shipping the raw stream would cost ~{stream_bytes} bytes per site")

    def deploy(spec, mode=None):
        # Adaptive spanners run a coordinator-driven round protocol and
        # refuse process workers — their deploys stay sequential even
        # under --mode process.
        return (GraphSketchEngine.for_spec(spec)
                .sharded(sites=args.sites, strategy=args.strategy, seed=seed)
                .workers(mode=mode or args.mode, processes=args.processes)
                .ingest(stream))

    def sparsifier_answer(result):
        rep = cut_approximation_report(
            graph, result.sparsifier, sample_cuts=200, seed=seed
        )
        return (f"{result.edges}/{graph.num_edges()} edges, "
                f"max cut error {rep.max_relative_error:.3f}")

    runs = [
        ("connectivity (forest)", specs["forest"], ConnectivityQuery(),
         lambda r: f"components={r.components}"),
        ("min cut", specs["mincut"], MinCutQuery(),
         lambda r: f"estimate={r.value} exact={global_min_cut_value(graph)}"),
        ("sparsifier", specs["sparsifier"], SparsifierQuery(),
         sparsifier_answer),
    ]
    for name, spec, query, fmt in runs:
        with deploy(spec) as engine:
            report = engine.last_report
            per_site = ", ".join(str(s.payload_bytes) for s in report.sites)
            print(f"{name}: {fmt(engine.query(query))}")
            print(
                f"  bytes/site [{per_site}]  "
                f"total={report.total_payload_bytes}  "
                f"wall={report.wall_seconds:.2f}s"
            )

    span = deploy(specs["spanner"], mode="sequential").query(
        SpannerDistanceQuery()
    )
    sr = measure_stretch(graph, span.spanner)
    print(
        f"spanner distances (k=2): {span.edges} edges, max stretch "
        f"{sr.max_stretch} (bound {span.stretch_bound:.0f}), "
        f"{span.batches} adaptive rounds, {span.shipped_bytes} bytes shipped"
    )
    return 0


def _parse_boundaries(spec: str) -> list[int]:
    """Parse a ``--boundaries`` CSV into epoch-end token positions.

    Raises ``ValueError`` with a readable message on non-integer parts;
    ordering/coverage validation happens in ``normalize_boundaries``.
    """
    try:
        return [int(part) for part in spec.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(
            f"--boundaries must be comma-separated integers, got {spec!r}"
        ) from None


def _cmd_epochs(args: argparse.Namespace) -> int:
    """Seal per-epoch checkpoints of the demo stream (optionally sharded)."""
    import pathlib

    from .api import GraphSketchEngine
    from .errors import EpochStoreError
    from .temporal import RetentionPolicy

    if args.epochs < 1:
        print("error: --epochs must be >= 1", file=sys.stderr)
        return 2
    if args.sites < 1:
        print("error: --sites must be >= 1", file=sys.stderr)
        return 2
    retention = None
    if args.store is None and (
        args.horizon is not None or args.max_epochs is not None
        or args.max_bytes is not None or args.granularity is not None
    ):
        print(
            "error: --horizon/--max-epochs/--max-bytes/--granularity "
            "configure the durable store; pass --store DIR as well",
            file=sys.stderr,
        )
        return 2
    if args.store is not None and (
        args.max_epochs is not None or args.max_bytes is not None
        or args.granularity is not None
    ):
        try:
            retention = RetentionPolicy(
                max_epochs=args.max_epochs,
                max_bytes=args.max_bytes,
                min_granularity=args.granularity or 1,
            )
        except ValueError as err:
            _print_error(err)
            return 2
    seed = args.seed
    graph, stream, specs = _demo_setup(seed)
    # Validate the epoch grid up front: a decreasing or short grid must
    # exit 2 with a clear message, not a traceback from deep inside the
    # epoch manager (the `cli run <bad-id>` contract).
    boundaries = None
    epochs = args.epochs
    if args.boundaries is not None:
        from .temporal import normalize_boundaries

        try:
            boundaries = _parse_boundaries(args.boundaries)
            normalize_boundaries(len(stream), None, boundaries)
        except ValueError as err:
            _print_error(err)
            return 2
        epochs = None
    grid = (f"{len(boundaries)} explicit epochs" if boundaries is not None
            else f"{epochs} epochs")
    print(
        f"workload: planted partition, n={stream.n}, m={graph.num_edges()}, "
        f"{len(stream)} tokens → {grid}"
    )
    engine = GraphSketchEngine.for_spec(specs["forest"])
    if args.sites > 1:
        engine.sharded(sites=args.sites, seed=seed)
    try:
        engine.epochs(
            count=epochs, boundaries=boundaries,
            store=args.store, retention=retention, horizon=args.horizon,
        ).ingest(stream)
    except EpochStoreError as err:
        _print_error(err)
        return 2
    if args.sites > 1:
        report = engine.last_report
        print(
            f"sharded across {args.sites} sites: "
            f"{report.total_payload_bytes} checkpoint bytes shipped, "
            f"wall={report.wall_seconds:.2f}s"
        )
    if args.store is not None:
        store = engine.store
        print("span-start  span-end  segment-bytes")
        for entry in store.spans():
            print(f"{entry.start:>10}  {entry.end:>8}  {entry.nbytes:>13}")
        print(
            f"store: {store.epochs} epochs at {store.root} — "
            f"{store.span_count} spans, {store.total_bytes} bytes on disk, "
            f"retention floor {store.base}"
        )
    else:
        timeline = engine.timeline
        print("epoch  tokens  cumulative  checkpoint-bytes")
        for chk in timeline.checkpoints:
            print(
                f"{chk.epoch:>5}  {chk.tokens:>6}  {chk.cumulative_tokens:>10}  "
                f"{len(chk.payload):>16}"
            )
    manifest = engine.snapshot()
    what = "store pointer" if args.store is not None else "manifest"
    print(f"{what}: {engine.epochs_sealed} epochs, {len(manifest)} bytes")
    if args.out:
        pathlib.Path(args.out).write_bytes(manifest)
        print(f"wrote {what} to {args.out}")
    return 0


def _window_queries(engine, window):
    """Canonical windowed queries for the engine's declared capabilities."""
    from .api import (
        ConnectivityQuery,
        CutQuery,
        KEdgeConnectivityQuery,
        MinCutQuery,
        PropertiesQuery,
        SparsifierQuery,
        SubgraphCountQuery,
    )

    canonical = {
        "connectivity": ConnectivityQuery(window=window),
        "k-edge-connectivity": KEdgeConnectivityQuery(window=window),
        "mincut": MinCutQuery(window=window),
        "cut-query": CutQuery(side=frozenset({0}), window=window),
        "sparsifier": SparsifierQuery(window=window),
        "subgraph-count": SubgraphCountQuery("triangle", window=window),
        "properties": PropertiesQuery(window=window),
    }
    return [
        query for cap, query in canonical.items()
        if cap in engine.capabilities
    ]


def _print_result(result) -> None:
    """Render the data fields of a typed query result, one per line."""
    import dataclasses

    skip = {"kind", "capability", "window", "telemetry", "sparsifier", "spanner"}
    for field in dataclasses.fields(result):
        if field.name in skip:
            continue
        value = getattr(result, field.name)
        if isinstance(value, dict):
            for key, val in value.items():
                print(f"  {key}: {val}")
        elif isinstance(value, tuple) and len(value) > 6:
            print(f"  {field.name}: {len(value)} entries")
        elif value is not None:
            print(f"  {field.name}: {value}")


def _cmd_window_query(args: argparse.Namespace) -> int:
    """Materialise [t1, t2) by checkpoint subtraction and answer it."""
    import pathlib

    from .api import GraphSketchEngine
    from .errors import EpochStoreError

    seed = args.seed
    if args.epochs < 1:
        print("error: --epochs must be >= 1", file=sys.stderr)
        return 2
    if args.store and args.manifest:
        print("error: pass at most one of --store / --manifest",
              file=sys.stderr)
        return 2
    if args.store:
        try:
            engine = GraphSketchEngine.attach_store(args.store)
        except (ValueError, EpochStoreError) as err:
            _print_error(err, context="cannot open store")
            return 2
        store = engine.store
        print(
            f"store: {engine.epochs_sealed} epochs of {engine.spec.kind} "
            f"at {store.root} ({store.span_count} spans, "
            f"retention floor {store.base})"
        )
    elif args.manifest:
        data = pathlib.Path(args.manifest).read_bytes()
        try:
            engine = GraphSketchEngine.restore(data)
        except (ValueError, EpochStoreError) as err:
            _print_error(err, context="cannot load manifest")
            return 2
        print(
            f"manifest: {engine.epochs_sealed} epochs of {engine.spec.kind}"
        )
    else:
        _graph, stream, specs = _demo_setup(seed)
        engine = (GraphSketchEngine.for_spec(specs["forest"])
                  .epochs(count=args.epochs)
                  .ingest(stream))
        print(
            f"demo timeline: planted partition, n={stream.n}, "
            f"{len(stream)} tokens, {engine.epochs_sealed} epochs"
        )
    t1 = args.t1
    t2 = args.t2 if args.t2 is not None else engine.epochs_sealed
    try:
        results = [
            engine.query(query)
            for query in _window_queries(engine, (t1, t2))
        ]
        tokens = engine.window_tokens(t1, t2)
    except (ValueError, EpochStoreError) as err:
        # EpochStoreError is not a ValueError: retention refusals
        # (evicted epochs, sub-granularity endpoints) exit 2 too.
        _print_error(err)
        return 2
    if engine.store is not None:
        loads = len(engine.store.plan_window(t1, t2))
        how = f"{loads} dyadic span load{'s' if loads != 1 else ''} merged"
    else:
        how = "1 load" if t1 == 0 else "2 loads + subtraction"
    print(f"window [{t1}, {t2}): {tokens} tokens, materialised by {how}")
    for result in results:
        print(f"  [{result.capability}] "
              f"({result.telemetry.payload_bytes} checkpoint bytes, "
              f"{result.telemetry.seconds * 1e3:.1f} ms)")
        _print_result(result)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the ingestion/query service under uvicorn (repro[serve])."""
    from .serve import ServeConfig, create_app

    try:
        config = ServeConfig(
            queue_capacity=args.queue_capacity,
            idempotency_ttl=args.idempotency_ttl,
        )
    except ValueError as err:
        _print_error(err)
        return 2
    try:
        import uvicorn
    except ImportError:
        print(
            "error: serving over the network needs uvicorn — install the "
            "serve extra (pip install 'repro-graph-sketches[serve]'); "
            "in-process use works without it via repro.serve.create_app()",
            file=sys.stderr,
        )
        return 2
    uvicorn.run(
        create_app(config), host=args.host, port=args.port, log_level="info"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-graph-sketches",
        description="Graph sketches (Ahn-Guha-McGregor, PODS 2012) — "
        "experiments and demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiments and workloads")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run an experiment (e1..e12 or 'all')")
    p_run.add_argument("experiment", help="experiment id, e.g. e5, or 'all'")
    p_run.add_argument("--full", action="store_true",
                       help="full parameter sweep (slower)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=_cmd_run)

    p_demo = sub.add_parser("demo", help="30-second end-to-end tour")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=_cmd_demo)

    p_dist = sub.add_parser(
        "distribute",
        help="multi-site sharded sketching (partition → ship → merge)",
    )
    p_dist.add_argument("--sites", type=int, default=4,
                        help="number of simulated sites K (default 4)")
    p_dist.add_argument("--strategy", default="hash-edge",
                        help="partition strategy (round-robin, hash-edge, "
                             "hash-endpoint, contiguous)")
    p_dist.add_argument("--mode", default="sequential",
                        choices=["sequential", "process"],
                        help="site execution mode")
    p_dist.add_argument("--processes", type=int, default=None,
                        help="worker pool size for --mode process "
                             "(default: min(sites, cpus))")
    p_dist.add_argument("--seed", type=int, default=0)
    p_dist.set_defaults(func=_cmd_distribute)

    p_epochs = sub.add_parser(
        "epochs",
        help="temporal checkpointing (consume → seal per-epoch checkpoints)",
    )
    p_epochs.add_argument("--epochs", type=int, default=6,
                          help="number of evenly spaced epochs E (default 6)")
    p_epochs.add_argument("--boundaries", default=None,
                          help="explicit epoch-end token positions as a "
                               "comma-separated non-decreasing list ending "
                               "at the stream length (overrides --epochs)")
    p_epochs.add_argument("--sites", type=int, default=1,
                          help="simulate K sites (per-site checkpoints "
                               "merged across sites; default 1)")
    p_epochs.add_argument("--out", default=None,
                          help="write the epoch manifest (or store pointer, "
                               "with --store) to this file")
    p_epochs.add_argument("--store", default=None, metavar="DIR",
                          help="seal checkpoints durably into an EpochStore "
                               "directory (dyadic compaction) instead of an "
                               "in-memory timeline")
    p_epochs.add_argument("--horizon", type=int, default=None,
                          help="epochs kept uncompacted at the tail of the "
                               "store (default 0: compact eagerly)")
    p_epochs.add_argument("--max-epochs", type=int, default=None,
                          help="retention: keep at most this many trailing "
                               "epochs addressable")
    p_epochs.add_argument("--max-bytes", type=int, default=None,
                          help="retention: evict oldest spans past this "
                               "many on-disk bytes")
    p_epochs.add_argument("--granularity", type=int, default=None,
                          help="retention: power-of-two minimum span length "
                               "kept for compacted (old) epochs")
    p_epochs.add_argument("--seed", type=int, default=0)
    p_epochs.set_defaults(func=_cmd_epochs)

    p_window = sub.add_parser(
        "window-query",
        help="answer an epoch window [T1, T2) by checkpoint subtraction",
    )
    p_window.add_argument("--manifest", default=None,
                          help="epoch manifest file (from `epochs --out`); "
                               "omitted: build a demo timeline")
    p_window.add_argument("--store", default=None, metavar="DIR",
                          help="answer from a durable EpochStore directory "
                               "(from `epochs --store`) by merging O(log T) "
                               "dyadic spans")
    p_window.add_argument("--from", dest="t1", type=int, default=0,
                          help="window start epoch T1 (default 0)")
    p_window.add_argument("--to", dest="t2", type=int, default=None,
                          help="window end epoch T2 (default: last epoch)")
    p_window.add_argument("--epochs", type=int, default=6,
                          help="epochs for the demo timeline (default 6)")
    p_window.add_argument("--seed", type=int, default=0)
    p_window.set_defaults(func=_cmd_window_query)

    p_serve = sub.add_parser(
        "serve",
        help="run the async ingestion/query service (needs repro[serve])",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8042)
    p_serve.add_argument("--queue-capacity", type=int, default=64,
                         help="bound on the ingest job queue; full → 429 "
                              "(default 64)")
    p_serve.add_argument("--idempotency-ttl", type=float, default=300.0,
                         help="seconds a client batch id is remembered for "
                              "replay detection (default 300)")
    p_serve.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
