"""The closed-loop workloads: one client, one operation in flight.

Each workload drives the program only through its public entry points —
``repro.serve`` through ``serve.testing.AsgiClient``, or
``GraphSketchEngine`` where serve cannot reach — and returns the raw
samples of its timed phase.  Oracles run after the timed phase (see
:mod:`e2ebench.oracles`).

Why these two (recorded in ``BENCHMARK.json`` as well):

* ``serve_small_batches`` — many small requests, so fixed per-call
  costs dominate: serve plumbing and the ``forest_scatter`` per-call
  floor.  It is the only workload on the in-memory ``EpochTimeline``
  path (a seal dumps a checkpoint; a window query loads one and
  subtracts one).
* ``store_history`` — write-heavy durable history on ``EpochStore``:
  delta spans, dyadic compaction, catalog commits and LRU paging, with
  a working set larger than the store's 1 MiB page cache.  Serve cannot
  attach a store (tenant deployments accept only ``"epochs": {}``), so
  this workload drives the engine directly.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace

from .inputs import (
    ChurnGraph,
    Step,
    as_batch_body,
    connectivity_query_body,
)


#: Both workloads sketch connectivity, so every answer has an exact oracle.
KIND = "spanning_forest"
#: Set-ups per run; ``setup_s`` is their median, the last one is timed.
SETUPS = 5
SKETCH_SEED = 7
TENANT = "bench"


@dataclass(frozen=True)
class Config:
    """Sizes of one workload; :func:`tiny` shrinks them for self-tests."""

    n: int
    cap: int
    batch: int
    #: Steps ingested during set-up (the history the timed phase starts from).
    history_steps: int
    #: Upper bound on timed steps per second, used to size the inputs.
    max_steps_per_s: int
    seal_every: int
    query_every: int
    #: Widest recent window queried, in epochs.
    window_max: int
    #: ``EpochStore`` horizon (store workload only).
    horizon: int = 0


CONFIGS: dict[str, Config] = {
    "serve_small_batches": Config(
        n=128, cap=96, batch=64, history_steps=64, max_steps_per_s=300,
        seal_every=8, query_every=8, window_max=8,
    ),
    "store_history": Config(
        n=128, cap=96, batch=1024, history_steps=16, max_steps_per_s=15,
        seal_every=1, query_every=1, window_max=4, horizon=4,
    ),
}


def tiny(config: Config) -> Config:
    """A seconds-long variant of ``config`` for the self-test."""
    return replace(
        config,
        n=min(config.n, 24),
        cap=min(config.cap, 20),
        batch=min(config.batch, 32),
        history_steps=min(config.history_steps, 8),
        max_steps_per_s=200,
        seal_every=min(config.seal_every, 2),
        query_every=min(config.query_every, 2),
    )


# -- inputs --------------------------------------------------------------------


@dataclass(repr=False)  # asyncio formats a task's result
class Plan:
    """Everything a run sends, generated from the seed before timing."""

    config: Config
    history: list[Step]
    timed: list[Step]
    deletions: int
    updates: int


def _windows(
    rng: random.Random, serve: bool, window_max: int, epochs: int
) -> "list[tuple[int, int]]":
    """Served: a prefix or a recent sliding window.  Store: a recent window
    and a random historical one, which pages old compacted spans."""
    if serve:
        if rng.random() < 0.5:
            return [(0, epochs)]
        width = rng.randint(1, min(window_max, epochs))
        return [(epochs - width, epochs)]
    width = rng.randint(1, min(window_max, epochs))
    t1 = rng.randrange(epochs)
    return [(epochs - width, epochs), (t1, rng.randint(t1 + 1, epochs))]


def make_plan(name: str, config: Config, seed: int, seconds: float) -> Plan:
    """Generate the history and up to ``seconds × max_steps_per_s`` steps."""
    rng = random.Random(f"{name}:{seed}")
    graph = ChurnGraph(config.n, config.cap, rng)
    serve = name.startswith("serve_")
    history: list[Step] = []
    for i in range(config.history_steps):
        lo, hi, delta = graph.batch(config.batch)
        step = Step(lo, hi, delta)
        step.seal = (i + 1) % config.seal_every == 0
        history.append(step)
    epochs = config.history_steps // config.seal_every
    timed: list[Step] = []
    for i in range(max(1, int(seconds * config.max_steps_per_s))):
        lo, hi, delta = graph.batch(config.batch)
        step = Step(lo, hi, delta)
        step.seal = (i + 1) % config.seal_every == 0
        epochs += step.seal
        # Offset from the seal so a query lands mid-epoch.
        if (i + 1) % config.query_every == config.query_every // 2:
            step.windows = _windows(rng, serve, config.window_max, epochs)
        timed.append(step)
    if serve:
        for step in history + timed:
            step.body = as_batch_body(step.lo, step.hi, step.delta)
            step.queries = [connectivity_query_body(w) for w in step.windows]
    else:
        from repro.api import ConnectivityQuery
        from repro.streams import StreamBatch

        for step in history + timed:
            step.body = StreamBatch(config.n, step.lo, step.hi, step.delta)
            step.queries = [ConnectivityQuery(window=w) for w in step.windows]
    return Plan(config, history, timed, graph.deletions, graph.updates)


# -- results -------------------------------------------------------------------


@dataclass
class Phase:
    """Samples of one timed phase (seconds per op)."""

    ingest: list[float] = field(default_factory=list)
    seal: list[float] = field(default_factory=list)
    query: list[float] = field(default_factory=list)
    updates: int = 0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    steps: int = 0
    #: ``(step index, window, status, body)`` of every query, for oracles.
    answers: list = field(default_factory=list)
    exhausted: bool = False

    def fail(self, what: str, detail: object) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"error: {what}: {detail}", flush=True)

    @property
    def updates_per_s(self) -> float:
        return self.updates / sum(self.ingest) if self.ingest else 0.0


@dataclass
class Run:
    """What a workload run hands back to the reporter."""

    setup_s: list[float]
    phases: list[Phase]
    peak_rss_mb: float
    plan: Plan
    store_bytes: int = 0
    sealed_updates: int = 0
    trace: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarise(phase: Phase) -> dict:
    """Per-op p50 and p90 in ms, sample counts, and updates per second."""
    out: dict = {}
    for op in ("ingest", "seal", "query"):
        samples = getattr(phase, op)
        if len(samples) < 2:
            continue
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        out[f"{op}_p50_ms"] = statistics.median(samples) * 1e3
        out[f"{op}_p90_ms"] = cuts[89] * 1e3
        out[f"{op}_samples"] = len(samples)
    out["updates_per_s"] = phase.updates_per_s
    return out


# -- serve workloads -----------------------------------------------------------


def _tenant_body(config: Config) -> bytes:
    return json.dumps({
        "name": TENANT,
        "spec": {"kind": KIND, "n": config.n, "seed": SKETCH_SEED},
        "deployment": {"epochs": {}},
    }).encode()


_PATHS = {
    action: f"/v1/tenants/{TENANT}/{action}"
    for action in ("as_batch", "flush", "seal", "query")
}


async def _serve_setup(config: Config, history: list[Step]):
    from repro.serve import create_app
    from repro.serve.testing import AsgiClient

    app = create_app()
    client = AsgiClient(app)
    await client.__aenter__()
    response = await client.post("/v1/tenants", body=_tenant_body(config))
    if response.status != 201:
        raise RuntimeError(f"tenant creation failed: {response.text}")
    for step in history:
        a = await client.post(_PATHS["as_batch"], body=step.body)
        f = await client.post(_PATHS["flush"], body=b"")
        if a.status != 202 or f.status != 200:
            raise RuntimeError(f"history ingest failed: {a.text} {f.text}")
        if step.seal:
            s = await client.post(_PATHS["seal"], body=b"")
            if s.status != 200:
                raise RuntimeError(f"history seal failed: {s.text}")
    return app, client


async def _serve_phase(client, steps, start: int, seconds: float) -> Phase:
    phase = Phase()
    clock = time.perf_counter
    begin = clock()
    deadline = begin + seconds
    index = start
    while clock() < deadline:
        if index >= len(steps):
            phase.exhausted = True
            break
        step = steps[index]
        index += 1
        phase.attempted += 1
        t0 = clock()
        a = await client.post(_PATHS["as_batch"], body=step.body)
        f = await client.post(_PATHS["flush"], body=b"")
        t1 = clock()
        if a.status == 202 and f.status == 200 and f.json()["pending"] == 0:
            phase.ingest.append(t1 - t0)
            phase.updates += len(step.lo)
        else:
            phase.fail("ingest", (a.status, f.status, a.text, f.text))
        if step.seal:
            phase.attempted += 1
            t0 = clock()
            s = await client.post(_PATHS["seal"], body=b"")
            t1 = clock()
            if s.status == 200:
                phase.seal.append(t1 - t0)
            else:
                phase.fail("seal", (s.status, s.text))
        for window, body in zip(step.windows, step.queries):
            phase.attempted += 1
            t0 = clock()
            q = await client.post(_PATHS["query"], body=body)
            t1 = clock()
            if q.status == 200:
                phase.query.append(t1 - t0)
            else:
                phase.fail("query", (q.status, q.text))
            phase.answers.append((index - 1, window, q.status, q.body))
    phase.wall = clock() - begin
    phase.steps = index - start
    return phase


async def _run_serve(plan: Plan, seconds: float, tracer) -> Run:
    config = plan.config
    setups: list[float] = []
    app = client = None
    for i in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        app, client = await _serve_setup(config, plan.history)
        setups.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            await client.__aexit__(None, None, None)
    gc.collect()
    phases = [await _serve_phase(client, plan.timed, 0, seconds)]
    rss = peak_rss_mb()
    run = Run(setups, phases, rss, plan)
    if tracer is not None:
        done = phases[0].steps
        with tracer.installed(app=app):
            phases.append(await _serve_phase(client, plan.timed, done, seconds))
        run.trace = tracer.report(phases[-1].wall)
    await client.__aexit__(None, None, None)
    return run


# -- engine workload -----------------------------------------------------------


def _store_setup(config: Config, history: list[Step], root: str):
    from repro.api import GraphSketchEngine, SketchSpec

    spec = SketchSpec.of(KIND, config.n, seed=SKETCH_SEED)
    engine = GraphSketchEngine.for_spec(spec).epochs(
        store=root, horizon=config.horizon
    )
    for step in history:
        engine.ingest_batch(step.body)
        engine.seal_epoch()
    return engine


def _store_phase(engine, steps, start: int, seconds: float) -> Phase:
    phase = Phase()
    clock = time.perf_counter
    begin = clock()
    deadline = begin + seconds
    index = start
    while clock() < deadline:
        if index >= len(steps):
            phase.exhausted = True
            break
        step = steps[index]
        index += 1
        phase.attempted += 2
        try:
            t0 = clock()
            engine.ingest_batch(step.body)
            t1 = clock()
            engine.seal_epoch()
            t2 = clock()
        except Exception as err:  # noqa: BLE001 - counted, run continues
            phase.fail("ingest/seal", repr(err))
            continue
        phase.ingest.append(t1 - t0)
        phase.seal.append(t2 - t1)
        phase.updates += len(step.lo)
        for window, query in zip(step.windows, step.queries):
            phase.attempted += 1
            try:
                t0 = clock()
                result = engine.query(query)
                t1 = clock()
            except Exception as err:  # noqa: BLE001 - counted, run continues
                phase.fail("query", repr(err))
                phase.answers.append((index - 1, window, 500, None))
                continue
            phase.query.append(t1 - t0)
            phase.answers.append((index - 1, window, 200, result.components))
    phase.wall = clock() - begin
    phase.steps = index - start
    return phase


def _run_store(plan: Plan, seconds: float, tracer, workdir: str) -> Run:
    config = plan.config
    setups: list[float] = []
    engine = None
    root = ""
    for i in range(SETUPS):
        if engine is not None:
            engine.close()
            shutil.rmtree(root)
        root = os.path.join(workdir, f"store-{i}")
        gc.collect()
        t0 = time.perf_counter()
        engine = _store_setup(config, plan.history, root)
        setups.append(time.perf_counter() - t0)
    gc.collect()
    phases = [_store_phase(engine, plan.timed, 0, seconds)]
    rss = peak_rss_mb()
    run = Run(setups, phases, rss, plan)
    if tracer is not None:
        done = phases[0].steps
        with tracer.installed(store=engine.store):
            phases.append(_store_phase(engine, plan.timed, done, seconds))
        run.trace = tracer.report(phases[-1].wall)
    run.store_bytes = engine.store.total_bytes
    run.sealed_updates = engine.store.boundaries[-1]
    engine.close()
    return run


def run_workload(
    name: str,
    config: Config,
    seed: int,
    seconds: float,
    tracer=None,
    workdir: str = "",
) -> Run:
    """Generate the plan, set up, and run the timed phase(s).

    With a ``tracer`` the run makes an untraced phase and then a traced
    one of the same length on the same state, so the trace report can
    state its own overhead.
    """
    # Imports are not set-up: load the whole serving path first.
    import repro.serve.testing  # noqa: F401
    import repro.api  # noqa: F401

    phases = 2 if tracer is not None else 1
    plan = make_plan(name, config, seed, seconds * phases)
    if name == "store_history":
        return _run_store(plan, seconds, tracer, workdir)
    return asyncio.run(_run_serve(plan, seconds, tracer))
