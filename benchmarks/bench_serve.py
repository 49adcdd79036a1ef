"""Service-layer load test — sustained ingest and query latency under
concurrent ingest, entirely in-process (pure ASGI, no sockets).

What this measures is the cost of the *serving* layer itself: routing,
wire decode, queue admission, the drainer's lock/to_thread hops — on
top of the engine kernels that ``bench_ingest`` times in isolation.
Two operational claims:

* The batch endpoint sustains a floor of updates/sec end-to-end
  (admit → drain → applied), so the asyncio plumbing is not the
  bottleneck in front of the sketch kernels.
* Query latency stays bounded while ingest runs concurrently: the
  per-tenant lock serialises engine access, so p99 reflects honest
  queueing, not corruption — and it must stay under a generous ceiling.

Byte-identical parity of served answers is pinned separately by
``tests/test_serve.py``; this file only enforces throughput/latency
gates into ``BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
import json
import time

from conftest import write_bench_json

from repro.serve import ServeConfig, create_app
from repro.serve.testing import AsgiClient

#: Small universe: the point is the cost of the serving layer, not the
#: sketch kernels (bench_ingest times those) — queries must be cheap
#: enough that p99 reflects queueing behind the drainer, not decode.
N = 128
BATCH_UPDATES = 64

#: Floors/ceilings are deliberately conservative (~5-10× headroom on a
#: dev container) — they catch order-of-magnitude regressions in the
#: service layer, not scheduler jitter.
INGEST_FLOOR_UPS = 2_000.0       # updates/sec through the batch endpoint
STREAM_FLOOR_UPS = 4_000.0       # updates/sec through NDJSON streaming
QUERY_P99_CEILING_S = 1.5        # p99 connectivity query under ingest load
#: Query-under-ingest samples, in quick and full mode alike: the p99 is
#: read at index int(0.99·N), so 1,100 samples leave ten above it and
#: the figure is not the maximum of a small sample.
QUERY_SAMPLES = 1_100


def _updates(count: int, offset: int = 0) -> "list[list[int]]":
    out = []
    for i in range(count):
        u = (i * 7 + offset) % N
        v = (u + 1 + (i % (N - 2))) % N
        if u == v:
            v = (v + 1) % N
        out.append([min(u, v), max(u, v), 1])
    return out


async def _make_tenant(client: AsgiClient, name: str) -> None:
    r = await client.post("/v1/tenants", json={
        "name": name,
        "spec": {"kind": "spanning_forest", "n": N, "seed": 2012},
    })
    assert r.status == 201, r.text


async def _ingest_batches(client: AsgiClient, name: str,
                          batches: int) -> float:
    """Admit + fully drain ``batches`` batches; return elapsed seconds."""
    t0 = time.perf_counter()
    for b in range(batches):
        while True:
            r = await client.post(
                f"/v1/tenants/{name}/batches",
                json={"updates": _updates(BATCH_UPDATES, offset=b)},
            )
            if r.status == 202:
                break
            assert r.status == 429, r.text     # backpressure: retry
            await asyncio.sleep(0.001)
    r = await client.post(f"/v1/tenants/{name}/flush")
    assert r.status == 200, r.text
    return time.perf_counter() - t0


def test_serve_load(quick, enforce):
    batches = 40 if quick else 200
    stream_updates = 2_000 if quick else 10_000
    queries = QUERY_SAMPLES

    rows: "list[dict]" = []
    gates: "list[dict]" = []

    async def scenario() -> None:
        app = create_app(ServeConfig(queue_capacity=64))
        async with AsgiClient(app) as client:
            # -- sustained batch ingest ---------------------------------
            await _make_tenant(client, "ingest")
            await _ingest_batches(client, "ingest", batches=4)  # warm-up
            seconds = await _ingest_batches(client, "ingest", batches)
            batch_ups = batches * BATCH_UPDATES / seconds
            rows.append({
                "path": "batches", "updates": batches * BATCH_UPDATES,
                "seconds": round(seconds, 4),
                "updates_per_sec": round(batch_ups, 1),
            })

            # -- sustained NDJSON streaming ingest ----------------------
            body = b"".join(
                json.dumps(update).encode() + b"\n"
                for update in _updates(stream_updates)
            )
            t0 = time.perf_counter()
            r = await client.post("/v1/tenants/ingest/stream", body=body)
            assert r.status == 202, r.text
            await client.post("/v1/tenants/ingest/flush")
            stream_seconds = time.perf_counter() - t0
            stream_ups = stream_updates / stream_seconds
            rows.append({
                "path": "stream", "updates": stream_updates,
                "seconds": round(stream_seconds, 4),
                "updates_per_sec": round(stream_ups, 1),
            })

            # -- query latency under concurrent ingest ------------------
            await _make_tenant(client, "query")
            await _ingest_batches(client, "query", batches=2)
            stop = asyncio.Event()

            async def background_ingest() -> None:
                b = 0
                while not stop.is_set():
                    r = await client.post(
                        "/v1/tenants/query/batches",
                        json={"updates": _updates(BATCH_UPDATES, offset=b)},
                    )
                    if r.status == 429:   # back off like a real client
                        await asyncio.sleep(0.005)
                    b += 1

            ingester = asyncio.ensure_future(background_ingest())
            latencies: "list[float]" = []
            query = {"v": 1, "query": "connectivity", "window": None,
                     "args": {"u": 0, "v": N - 1}}
            for _ in range(queries):
                t0 = time.perf_counter()
                r = await client.post("/v1/tenants/query/query", json=query)
                latencies.append(time.perf_counter() - t0)
                assert r.status == 200, r.text
            stop.set()
            await ingester
            latencies.sort()
            p50 = latencies[len(latencies) // 2]
            p99 = latencies[min(len(latencies) - 1,
                                int(len(latencies) * 0.99))]
            rows.append({
                "path": "query-under-ingest", "queries": queries,
                "p50_seconds": round(p50, 6), "p99_seconds": round(p99, 6),
            })

        gates.extend([
            {"name": "batch_ingest_updates_per_sec", "value": round(batch_ups, 1),
             "threshold": INGEST_FLOOR_UPS, "enforced": enforce,
             "pass": batch_ups >= INGEST_FLOOR_UPS},
            {"name": "stream_ingest_updates_per_sec", "value": round(stream_ups, 1),
             "threshold": STREAM_FLOOR_UPS, "enforced": enforce,
             "pass": stream_ups >= STREAM_FLOOR_UPS},
            {"name": "query_p99_seconds", "value": round(p99, 6),
             "threshold": QUERY_P99_CEILING_S, "enforced": enforce,
             "pass": p99 <= QUERY_P99_CEILING_S},
        ])

    asyncio.run(scenario())
    path = write_bench_json("serve", rows=rows, gates=gates, quick=quick)
    print(f"\n{path.name}: " + ", ".join(
        f"{g['name']}={g['value']}" for g in gates))
    if enforce:
        failed = [g["name"] for g in gates if not g["pass"]]
        assert not failed, f"serve perf gates failed: {failed}"
