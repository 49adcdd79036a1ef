"""Inputs refused where they enter, not after they were accepted.

* ``StreamBatch`` columns outside the stream model (``0 <= lo < hi < n``
  and a nonzero delta).  A reversed deletion used to add its signed
  incidence rows to the insertion's instead of cancelling them, so the
  sketch answered for an edge that was gone; a self-loop or a zero
  delta was a silent no-op, and an endpoint out of range failed inside
  a kernel.
* An unknown pool ``start_method``, refused when the engine is
  configured: a served tenant declaring one used to be created and to
  acknowledge batches that its drain then dropped.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import ConnectivityQuery, GraphSketchEngine, SketchSpec
from repro.errors import StreamError
from repro.serve import create_app
from repro.serve.testing import AsgiClient
from repro.streams import EdgeUpdate, StreamBatch

N = 10


def _batch(lo, hi, delta) -> StreamBatch:
    return StreamBatch(N, np.array(lo), np.array(hi), np.array(delta))


def test_reversed_deletion_is_refused():
    engine = GraphSketchEngine.for_spec(SketchSpec.of("spanning_forest", N, seed=1))
    engine.ingest_batch(StreamBatch.from_updates(N, [EdgeUpdate(3, 5, 1)]))
    with pytest.raises(StreamError, match="lo=5, hi=3"):
        engine.ingest_batch(_batch([5], [3], [-1]))
    engine.ingest_batch(_batch([3], [5], [-1]))
    assert engine.query(ConnectivityQuery()).components == N


@pytest.mark.parametrize("lo,hi,delta", [
    pytest.param(5, 3, 1, id="reversed"),
    pytest.param(4, 4, 1, id="self-loop"),
    pytest.param(-1, 2, 1, id="negative-lo"),
    pytest.param(1, N, 1, id="hi-past-n"),
    pytest.param(1, 2, 0, id="zero-delta"),
])
def test_token_outside_the_stream_model_is_refused(lo, hi, delta):
    with pytest.raises(StreamError, match="token 1 "):
        _batch([0, lo, 0], [1, hi, 1], [1, delta, 1])


def test_canonical_columns_build():
    batch = _batch([0, 2, 8], [1, 9, 9], [1, -3, 2])
    assert len(batch) == 3
    assert batch.ranks.tolist() == StreamBatch.from_updates(
        N, [EdgeUpdate(0, 1), EdgeUpdate(2, 9, -3), EdgeUpdate(8, 9, 2)]
    ).ranks.tolist()


def test_workers_refuses_an_unknown_start_method():
    engine = GraphSketchEngine.for_spec(
        SketchSpec.of("spanning_forest", N)
    ).sharded(sites=2)
    with pytest.raises(ValueError, match="unknown start method"):
        engine.workers(mode="process", start_method="bogus")


def test_serve_refuses_a_tenant_with_an_unknown_start_method():
    declaration = {
        "name": "bogus",
        "spec": {"kind": "spanning_forest", "n": N},
        "deployment": {
            "sharded": {"sites": 2}, "workers": {"start_method": "bogus"},
        },
    }

    async def scenario():
        async with AsgiClient(create_app()) as client:
            r = await client.post("/v1/tenants", json=declaration)
            assert r.status == 400, r.text
            assert r.json()["error"]["code"] == "BAD_REQUEST"
            assert "start method" in r.json()["error"]["message"]
            assert (await client.get("/v1/tenants/bogus")).status == 404

    asyncio.run(scenario())
