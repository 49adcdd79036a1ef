"""Sketch parameters refused at every entry point that builds a sketch.

``Sparsification`` computes with ``c_level`` only when a sparsifier is
extracted, so a value it cannot compute with (a string, a bool, NaN, a
non-positive number) used to build, serve and ingest, and then fail the
first sparsifier query with a ``TypeError``.  The constructor refuses
it, and with it every entry point that builds a sketch: ``build()``,
serve's tenant creation, and the codec (``load_sketch`` and
``GraphSketchEngine.restore`` of a stored blob).
"""

from __future__ import annotations

import asyncio

import pytest
from blob_utils import repack_v2

from repro.api import GraphSketchEngine, SketchSpec
from repro.serve import create_app
from repro.serve.testing import AsgiClient
from repro.sketch import dump_sketch, load_sketch

N = 10
BAD_C_LEVELS = ["2", True, float("nan"), float("inf"), 0, -1.5, None]


@pytest.mark.parametrize("c_level", BAD_C_LEVELS, ids=repr)
def test_build_refuses_a_bad_c_level(c_level):
    with pytest.raises(ValueError, match="c_level must be a finite real"):
        SketchSpec.of("sparsification", N, c_level=c_level).build()


@pytest.mark.parametrize("c_level", [1.0, 4, 0.25])
def test_build_accepts_a_positive_c_level(c_level):
    assert SketchSpec.of(
        "sparsification", N, c_level=c_level
    ).build().c_level == c_level


def test_serve_refuses_a_tenant_with_a_string_c_level():
    declaration = {
        "name": "sparse",
        "spec": {"kind": "sparsification", "n": N, "params": {"c_level": "2"}},
    }

    async def scenario():
        async with AsgiClient(create_app()) as client:
            r = await client.post("/v1/tenants", json=declaration)
            assert r.status == 400, r.text
            assert r.json()["error"]["code"] == "BAD_REQUEST"
            assert "c_level" in r.json()["error"]["message"]
            assert (await client.get("/v1/tenants/sparse")).status == 404

    asyncio.run(scenario())


def test_codec_refuses_a_blob_resealed_with_a_string_c_level():
    blob = dump_sketch(SketchSpec.of("sparsification", N, seed=3).build())

    def stringify(header, _payload):
        header["c_level"] = "2"
    tampered = repack_v2(blob, stringify)
    with pytest.raises(ValueError, match="c_level must be a finite real"):
        load_sketch(tampered)
    with pytest.raises(ValueError, match="c_level must be a finite real"):
        GraphSketchEngine.restore(tampered)
