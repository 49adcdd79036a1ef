"""Contract fuzz: every constructor keyword of every registry kind.

A sketch is fixed by its parameters and seed, so what each parameter
may be is decided once (``repro.sketch.arena.check_params``) and
applied by all three entry points that build a sketch.  The keywords
are read off each kind's constructor signature, so a keyword added
without a rule fails here: its refused samples would build.  Every
sample is either refused by all three entry points with a
``ValueError`` that names the field:

* ``SketchSpec.build()``;
* the codec: ``load_sketch`` and ``GraphSketchEngine.restore`` of a
  blob whose header is resealed with the sample;
* serve's tenant creation, which answers 400 and keeps no tenant;

or it builds, dumps and loads back byte-identically.  The two adaptive
spanner drivers have no codec and are not servable, so only their
``build()`` is fuzzed.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import re

import pytest
from blob_utils import repack_v2

from repro.api import GraphSketchEngine, SketchSpec, capability_entry, registered_kinds
from repro.serve import create_app
from repro.serve.testing import AsgiClient
from repro.sketch import dump_sketch, load_sketch
from repro.sketch.arena import _PARAM_RULES
from repro.sketch.serialize import serializable_sketch_kinds

N = 10
SEED = 5

#: Small buildable parameters per kind; each fuzzed keyword overrides
#: one of them (or adds itself).
BASE = {
    "spanning_forest": {"rounds": 2},
    "edge_connectivity": {"k": 2, "rounds": 2},
    "mincut": {"c_k": 0.05, "levels": 2, "rounds": 2},
    "simple_sparsification": {"c_k": 0.05, "levels": 2, "rounds": 2},
    "sparsification": {"c_k": 0.05, "c_rough": 0.05, "levels": 2, "rounds": 2},
    "weighted_sparsification": {"max_weight": 2, "c_k": 0.05, "rounds": 2},
    "subgraph_count": {"samplers": 4},
    "cut_edges": {"k": 2},
    "bipartiteness": {"rounds": 2},
    "mst_weight": {"max_weight": 2, "rounds": 2},
    "baswana_sen_spanner": {"k": 2},
    "recurse_connect_spanner": {"k": 2},
}

SAMPLES = [
    True, False, "2", None, math.nan, math.inf, -math.inf, [1], {}, -1, 0,
]

#: The samples a kind accepts: a derived keyword (``rounds``,
#: ``levels``) left to its constructor, no subsampling levels, and an
#: exact (``epsilon = 0``) MST threshold ladder.  The hierarchies refuse
#: ``epsilon = 0`` in ``default_k``.
ACCEPTED = {("rounds", None), ("levels", None), ("levels", 0)}
ACCEPTED_BY_KIND = {("mst_weight", "epsilon", 0)}


def _keywords(kind: str) -> list[str]:
    cls = capability_entry(kind).cls
    return [name for name in inspect.signature(cls).parameters if name != "source"]


def _samples(name: str) -> list:
    """The fuzz values, plus ``0.5`` for an integer keyword (a keyword
    with no rule raises ``KeyError`` here)."""
    return SAMPLES + ([0.5] if _PARAM_RULES[name][0] is int else [])


def _accepted(kind: str, name: str, value) -> bool:
    # Every accepted sample is an int or None (so not a bool, nor a list).
    return type(value) in (int, type(None)) and (
        (name, value) in ACCEPTED or (kind, name, value) in ACCEPTED_BY_KIND
    )


def _names(name: str) -> str:
    """A message that names ``name`` as the refused field."""
    return rf"\b{name} must be"


def _spec(kind: str, name: str, value) -> SketchSpec:
    if name == "n":
        return SketchSpec(kind, value, SEED, tuple(BASE[kind].items()))
    return SketchSpec.of(kind, N, seed=SEED, **{**BASE[kind], name: value})


def _declaration(kind: str, name: str, value) -> dict:
    spec = {"kind": kind, "n": N, "seed": SEED, "params": dict(BASE[kind])}
    if name == "n":
        spec["n"] = value
    else:
        spec["params"][name] = value
    return {"name": "fuzz", "spec": spec}


def _cases(kinds) -> list:
    return [
        pytest.param(kind, name, id=f"{kind}-{name}")
        for kind in kinds
        for name in _keywords(kind)
    ]


CASES = _cases(serializable_sketch_kinds())


def test_every_kind_is_fuzzed():
    assert set(BASE) == set(registered_kinds())


@pytest.mark.parametrize("kind,name", _cases(registered_kinds()))
def test_build_refuses_or_round_trips(kind, name):
    for value in _samples(name):
        if _accepted(kind, name, value):
            blob = dump_sketch(_spec(kind, name, value).build())
            assert dump_sketch(load_sketch(blob)) == blob, value
        else:
            with pytest.raises(ValueError, match=_names(name)):
                _spec(kind, name, value).build()


@pytest.mark.parametrize("kind,name", CASES)
def test_codec_refuses_a_resealed_header(kind, name):
    blob = dump_sketch(SketchSpec.of(kind, N, seed=SEED, **BASE[kind]).build())
    for value in _samples(name):
        if _accepted(kind, name, value):
            continue

        def reseal(header, _payload, value=value):
            header[name] = value
        tampered = repack_v2(blob, reseal)
        with pytest.raises(ValueError, match=_names(name)):
            load_sketch(tampered)
        with pytest.raises(ValueError, match=_names(name)):
            GraphSketchEngine.restore(tampered)


@pytest.mark.parametrize("seed", [
    math.inf, -math.inf, math.nan, "31", None, True, 1.5, [1], -1, 1 << 64,
], ids=repr)
def test_codec_refuses_a_resealed_seed(seed):
    blob = dump_sketch(SketchSpec.of("spanning_forest", N, seed=SEED).build())

    def reseal(header, _payload):
        header["seed"] = seed
    tampered = repack_v2(blob, reseal)
    with pytest.raises(ValueError, match="seed"):
        load_sketch(tampered)
    with pytest.raises(ValueError, match="seed"):
        GraphSketchEngine.restore(tampered)


@pytest.mark.parametrize("kind,name", CASES)
def test_serve_refuses_the_tenant(kind, name):
    refused = [v for v in _samples(name) if not _accepted(kind, name, v)]

    async def scenario():
        async with AsgiClient(create_app()) as client:
            for value in refused:
                r = await client.post(
                    "/v1/tenants", json=_declaration(kind, name, value)
                )
                assert r.status == 400, (value, r.text)
                assert re.search(rf"\b{name}\b", r.json()["error"]["message"])
                assert (await client.get("/v1/tenants/fuzz")).status == 404

    asyncio.run(scenario())
