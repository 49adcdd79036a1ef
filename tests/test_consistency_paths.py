"""Consistency between scalar update paths and vectorised consume paths.

Every algorithm offers both a per-token ``update`` and a batched
``consume``; these tests pin them to bit-identical sketch states so the
fast paths can never drift from the reference semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CutEdgesSketch,
    MinCutSketch,
    SimpleSparsification,
    Sparsification,
    SpanningForestSketch,
)
from repro.hashing import HashSource
from repro.streams import churn_stream, erdos_renyi_graph


@pytest.fixture
def workload():
    n = 14
    edges = erdos_renyi_graph(n, 0.45, seed=21)
    return n, churn_stream(n, edges, seed=22)


def _phi_of(sketch):
    """Concatenated phi arrays of all banks inside a sketch."""
    if isinstance(sketch, SpanningForestSketch):
        return [sketch.bank.bank.phi]
    if isinstance(sketch, CutEdgesSketch):
        return [sketch.bank.bank.phi]
    if isinstance(sketch, MinCutSketch):
        return [
            g.bank.bank.phi for inst in sketch.instances for g in inst.groups
        ]
    if isinstance(sketch, SimpleSparsification):
        return [
            g.bank.bank.phi for inst in sketch.instances for g in inst.groups
        ]
    if isinstance(sketch, Sparsification):
        return _phi_of(sketch.rough) + [sketch.recovery.bank.phi]
    raise TypeError(type(sketch))


@pytest.mark.parametrize(
    "factory",
    [
        lambda n: SpanningForestSketch(n, HashSource(77)),
        lambda n: MinCutSketch(n, source=HashSource(78)),
        lambda n: SimpleSparsification(n, source=HashSource(79)),
        lambda n: Sparsification(n, source=HashSource(80)),
        lambda n: CutEdgesSketch(n, k=6, source=HashSource(81)),
    ],
    ids=["forest", "mincut", "simple-sparsify", "sparsify", "cut-queries"],
)
def test_update_equals_consume(workload, factory):
    n, stream = workload
    batched = factory(n).consume_batch(stream.as_batch())
    tokenwise = factory(n)
    for upd in stream:
        tokenwise.update(upd)
    for a, b in zip(_phi_of(batched), _phi_of(tokenwise)):
        assert (a == b).all()


def test_chunked_consume_equals_whole(workload):
    """Forest consume() chunking must not affect the result."""
    n, stream = workload
    whole = SpanningForestSketch(n, HashSource(82)).consume_batch(stream.as_batch())
    chunked = SpanningForestSketch(n, HashSource(82))
    m = len(stream)
    lo = np.fromiter((u.lo for u in stream), dtype=np.int64, count=m)
    hi = np.fromiter((u.hi for u in stream), dtype=np.int64, count=m)
    dl = np.fromiter((u.delta for u in stream), dtype=np.int64, count=m)
    for start in range(0, m, 3):  # absurdly small chunks
        chunked.update_edges(
            lo[start:start + 3], hi[start:start + 3], dl[start:start + 3]
        )
    assert (whole.bank.bank.phi == chunked.bank.bank.phi).all()
    assert (whole.bank.bank.fp1 == chunked.bank.bank.fp1).all()


def test_subgraph_consume_equals_update(workload):
    """SubgraphSketch chunked consume must match per-token updates."""
    from repro.core import SubgraphSketch

    n, stream = workload
    batched = SubgraphSketch(
        n, order=3, samplers=16, source=HashSource(83)
    ).consume_batch(stream.as_batch())
    tokenwise = SubgraphSketch(n, order=3, samplers=16, source=HashSource(83))
    for upd in stream:
        tokenwise.update(upd)
    assert (batched.bank.bank.phi == tokenwise.bank.bank.phi).all()
    assert (batched.bank.bank.iota == tokenwise.bank.bank.iota).all()
    assert (batched.bank.bank.fp1 == tokenwise.bank.bank.fp1).all()
