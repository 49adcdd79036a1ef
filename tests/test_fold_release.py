"""A fold's release: zero the named positions, or fill past a share.

Leaving a :meth:`~repro.sketch.twin.WarmTwin.lend` block zeroes the
twin again.  Below ``1 / _FILL_SHARE`` of the buffer it writes zeros at
each folded payload's positions, so a sparse window writes only its own
pages; past that share one ``fill`` is cheaper.  Either way the parked
twin is all zeros, whether the payloads were blobs or decoded cells.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SketchSpec
from repro.sketch import dump_sketch, ensure_arena
from repro.sketch.serialize import dump_cells
from repro.sketch.twin import _FILL_SHARE, WarmTwin
from repro.streams import churn_stream, erdos_renyi_graph

N = 64
SPEC = SketchSpec.of("spanning_forest", N, seed=3)


def _sketch(p: float, seed: int):
    stream = churn_stream(N, erdos_renyi_graph(N, p, seed=seed), seed=seed + 1)
    return SPEC.build().consume_batch(stream.as_batch())


@pytest.mark.parametrize("covering", [False, True], ids=["sparse", "covering"])
def test_both_releases_leave_the_twin_all_zero(covering):
    sketches = [
        _sketch(0.3, seed) for seed in range(6)
    ] if covering else [_sketch(0.01, seed) for seed in range(3)]
    # Blobs and cells alike; the first payload is loaded, the rest fold.
    payloads = [
        dump_sketch(s) if i % 2 else dump_cells(s)[0]
        for i, s in enumerate(sketches)
    ]
    twin = WarmTwin()
    with twin.lend() as fold:
        fold.merge(payloads[0])
        for payload in payloads[1:-1]:
            fold.merge(payload)
        fold.subtract(payloads[-1])
        buffer = ensure_arena(fold.sketch).buffer
        named = np.unique(np.concatenate(
            [dump_cells(s)[0].positions for s in sketches]
        ))
        total = sum(dump_cells(s)[0].positions.size for s in sketches)
        # A sentinel at a position no payload named shows which release
        # ran: only the fill clears it.
        free = int(np.setdiff1d(np.arange(buffer.size), named)[0])
        buffer[free] = 7
    assert (total * _FILL_SHARE >= buffer.size) is covering
    parked = ensure_arena(twin._idle).buffer
    if covering:
        assert not parked.any()
    else:
        assert parked[free] == 7
        parked[free] = 0
        assert not parked.any()
