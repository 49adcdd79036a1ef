"""The ``packed-zlib`` sparse payload on synthetic arrays.

``_pack_sparse`` and ``_unpack_sparse`` take ``(positions, values,
cells)`` with ``cells`` a plain integer, so the width boundaries — a
largest gap of 2^16 or 2^32, a count past int32 — are tested at buffer
sizes no arena could allocate.  The contract: unpacking returns exactly
the packed arrays as int64; the position gaps take the narrowest of
u16/u32/u64 that holds the largest gap, the counter half int32 when
every value fits and int64 otherwise, the fingerprint half u32; and a
fingerprint outside ``[0, 2^31 - 1)`` is refused at pack time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import MERSENNE31
from repro.sketch.serialize import _pack_sparse, _unpack_sparse

I32_MIN, I32_MAX = -(1 << 31), (1 << 31) - 1


def _round_trip(positions, values, cells: int) -> dict:
    """Pack, check the payload length, unpack, check equality; the
    header fields."""
    positions = np.asarray(positions, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    fields, payload = _pack_sparse(positions, values, cells)
    gap_width, count_width = fields["widths"]
    split = int(np.count_nonzero(positions < 2 * cells))
    assert fields["nnz"] == positions.size
    assert len(payload) == (
        positions.size * gap_width + split * count_width
        + (positions.size - split) * 4
    )
    got_positions, got_values = _unpack_sparse(fields, payload, cells)
    assert got_positions.dtype == np.int64
    assert got_values.dtype == np.int64
    assert np.array_equal(got_positions, positions)
    assert np.array_equal(got_values, values)
    return fields


#: ``(positions, values, cells, widths)``: every width boundary.  With
#: ``cells = 2^33`` every position below 2^34 is a counter entry.
BOUNDARY_CASES = [
    pytest.param([], [], 10, [2, 4], id="empty"),
    pytest.param([0, 65535], [1, -1], 1 << 33, [2, 4], id="gap-2^16-1"),
    pytest.param([0, 65536], [1, -1], 1 << 33, [4, 4], id="gap-2^16"),
    pytest.param([65535], [7], 1 << 33, [2, 4], id="first-gap-2^16-1"),
    pytest.param([65536], [7], 1 << 33, [4, 4], id="first-gap-2^16"),
    pytest.param(
        [3, 3 + (1 << 32) - 1], [1, 2], 1 << 33, [4, 4], id="gap-2^32-1",
    ),
    pytest.param(
        [3, 3 + (1 << 32)], [1, 2], 1 << 33, [8, 4], id="gap-2^32",
    ),
    pytest.param([5, 9], [I32_MIN, 1], 1 << 33, [2, 4], id="count-min-int32"),
    pytest.param([5, 9], [1, I32_MAX], 1 << 33, [2, 4], id="count-max-int32"),
    pytest.param(
        [5, 9], [1, I32_MAX + 1], 1 << 33, [2, 8], id="count-2^31",
    ),
    pytest.param(
        [5, 9], [I32_MIN - 1, 1], 1 << 33, [2, 8], id="count-below-int32",
    ),
    pytest.param(
        [1, 2, 20, 39], [-(1 << 40), 3, 0, MERSENNE31 - 1], 10, [2, 8],
        id="both-halves",
    ),
    pytest.param([20, 39], [0, MERSENNE31 - 1], 10, [2, 4], id="fps-only"),
]


@pytest.mark.parametrize("positions,values,cells,widths", BOUNDARY_CASES)
def test_width_boundaries(positions, values, cells, widths):
    assert _round_trip(positions, values, cells)["widths"] == widths


@pytest.mark.parametrize("fingerprint", [-1, MERSENNE31, 1 << 32])
def test_out_of_field_fingerprint_refused_at_pack(fingerprint):
    """Positions from ``2 * cells`` on are fingerprints: u32 would hold
    ``p`` and truncate ``2^32``, so the writer refuses both."""
    with pytest.raises(ValueError, match="GF"):
        _pack_sparse(
            np.array([1, 25]), np.array([4, fingerprint]), cells=10
        )


@st.composite
def sparse_buffers(draw):
    """Sorted distinct positions in a ``4 * cells`` buffer, each with a
    value that is a counter or a reduced fingerprint by its half."""
    cells = draw(st.sampled_from([1, 7, 1 << 15, 1 << 30, 1 << 33]))
    positions = sorted(draw(st.sets(
        st.integers(0, 4 * cells - 1), max_size=40,
    )))
    counter = st.one_of(
        st.integers(-3, 3),
        st.integers(I32_MIN - 2, I32_MAX + 2),
        st.integers(-(1 << 63), (1 << 63) - 1),
    )
    fingerprint = st.integers(0, MERSENNE31 - 1)
    values = [
        draw(counter if position < 2 * cells else fingerprint)
        for position in positions
    ]
    return positions, values, cells


@settings(max_examples=200, deadline=None)
@given(sparse_buffers())
def test_pack_unpack_round_trip_at_the_narrowest_widths(buffer):
    positions, values, cells = buffer
    gap_width, count_width = _round_trip(positions, values, cells)["widths"]
    largest = int(np.diff(positions, prepend=0).max()) if positions else 0
    assert gap_width == next(w for w in (2, 4, 8) if largest < 1 << (8 * w))
    counts = [v for p, v in zip(positions, values) if p < 2 * cells]
    fits = all(I32_MIN <= v <= I32_MAX for v in counts)
    assert count_width == (4 if fits else 8)
