"""Tests for repro.util: bit helpers and combinatorial (un)ranking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util import (
    ceil_log2,
    check_node,
    check_probability,
    comb,
    floor_log2,
    pair_count,
    pair_rank,
    pair_rank_array,
    pair_unrank,
    stable_unique_pairs,
    subset_rank,
    subset_unrank,
    trailing_zeros,
    trailing_zeros_array,
)


class TestLogHelpers:
    def test_ceil_log2_powers(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(1024) == 10

    def test_ceil_log2_non_powers(self):
        assert ceil_log2(3) == 2
        assert ceil_log2(1025) == 11

    def test_floor_log2(self):
        assert floor_log2(1) == 0
        assert floor_log2(7) == 2
        assert floor_log2(8) == 3

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            ceil_log2(bad)
        with pytest.raises(ValueError):
            floor_log2(bad)

    def test_trailing_zeros(self):
        assert trailing_zeros(1) == 0
        assert trailing_zeros(8) == 3
        assert trailing_zeros(12) == 2

    def test_trailing_zeros_rejects_zero(self):
        with pytest.raises(ValueError):
            trailing_zeros(0)

    def test_trailing_zeros_array_exact_for_every_bit(self):
        powers = np.uint64(1) << np.arange(64, dtype=np.uint64)
        assert trailing_zeros_array(powers).tolist() == list(range(64))
        above = powers | (powers << np.uint64(1))
        assert trailing_zeros_array(above).tolist() == list(range(64))

    def test_trailing_zeros_array_matches_scalar(self):
        rng = np.random.default_rng(4)
        x = rng.integers(1, 2**63, size=5000, dtype=np.int64)
        got = trailing_zeros_array(x)
        assert got.dtype == np.int64
        assert got.tolist() == [trailing_zeros(int(v)) for v in x]
        assert (trailing_zeros_array(np.zeros(2, dtype=np.uint64)) < 0).all()


class TestComb:
    def test_small_values(self):
        assert comb(5, 2) == 10
        assert comb(5, 0) == 1
        assert comb(5, 5) == 1

    def test_out_of_range_is_zero(self):
        assert comb(3, 5) == 0
        assert comb(-1, 0) == 0
        assert comb(3, -1) == 0

    def test_pair_count(self):
        assert pair_count(2) == 1
        assert pair_count(10) == 45


class TestPairRanking:
    def test_roundtrip_all_pairs(self):
        n = 23
        seen = set()
        for u in range(n):
            for v in range(u + 1, n):
                r = pair_rank(u, v, n)
                assert pair_unrank(r, n) == (u, v)
                seen.add(r)
        assert seen == set(range(pair_count(n)))

    def test_order_independent(self):
        assert pair_rank(3, 7, 10) == pair_rank(7, 3, 10)

    def test_lexicographic_order(self):
        assert pair_rank(0, 1, 5) == 0
        assert pair_rank(0, 4, 5) == 3
        assert pair_rank(1, 2, 5) == 4

    def test_roundtrip_large_universe_exact(self):
        """Regression: the quadratic seed must stay exact at large n.

        For n ≳ 2^26, ``8 · C(n,2)`` exceeds 2^53, where float sqrt
        rounding begins; ``math.isqrt`` keeps the row seed exact for any
        n, so the boundary fix-ups stay O(1) and the round trip is exact
        all the way to the last rank.
        """
        for n in (1 << 27, (1 << 28) + 3):
            total = pair_count(n)
            pairs = [
                (0, 1), (0, n - 1), (1, 2),
                (n // 3, n // 2), (n - 3, n - 2), (n - 2, n - 1),
            ]
            for u, v in pairs:
                assert pair_unrank(pair_rank(u, v, n), n) == (u, v)
            for r in (0, 1, total // 3, total // 2, total - 2, total - 1):
                u, v = pair_unrank(r, n)
                assert 0 <= u < v < n
                assert pair_rank(u, v, n) == r

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            pair_rank(3, 3, 10)

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError):
            pair_rank(0, 10, 10)
        with pytest.raises(ValueError):
            pair_unrank(45, 10)

    def test_array_version_matches_scalar(self):
        n = 31
        rng = np.random.default_rng(0)
        u = rng.integers(0, n, size=200)
        v = rng.integers(0, n, size=200)
        mask = u != v
        u, v = u[mask], v[mask]
        got = pair_rank_array(u, v, n)
        want = [pair_rank(int(a), int(b), n) for a, b in zip(u, v)]
        assert got.tolist() == want


class TestSubsetRanking:
    @pytest.mark.parametrize("n,k", [(8, 3), (10, 4), (12, 2), (9, 5)])
    def test_roundtrip(self, n, k):
        total = comb(n, k)
        for r in range(total):
            s = subset_unrank(r, n, k)
            assert subset_rank(s, n) == r
            assert len(s) == k
            assert all(0 <= x < n for x in s)
            assert list(s) == sorted(s)

    def test_first_and_last(self):
        assert subset_unrank(0, 10, 3) == (0, 1, 2)
        assert subset_unrank(comb(10, 3) - 1, 10, 3) == (7, 8, 9)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            subset_rank((3, 1, 2), 10)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            subset_rank((1, 1, 2), 10)

    def test_rejects_out_of_range_rank(self):
        with pytest.raises(ValueError):
            subset_unrank(comb(6, 3), 6, 3)


class TestValidationHelpers:
    def test_check_node(self):
        check_node(0, 5)
        check_node(4, 5)
        with pytest.raises(ValueError):
            check_node(5, 5)
        with pytest.raises(ValueError):
            check_node(-1, 5)

    def test_check_probability(self):
        check_probability(0.5)
        check_probability(1.0)
        with pytest.raises(ValueError):
            check_probability(0.0)
        with pytest.raises(ValueError):
            check_probability(1.5)

    def test_stable_unique_pairs(self):
        pairs = [(2, 1), (1, 2), (3, 4), (4, 3), (1, 2)]
        assert stable_unique_pairs(pairs) == [(1, 2), (3, 4)]
