"""Tests for repro.hashing: field arithmetic, mixing, k-wise, Nisan PRG."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing import (
    MERSENNE31,
    HashSource,
    KWiseHash,
    NisanPRG,
    horner_mod,
    mod_mersenne31,
    mulmod,
    powmod,
    splitmix64,
)
from repro.hashing import field
from repro.hashing.field import power_table, powmod_array, powmod_windowed
from repro.sketch.bank import CellBank

#: Exponent bits per window of ``powmod_windowed``'s tables.
WINDOW_BITS = 8
#: Bases of the windowed-power checks: the smallest generators, the
#: largest one a bank may draw, and a real bank's first generator.
POWER_BASES = [2, 3, MERSENNE31 - 2, CellBank(4, 100, HashSource(11)).z1]


class TestField:
    def test_mod_scalar(self):
        assert mod_mersenne31(MERSENNE31) == 0
        assert mod_mersenne31(MERSENNE31 + 5) == 5
        assert mod_mersenne31(3) == 3

    def test_mod_array_matches_numpy_mod(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2**62, size=1000, dtype=np.int64)
        assert (mod_mersenne31(x) == x % MERSENNE31).all()

    def test_mulmod_scalar(self):
        a, b = 123456789, 987654321
        assert mulmod(a, b) == a * b % MERSENNE31

    def test_mulmod_array(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, MERSENNE31, size=500, dtype=np.int64)
        b = rng.integers(0, MERSENNE31, size=500, dtype=np.int64)
        assert (mulmod(a, b) == (a.astype(object) * b) % MERSENNE31).all()

    def test_powmod_matches_builtin(self):
        for base, exp in [(3, 10), (12345, 0), (MERSENNE31 - 1, 7), (2, 61)]:
            assert powmod(base, exp) == pow(base, exp, MERSENNE31)

    def test_powmod_array_matches_scalar(self):
        exps = np.array([0, 1, 2, 31, 1000, 2**30], dtype=np.int64)
        got = powmod_array(7, exps)
        want = [pow(7, int(e), MERSENNE31) for e in exps]
        assert got.tolist() == want

    def test_horner_matches_direct_evaluation(self):
        coeffs = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        xs = np.array([0, 1, 2, 100, MERSENNE31 - 1], dtype=np.int64)
        got = horner_mod(coeffs, xs)
        for x, g in zip(xs, got):
            want = sum(
                int(c) * pow(int(x), len(coeffs) - 1 - i, MERSENNE31)
                for i, c in enumerate(coeffs)
            ) % MERSENNE31
            assert int(g) == want


class TestWindowedPowers:
    """``powmod_windowed`` is byte-identical to ``powmod_array``."""

    @pytest.mark.parametrize("base", POWER_BASES)
    def test_every_exponent_below_2_12(self, base):
        exps = np.arange(1 << 12, dtype=np.int64)
        assert exps[0] == 0
        assert np.array_equal(powmod_windowed(base, exps), powmod_array(base, exps))

    @pytest.mark.parametrize("base", POWER_BASES)
    def test_window_boundaries(self, base):
        edges = [1 << (WINDOW_BITS * k) for k in range(1, 8)]
        exps = np.array(
            [e + d for e in edges for d in (-1, 0, 1)] + [2**63 - 1],
            dtype=np.int64,
        )
        assert np.array_equal(powmod_windowed(base, exps), powmod_array(base, exps))

    @pytest.mark.parametrize("base", POWER_BASES)
    def test_random_exponents_below_2_62(self, base):
        rng = np.random.default_rng(base % 1000)
        exps = np.append(
            rng.integers(0, 2**62, size=100_000, dtype=np.int64), 2**63 - 1
        )
        assert np.array_equal(powmod_windowed(base, exps), powmod_array(base, exps))

    def test_shape_is_kept(self):
        exps = np.arange(12, dtype=np.int64).reshape(3, 4) * 1_000_003
        got = powmod_windowed(5, exps)
        assert got.shape == (3, 4)
        assert np.array_equal(got, powmod_array(5, exps))

    def test_empty_array(self):
        exps = np.empty(0, dtype=np.int64)
        got = powmod_windowed(3, exps)
        assert got.dtype == np.int64 and got.shape == (0,)
        assert np.array_equal(got, powmod_array(3, exps))

    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            powmod_windowed(3, np.array([4, -1], dtype=np.int64))

    def test_tables_are_memoised_and_read_only(self):
        table = power_table(3, 1)
        assert power_table(3 + MERSENNE31, 1) is table
        assert table[1] == pow(3, 1 << WINDOW_BITS, MERSENNE31)
        with pytest.raises(ValueError):
            table[0] = 5
        assert table[0] == 1

    def test_memo_is_bounded_and_reused(self):
        memo = field._power_table
        assert memo.cache_info().maxsize == field._TABLE_MEMO_MAX
        power_table(5, 2)
        hits = memo.cache_info().hits
        assert power_table(5 + 2 * MERSENNE31, 2) is power_table(5, 2)
        assert memo.cache_info().hits == hits + 2
        assert memo.cache_info().currsize <= field._TABLE_MEMO_MAX


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(42, seed=7) == splitmix64(42, seed=7)

    def test_seed_changes_output(self):
        assert splitmix64(42, seed=7) != splitmix64(42, seed=8)

    def test_scalar_matches_array(self):
        xs = np.arange(100, dtype=np.uint64)
        arr = splitmix64(xs, seed=123)
        for i in range(100):
            assert int(arr[i]) == splitmix64(i, seed=123)

    def test_bijection_no_collisions(self):
        xs = np.arange(100_000, dtype=np.uint64)
        out = splitmix64(xs, seed=5)
        assert len(np.unique(out)) == len(xs)


class TestHashSource:
    def test_derive_is_deterministic(self, source):
        assert source.derive(1, 2).seed == source.derive(1, 2).seed

    def test_derive_order_matters(self, source):
        assert source.derive(1, 2).seed != source.derive(2, 1).seed

    def test_uniform_in_range(self, source):
        u = source.uniform(np.arange(1000))
        assert (0 <= u).all() and (u < 1).all()
        # Roughly uniform: mean near 0.5.
        assert 0.4 < u.mean() < 0.6

    def test_bucket_scalar_matches_array(self, source):
        keys = np.arange(500, dtype=np.int64)
        arr = source.bucket(keys, 17)
        for i in range(500):
            assert int(arr[i]) == source.bucket(i, 17)

    def test_bucket_range(self, source):
        b = source.bucket(np.arange(2000), 7)
        assert set(np.unique(b)) <= set(range(7))

    def test_levels_geometric_distribution(self, source):
        lv = source.levels(np.arange(200_000), 30)
        # P(level >= 1) ≈ 1/2, P(level >= 2) ≈ 1/4.
        frac1 = (lv >= 1).mean()
        frac2 = (lv >= 2).mean()
        assert 0.48 < frac1 < 0.52
        assert 0.23 < frac2 < 0.27

    def test_levels_scalar_matches_array(self, source):
        arr = source.levels(np.arange(300), 20)
        for i in range(300):
            assert int(arr[i]) == source.levels(i, 20)

    def test_levels_capped(self, source):
        assert (source.levels(np.arange(10_000), 3) <= 3).all()

    def test_bernoulli_consistency(self, source):
        # Same key gives the same coin — required for consistent sampling.
        for key in range(50):
            assert source.bernoulli(key, 0.3) == source.bernoulli(key, 0.3)

    def test_bernoulli_rate(self, source):
        hits = source.bernoulli(np.arange(100_000), 0.2)
        assert 0.19 < hits.mean() < 0.21


class TestKWiseHash:
    def test_deterministic(self, source):
        h1 = KWiseHash(3, source.derive(9))
        h2 = KWiseHash(3, source.derive(9))
        assert h1.coeffs == h2.coeffs
        assert h1.hash64(12345) == h2.hash64(12345)

    def test_output_below_prime(self, source):
        h = KWiseHash(4, source.derive(10))
        vals = h.hash64(np.arange(1000))
        assert (vals >= 0).all() and (vals < MERSENNE31).all()

    def test_scalar_matches_array(self, source):
        h = KWiseHash(5, source.derive(11))
        arr = h.hash64(np.arange(200))
        for i in range(200):
            assert int(arr[i]) == h.hash64(i)

    def test_pairwise_collision_rate(self, source):
        h = KWiseHash(2, source.derive(12))
        vals = h.bucket(np.arange(1000), 100)
        counts = np.bincount(vals, minlength=100)
        # Expected ~10 per bucket; no bucket should be wildly off.
        assert counts.max() < 40

    def test_rejects_bad_k(self, source):
        with pytest.raises(ValueError):
            KWiseHash(0, source)

    def test_levels_geometric(self, source):
        h = KWiseHash(4, source.derive(13))
        lv = h.levels(np.arange(50_000), 20)
        assert 0.4 < (np.asarray(lv) >= 1).mean() < 0.6


class TestNisanPRG:
    def test_block_deterministic(self, source):
        g1 = NisanPRG(10, source.derive(20))
        g2 = NisanPRG(10, source.derive(20))
        assert [g1.block(j) for j in range(32)] == [g2.block(j) for j in range(32)]

    def test_blocks_vectorised_matches_scalar(self, source):
        g = NisanPRG(12, source.derive(21))
        idx = np.arange(200, dtype=np.int64)
        assert g.blocks(idx).tolist() == [g.block(int(j)) for j in idx]

    def test_num_blocks(self, source):
        assert NisanPRG(8, source).num_blocks == 256

    def test_block_out_of_range(self, source):
        g = NisanPRG(4, source)
        with pytest.raises(ValueError):
            g.block(16)
        with pytest.raises(ValueError):
            g.block(-1)

    def test_rejects_bad_levels(self, source):
        with pytest.raises(ValueError):
            NisanPRG(0, source)
        with pytest.raises(ValueError):
            NisanPRG(63, source)

    def test_seed_size_is_logarithmic(self, source):
        # The seed is one start block plus (a, b) per level: 2l+1 field
        # elements for 2^l blocks — exponential stretch (Theorem 3.5 shape).
        g = NisanPRG(20, source.derive(22))
        seed_elements = 1 + 2 * g.depth
        assert seed_elements == 41
        assert g.num_blocks == 2**20

    def test_output_statistics(self, source):
        g = NisanPRG(16, source.derive(23))
        vals = g.blocks(np.arange(4096))
        # Mean of uniform [0, p) is p/2; allow generous tolerance.
        assert 0.4 < vals.mean() / MERSENNE31 < 0.6

    def test_hash_protocol(self, source):
        g = NisanPRG(12, source.derive(24))
        assert g.bucket(5, 10) == g.bucket(5, 10)
        u = g.uniform(np.arange(100))
        assert (0 <= u).all() and (u < 1).all()
        lv = g.levels(np.arange(1000), 10)
        assert (np.asarray(lv) <= 10).all()
