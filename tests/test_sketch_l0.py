"""Tests for ℓ₀ samplers (Theorem 2.1): one sampler and whole banks."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.errors import SamplerFailed
from repro.hashing import HashSource
from repro.sketch import L0SamplerBank


def _sampler(domain: int, source, **kwargs) -> L0SamplerBank:
    """A single ℓ₀ sampler: a one-family, one-sampler bank."""
    return L0SamplerBank(1, 1, domain, source, **kwargs)


def _update(sampler: L0SamplerBank, index: int, delta: int) -> None:
    zero = np.zeros(1, dtype=np.int64)
    sampler.update(zero, zero, np.array([index]), np.array([delta]))


class TestOneSampler:
    def test_sample_from_singleton(self, source):
        s = _sampler(500, source.derive(1))
        _update(s, 123, 9)
        assert s.sample(0, 0) == (123, 9)

    def test_sample_in_support(self, source):
        s = _sampler(500, source.derive(2))
        support = {3: 1, 99: 2, 400: -1}
        for i, v in support.items():
            _update(s, i, v)
        i, v = s.sample(0, 0)
        assert support[i] == v

    def test_deletions_cancel(self, source):
        s = _sampler(500, source.derive(3))
        _update(s, 7, 1)
        _update(s, 300, 1)
        _update(s, 300, -1)
        assert s.sample(0, 0) == (7, 1)

    def test_zero_vector_flagged(self, source):
        s = _sampler(500, source.derive(4))
        _update(s, 5, 1)
        _update(s, 5, -1)
        with pytest.raises(SamplerFailed) as info:
            s.sample(0, 0)
        assert info.value.vector_is_zero

    def test_merge_equals_combined(self, source):
        a = _sampler(200, source.derive(6))
        b = _sampler(200, source.derive(6))
        _update(a, 10, 1)
        _update(b, 10, -1)
        _update(b, 50, 2)
        a.merge(b)
        assert a.sample(0, 0) == (50, 2)

    def test_merge_domain_mismatch(self, source):
        a = _sampler(200, source.derive(7))
        b = _sampler(300, source.derive(7))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_moderate_support_recoverable(self, source):
        s = _sampler(10_000, source.derive(8), rows=2, buckets=8)
        support = {i * 37 + 1: 1 for i in range(50)}
        for i, v in support.items():
            _update(s, i, v)
        i, v = s.sample(0, 0)
        assert i in support

    @pytest.mark.parametrize("seed", range(8))
    def test_sample_agrees_with_batched_decode(self, seed):
        """``sample`` and the ``decode_all`` kernel share the selection rule.

        ``sample`` decodes one sampler's cells with ``decode_cells``;
        ``sample_sum`` goes through the batched ``decode_all`` kernel.
        Both must pick the argmax of ``(level, hash(i))`` over the
        decodable cells, tie-break included, so they return the same
        sample — or both FAIL.
        """
        src = HashSource(0xA11CE + seed)
        domain = 2_000
        bank = _sampler(domain, src)
        support = {(j * 131 + 17 * seed) % domain: 1 + (j % 3) for j in range(24)}
        support.pop(0, None)
        items = np.fromiter(support, dtype=np.int64)
        values = np.fromiter(support.values(), dtype=np.int64)
        bank.update(
            np.zeros(items.size, dtype=np.int64),
            np.zeros(items.size, dtype=np.int64),
            items,
            values,
        )
        try:
            expected = bank.sample(0, 0)
        except SamplerFailed:
            with pytest.raises(SamplerFailed):
                bank.sample_sum(0, [0])
            return
        assert bank.sample_sum(0, [0]) == expected


class TestL0SamplerBank:
    def test_families_are_independent_samplers(self, source):
        bank = L0SamplerBank(families=50, samplers=1, domain=1000,
                             source=source.derive(10))
        support = [5, 111, 600, 999]
        arr = np.asarray(support)
        for f in range(50):
            bank.update(
                np.full(4, f), np.zeros(4, dtype=int), arr, np.ones(4, dtype=int)
            )
        got = set()
        for f in range(50):
            try:
                i, _ = bank.sample(f, 0)
                got.add(i)
            except SamplerFailed:
                pass
        # Different families should not all return the same element.
        assert len(got) >= 2
        assert got <= set(support)

    def test_sample_sum_is_sum_vector(self, source):
        bank = L0SamplerBank(families=1, samplers=3, domain=500,
                             source=source.derive(11))
        # sampler0: +1@40; sampler1: -1@40, +2@99; sampler2: +5@7
        bank.update(
            np.zeros(4, dtype=int),
            np.array([0, 1, 1, 2]),
            np.array([40, 40, 99, 7]),
            np.array([1, -1, 2, 5]),
        )
        i, v = bank.sample_sum(0, [0, 1])
        assert (i, v) == (99, 2)
        got = {bank.sample_sum(0, [0, 1, 2])[0] for _ in range(1)}
        assert got <= {99, 7}

    def test_sample_sum_empty_list_rejected(self, source):
        bank = L0SamplerBank(1, 2, 100, source.derive(12))
        with pytest.raises(ValueError):
            bank.sample_sum(0, [])

    def test_is_zero(self, source):
        bank = L0SamplerBank(1, 2, 100, source.derive(13))
        assert bank.is_zero(0, 0)
        bank.update(np.array([0]), np.array([1]), np.array([10]), np.array([1]))
        assert bank.is_zero(0, 0)
        assert not bank.is_zero(0, 1)

    def test_zero_flag_on_sample(self, source):
        bank = L0SamplerBank(1, 1, 100, source.derive(14))
        with pytest.raises(SamplerFailed) as info:
            bank.sample(0, 0)
        assert info.value.vector_is_zero

    def test_merge_equals_single_stream(self, source):
        a = L0SamplerBank(2, 2, 300, source.derive(15))
        b = L0SamplerBank(2, 2, 300, source.derive(15))
        c = L0SamplerBank(2, 2, 300, source.derive(15))
        upd1 = (np.array([0, 1]), np.array([0, 1]), np.array([9, 20]),
                np.array([1, 3]))
        upd2 = (np.array([0]), np.array([0]), np.array([9]), np.array([-1]))
        a.update(*upd1)
        b.update(*upd2)
        c.update(*upd1)
        c.update(*upd2)
        a.merge(b)
        assert (a.bank.phi == c.bank.phi).all()
        assert (a.bank.fp1 == c.bank.fp1).all()

    def test_merge_shape_mismatch(self, source):
        a = L0SamplerBank(2, 2, 300, source.derive(16))
        b = L0SamplerBank(2, 3, 300, source.derive(16))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_uniformity_statistical(self, source):
        """Theorem 2.1 shape: samples near-uniform over the support."""
        support = [5, 90, 450, 1023, 1999]
        trials = 400
        bank = L0SamplerBank(families=trials, samplers=1, domain=2016,
                             source=source.derive(17))
        arr = np.asarray(support)
        ones = np.ones(len(support), dtype=int)
        zeros = np.zeros(len(support), dtype=int)
        for f in range(trials):
            bank.update(np.full(len(support), f), zeros, arr, ones)
        counts: Counter[int] = Counter()
        fails = 0
        for f in range(trials):
            try:
                i, _ = bank.sample(f, 0)
                counts[i] += 1
            except SamplerFailed:
                fails += 1
        assert fails / trials < 0.05
        expected = (trials - fails) / len(support)
        chi2 = sum(
            (counts[i] - expected) ** 2 / expected for i in support
        )
        # df=4; 99.9% quantile ≈ 18.5 — generous but catches real bias.
        assert chi2 < 18.5, (dict(counts), chi2)

    def test_fail_rate_small(self, source):
        """Samplers rarely FAIL across support sizes (δ-error behaviour)."""
        trials = 100
        for size in (1, 3, 17, 200):
            bank = L0SamplerBank(families=trials, samplers=1, domain=4096,
                                 source=source.derive(18, size))
            items = np.arange(1, 4 * size, 4, dtype=np.int64)[:size]
            ones = np.ones(items.size, dtype=int)
            zeros = np.zeros(items.size, dtype=int)
            for f in range(trials):
                bank.update(np.full(items.size, f), zeros, items, ones)
            fails = 0
            for f in range(trials):
                try:
                    bank.sample(f, 0)
                except SamplerFailed:
                    fails += 1
            assert fails / trials <= 0.1, size

    def test_rejects_bad_shapes(self, source):
        with pytest.raises(ValueError):
            L0SamplerBank(0, 1, 10, source)
        with pytest.raises(ValueError):
            L0SamplerBank(1, 0, 10, source)


class TestOutOfRangeSamplers:
    """Cells are indexed by ``family * samplers + sampler``, so an id
    outside the bank would read a neighbour's cells: each entry point
    refuses it, naming the value."""

    @pytest.fixture
    def bank(self, source):
        bank = L0SamplerBank(families=2, samplers=3, domain=100,
                             source=source.derive(20))
        bank.update(np.array([1]), np.array([0]), np.array([42]),
                    np.array([5]))
        assert bank.sample(1, 0) == (42, 5)
        return bank

    def test_sample(self, bank):
        for family, sampler, named in [
            (0, 3, "sampler 3"), (0, -3, "sampler -3"),
            (-1, 0, "family -1"), (2, 0, "family 2"),
        ]:
            with pytest.raises(ValueError, match=f"{named} outside"):
                bank.sample(family, sampler)

    def test_sample_sum(self, bank):
        for family, ids, named in [
            (0, [3], "sampler 3"), (0, [-3], "sampler -3"),
            (0, [1, 4, 2], "sampler 4"), (-1, [0], "family -1"),
            (2, [0], "family 2"),
        ]:
            with pytest.raises(ValueError, match=f"{named} outside"):
                bank.sample_sum(family, ids)

    def test_sample_many(self, bank):
        for family, groups, named in [
            (0, [[0], [3]], "sampler 3"), (0, [[-3, 1]], "sampler -3"),
            (-1, [[0]], "family -1"), (2, [[0], [1]], "family 2"),
        ]:
            with pytest.raises(ValueError, match=f"{named} outside"):
                bank.sample_many(family, groups)
        with pytest.raises(ValueError, match="sampler 3 outside"):
            bank.sample_segments(0, np.array([0, 3]), np.array([0, 1, 2]))

    def test_is_zero(self, bank):
        assert not bank.is_zero(1, 0)
        for family, sampler, named in [
            (0, 3, "sampler 3"), (0, -3, "sampler -3"),
            (-1, 0, "family -1"), (2, 0, "family 2"),
        ]:
            with pytest.raises(ValueError, match=f"{named} outside"):
                bank.is_zero(family, sampler)
