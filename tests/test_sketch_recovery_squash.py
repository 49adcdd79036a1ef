"""Tests for k-sparse recovery (Theorem 2.2) and the squash encoding (Fig. 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RecoveryFailed
from repro.sketch import (
    SparseRecoveryBank,
    bucket_count_for,
    is_valid_encoding,
    pair_position_in_subset,
    pair_positions_k3,
    rows_for_order,
    squash_matrix,
    unsquash_value,
)


def _recovery(domain: int, k: int, source, **kwargs) -> SparseRecoveryBank:
    """A single k-RECOVERY structure: a one-group, one-instance bank."""
    return SparseRecoveryBank(1, 1, domain, k, source, **kwargs)


def _update_many(sr: SparseRecoveryBank, items, deltas) -> None:
    items = np.asarray(items, dtype=np.int64)
    zero = np.zeros_like(items)
    sr.update(zero, zero, items, deltas)


def _update(sr: SparseRecoveryBank, index: int, delta: int) -> None:
    _update_many(sr, [index], [delta])


class TestSparseRecovery:
    def test_exact_recovery(self, source):
        sr = _recovery(10_000, 6, source.derive(1))
        truth = {10: 3, 500: -2, 9999: 1, 42: 7}
        for i, v in truth.items():
            _update(sr, i, v)
        assert sr.decode(0, 0) == truth

    def test_empty_vector_decodes_empty(self, source):
        sr = _recovery(100, 3, source.derive(2))
        assert sr.decode(0, 0) == {}

    def test_cancellation_to_empty(self, source):
        sr = _recovery(100, 3, source.derive(3))
        _update(sr, 5, 2)
        _update(sr, 5, -2)
        assert sr.decode(0, 0) == {}

    def test_exactly_k_items(self, source):
        k = 10
        sr = _recovery(5000, k, source.derive(4))
        truth = {i * 97 + 3: i + 1 for i in range(k)}
        _update_many(sr, list(truth), list(truth.values()))
        assert sr.decode(0, 0) == truth

    def test_overfull_fails_honestly(self, source):
        sr = _recovery(5000, 4, source.derive(5))
        _update_many(sr, np.arange(0, 4000, 13), np.ones(308, dtype=int))
        with pytest.raises(RecoveryFailed):
            sr.decode(0, 0)

    def test_update_many_matches_scalar(self, source):
        """One batched update leaves the same cells as one update per item."""
        a = _recovery(1000, 5, source.derive(6))
        b = _recovery(1000, 5, source.derive(6))
        items = [3, 700, 41, 900]
        vals = [1, -2, 3, 4]
        for i, v in zip(items, vals):
            _update(a, i, v)
        _update_many(b, items, vals)
        assert (a.bank.phi == b.bank.phi).all()
        assert (a.bank.iota == b.bank.iota).all()
        assert (a.bank.fp1 == b.bank.fp1).all()
        assert (a.bank.fp2 == b.bank.fp2).all()

    def test_merge_linearity(self, source):
        a = _recovery(500, 4, source.derive(7))
        b = _recovery(500, 4, source.derive(7))
        _update(a, 10, 1)
        _update(b, 10, -1)
        _update(b, 20, 5)
        a.merge(b)
        assert a.decode(0, 0) == {20: 5}

    def test_merge_seed_mismatch(self, source):
        a = _recovery(500, 4, source.derive(8))
        b = _recovery(500, 4, source.derive(9))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_repeatable_decode(self, source):
        sr = _recovery(100, 3, source.derive(10))
        _update(sr, 5, 1)
        assert sr.decode(0, 0) == {5: 1}
        assert sr.decode(0, 0) == {5: 1}  # decode must not mutate state

    def test_bucket_count_grows_with_k(self):
        assert bucket_count_for(1) >= 2
        assert bucket_count_for(10) > bucket_count_for(2)

    def test_rejects_bad_parameters(self, source):
        with pytest.raises(ValueError):
            _recovery(100, 0, source)
        with pytest.raises(ValueError):
            _recovery(100, 2, source, rows=1)

    @pytest.mark.parametrize("trial", range(10))
    def test_random_round_trips(self, source, trial):
        rng = np.random.default_rng(trial)
        k = int(rng.integers(1, 12))
        size = int(rng.integers(0, k + 1))
        sr = _recovery(10_000, k, source.derive(12, trial))
        items = rng.choice(10_000, size=size, replace=False)
        vals = rng.integers(1, 100, size=size)
        _update_many(sr, items, vals)
        assert sr.decode(0, 0) == {int(i): int(v) for i, v in zip(items, vals)}


class TestSparseRecoveryBank:
    def test_decode_single_instance(self, source):
        bank = SparseRecoveryBank(3, 4, 1000, k=5, source=source.derive(20))
        bank.update(np.array([1, 1]), np.array([2, 2]),
                    np.array([10, 800]), np.array([2, -3]))
        assert bank.decode(1, 2) == {10: 2, 800: -3}
        assert bank.decode(0, 0) == {}

    def test_decode_sum_cancels_internal(self, source):
        """The Fig. 3 step 4(c) mechanism: shore sums expose the cut."""
        bank = SparseRecoveryBank(1, 4, 1000, k=5, source=source.derive(21))
        # Edge inside {0,1}: +1 to inst0, -1 to inst1 (same item).
        # Edge crossing {0,1}|{2}: +1 to inst1, -1 to inst2.
        bank.update(
            np.zeros(4, dtype=int),
            np.array([0, 1, 1, 2]),
            np.array([50, 50, 70, 70]),
            np.array([1, -1, 1, -1]),
        )
        assert bank.decode_sum(0, [0, 1]) == {70: 1}
        assert bank.decode_sum(0, [0, 1, 2]) == {}

    def test_decode_sum_overfull_fails(self, source):
        bank = SparseRecoveryBank(1, 2, 4096, k=3, source=source.derive(22))
        items = np.arange(1, 400, 7)
        bank.update(
            np.zeros(items.size, dtype=int),
            np.zeros(items.size, dtype=int),
            items,
            np.ones(items.size, dtype=int),
        )
        with pytest.raises(RecoveryFailed):
            bank.decode_sum(0, [0])

    def test_groups_use_independent_hashes(self, source):
        bank = SparseRecoveryBank(2, 1, 1000, k=4, source=source.derive(23))
        items = np.array([7, 7])
        bank.update(np.array([0, 1]), np.array([0, 0]), items, np.array([1, 1]))
        assert bank.decode(0, 0) == {7: 1}
        assert bank.decode(1, 0) == {7: 1}

    def test_merge(self, source):
        a = SparseRecoveryBank(1, 2, 100, k=3, source=source.derive(24))
        b = SparseRecoveryBank(1, 2, 100, k=3, source=source.derive(24))
        a.update(np.array([0]), np.array([0]), np.array([5]), np.array([1]))
        b.update(np.array([0]), np.array([0]), np.array([5]), np.array([2]))
        a.merge(b)
        assert a.decode(0, 0) == {5: 3}

    def test_merge_mismatch(self, source):
        a = SparseRecoveryBank(1, 2, 100, k=3, source=source.derive(25))
        b = SparseRecoveryBank(1, 2, 100, k=4, source=source.derive(25))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_instance_list_rejected(self, source):
        bank = SparseRecoveryBank(1, 2, 100, k=3, source=source.derive(26))
        with pytest.raises(ValueError):
            bank.decode_sum(0, [])


class TestSquash:
    def test_fig4_example(self):
        """The worked example of Fig. 4 (n=5, k=3)."""
        x = np.array(
            [
                [1, 1, 1, 0, 0, 1, 1, 1, 1, 1],
                [0, 1, 0, 1, 0, 0, 1, 0, 0, 0],
                [1, 1, 0, 1, 0, 1, 1, 0, 1, 1],
            ]
        )
        assert squash_matrix(x).tolist() == [5, 7, 1, 6, 0, 5, 7, 1, 5, 5]

    def test_squash_rejects_non_binary(self):
        with pytest.raises(ValueError):
            squash_matrix(np.array([[0, 2]]))

    def test_squash_rejects_non_2d(self):
        with pytest.raises(ValueError):
            squash_matrix(np.array([1, 0, 1]))

    def test_unsquash_roundtrip(self):
        for value in range(8):
            rows = unsquash_value(value, 3)
            assert sum(1 << r for r in rows) == value

    def test_unsquash_rejects_invalid(self):
        with pytest.raises(ValueError):
            unsquash_value(8, 3)
        with pytest.raises(ValueError):
            unsquash_value(-1, 3)

    def test_is_valid_encoding(self):
        assert is_valid_encoding(7, 3)
        assert not is_valid_encoding(8, 3)

    def test_pair_position_in_subset(self):
        subset = (2, 5, 9)
        assert pair_position_in_subset(subset, 2, 5) == 0
        assert pair_position_in_subset(subset, 2, 9) == 1
        assert pair_position_in_subset(subset, 9, 5) == 2

    def test_pair_position_rejects_outside_pair(self):
        with pytest.raises(ValueError):
            pair_position_in_subset((1, 2, 3), 1, 9)

    def test_pair_positions_k3_matches_generic(self):
        u, v = 4, 10
        w = np.array([0, 5, 20])
        pos = pair_positions_k3(u, v, w)
        for wi, p in zip(w, pos):
            subset = tuple(sorted((u, v, int(wi))))
            assert pair_position_in_subset(subset, u, v) == p

    def test_rows_for_order(self):
        assert rows_for_order(3) == 3
        assert rows_for_order(4) == 6
        assert rows_for_order(5) == 10
